package pricing

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"nimbus/internal/dataset"
	"nimbus/internal/ml"
	"nimbus/internal/noise"
)

// curveKey is the content key of a Monte-Carlo run, the key the
// Monte-Carlo cache tests and the estimator golden read entries under.
func curveKey(cfg TransformConfig) string { return contentKey(cfg, monteCarloTag) }

// exactKey is the content key of an exact Gaussian-mechanism curve.
func exactKey(cfg TransformConfig) string { return contentKey(cfg, gaussianTag) }

// cacheFixture is a small, fully defaulted transform configuration.
func cacheFixture(t *testing.T) TransformConfig {
	t.Helper()
	pair, w := regFixture(t)
	cfg, err := TransformConfig{
		Optimal: w,
		Loss:    ml.SquaredLoss{Reg: 1e-3},
		Data:    pair.Test,
		Xs:      DefaultGrid(8),
		Samples: 30,
		Seed:    5,
	}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// cloneData deep-copies a dataset so a test can flip one value.
func cloneData(d *dataset.Dataset) *dataset.Dataset {
	c := *d
	c.Features = d.Features.Clone()
	c.Target = append([]float64(nil), d.Target...)
	return &c
}

func flipBit(v float64) float64 { return math.Float64frombits(math.Float64bits(v) ^ 1) }

func TestCurveKeySensitivity(t *testing.T) {
	base := cacheFixture(t)
	key := curveKey(base)
	if again := curveKey(base); again != key {
		t.Fatalf("key not deterministic: %s vs %s", key, again)
	}
	// Spelling out a default is the same input as leaving it implicit.
	implicit, err := TransformConfig{Optimal: base.Optimal, Loss: base.Loss, Data: base.Data,
		Xs: base.Xs, Samples: base.Samples, Seed: base.Seed}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if curveKey(implicit) != key {
		t.Fatal("implicit Gaussian mechanism keys differently from an explicit one")
	}

	mutations := map[string]func(*TransformConfig){
		"optimal bit": func(c *TransformConfig) {
			c.Optimal = append([]float64(nil), c.Optimal...)
			c.Optimal[1] = flipBit(c.Optimal[1])
		},
		"test feature": func(c *TransformConfig) {
			c.Data = cloneData(c.Data)
			c.Data.Features.Data[7] = flipBit(c.Data.Features.Data[7])
		},
		"test target": func(c *TransformConfig) {
			c.Data = cloneData(c.Data)
			c.Data.Target[3] = flipBit(c.Data.Target[3])
		},
		"grid point": func(c *TransformConfig) {
			c.Xs = append([]float64(nil), c.Xs...)
			c.Xs[2] = flipBit(c.Xs[2])
		},
		"samples":   func(c *TransformConfig) { c.Samples++ },
		"seed":      func(c *TransformConfig) { c.Seed++ },
		"loss reg":  func(c *TransformConfig) { c.Loss = ml.SquaredLoss{Reg: flipBit(1e-3)} },
		"loss type": func(c *TransformConfig) { c.Loss = ml.LogisticLoss{Reg: 1e-3} },
		"mechanism": func(c *TransformConfig) { c.Mechanism = noise.Laplace{} },
	}
	seen := map[string]string{key: "base"}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		k := curveKey(cfg)
		if prev, dup := seen[k]; dup {
			t.Errorf("flipping %s keeps the key of %s", name, prev)
		}
		seen[k] = name
	}
	// The mutations must not have leaked into the shared fixture.
	if curveKey(base) != key {
		t.Fatal("a mutation modified the base configuration")
	}
}

// TestExactKey checks the exact curve's key: it covers the inputs
// GaussianTransform reads, leaves out the Monte-Carlo's sample count and
// seed, and never collides with the Monte-Carlo key of the same inputs.
func TestExactKey(t *testing.T) {
	base := cacheFixture(t)
	key := exactKey(base)
	if key == curveKey(base) {
		t.Fatal("exact and Monte-Carlo curves of the same inputs share a key")
	}
	for name, mutate := range map[string]func(*TransformConfig){
		"samples": func(c *TransformConfig) { c.Samples++ },
		"seed":    func(c *TransformConfig) { c.Seed++ },
	} {
		cfg := base
		mutate(&cfg)
		if exactKey(cfg) != key {
			t.Errorf("the exact key depends on the unread %s", name)
		}
	}
	for name, mutate := range map[string]func(*TransformConfig){
		"optimal bit": func(c *TransformConfig) {
			c.Optimal = append([]float64(nil), c.Optimal...)
			c.Optimal[0] = flipBit(c.Optimal[0])
		},
		"test target": func(c *TransformConfig) {
			c.Data = cloneData(c.Data)
			c.Data.Target[3] = flipBit(c.Data.Target[3])
		},
		"loss reg": func(c *TransformConfig) { c.Loss = ml.SquaredLoss{Reg: flipBit(1e-3)} },
	} {
		cfg := base
		mutate(&cfg)
		if exactKey(cfg) == key {
			t.Errorf("flipping %s keeps the exact key", name)
		}
	}
}

func TestCurveCacheHitIsBitIdentical(t *testing.T) {
	cfg := cacheFixture(t)
	plain, err := MonteCarloTransform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCurveCache()
	cfg.Cache = cache
	miss, err := MonteCarloTransform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := cache.Stats(); h != 0 || m != 1 || !cache.Dirty() {
		t.Fatalf("cold cache: hits %d misses %d dirty %v", h, m, cache.Dirty())
	}

	// Round-trip through the encoded form, as a restart would.
	var buf bytes.Buffer
	if err := cache.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := DecodeCurveCache(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = reloaded
	hit, err := MonteCarloTransform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := reloaded.Stats(); h != 1 || m != 0 || reloaded.Dirty() {
		t.Fatalf("warm cache: hits %d misses %d dirty %v", h, m, reloaded.Dirty())
	}
	for _, c := range []*ErrorCurve{miss, hit} {
		if !sameBits(c.Xs, plain.Xs) || !sameBits(c.Errs, plain.Errs) || c.LossName != plain.LossName {
			t.Fatalf("cached curve %v differs from uncached %v", c.Errs, plain.Errs)
		}
	}
	// A re-encode of a fully used cache is byte-identical.
	var again bytes.Buffer
	if err := reloaded.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("re-encoding a fully hit cache changed the file")
	}
}

func TestCurveCacheDropsUnusedEntries(t *testing.T) {
	cfg := cacheFixture(t)
	cache := NewCurveCache()
	cfg.Cache = cache
	for seed := int64(1); seed <= 2; seed++ {
		cfg.Seed = seed
		if _, err := MonteCarloTransform(cfg); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := cache.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := DecodeCurveCache(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = reloaded
	if _, err := MonteCarloTransform(cfg); err != nil { // seed 2 only
		t.Fatal(err)
	}
	if !reloaded.Dirty() {
		t.Fatal("a cache with an unused entry should want a rewrite")
	}
	buf.Reset()
	if err := reloaded.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), `"key"`); n != 1 {
		t.Fatalf("rewritten cache holds %d entries, want the 1 still used", n)
	}
}

func TestDecodeCurveCacheRejectsDamage(t *testing.T) {
	key := strings.Repeat("ab", 32)
	head := fmt.Sprintf(`{"version":%d,"curves":[`, cacheVersion)
	for name, in := range map[string]string{
		"empty":           ``,
		"garbage":         `not json`,
		"truncated":       head + `{"key":"` + key + `","xs":[1,2],"me`,
		"wrong version":   `{"version":99,"curves":[]}`,
		"earlier version": fmt.Sprintf(`{"version":%d,"curves":[]}`, cacheVersion-1),
		"short key":       head + `{"key":"abc","xs":[1],"means":[2]}]}`,
		"non-hex key":     head + `{"key":"` + strings.Repeat("zz", 32) + `","xs":[1],"means":[2]}]}`,
		"length":          head + `{"key":"` + key + `","xs":[1,2],"means":[2]}]}`,
		"no grid":         head + `{"key":"` + key + `","xs":[],"means":[]}]}`,
		"duplicate": head + `{"key":"` + key + `","xs":[1],"means":[2]},` +
			`{"key":"` + key + `","xs":[1],"means":[3]}]}`,
	} {
		if _, err := DecodeCurveCache([]byte(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzCurveCache decodes arbitrary bytes: the decoder must never panic,
// and every entry it accepts must carry one mean per grid point and
// survive an encode/decode round trip.
func FuzzCurveCache(f *testing.F) {
	key := strings.Repeat("0f", 32)
	head := fmt.Sprintf(`{"version":%d,"curves":[`, cacheVersion)
	f.Add([]byte(head + `{"key":"` + key + `","xs":[1,50.5,100],"means":[3,2,1]}]}`))
	f.Add([]byte(head + `]}`))
	f.Add([]byte(head + `{"key":"` + key + `","xs":[1,2],"means":[1]}]}`))
	f.Add([]byte(head + `{"key":"` + key + `","xs":[1e308,-0],"means":[5e-324,1]}]}`))
	f.Add([]byte(fmt.Sprintf(`{"version":%d}`, cacheVersion)))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCurveCache(data)
		if err != nil {
			return
		}
		for k, e := range c.loaded {
			if len(e.Means) != len(e.Xs) || len(e.Xs) == 0 {
				t.Fatalf("entry %s: %d means for %d grid points", k, len(e.Means), len(e.Xs))
			}
			means, ok := c.lookup(k, e.Xs)
			if !ok || len(means) != len(e.Xs) {
				t.Fatalf("entry %s: lookup ok=%v len %d, want %d", k, ok, len(means), len(e.Xs))
			}
		}
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			t.Fatalf("encoding a decoded cache: %v", err)
		}
		again, err := DecodeCurveCache(buf.Bytes())
		if err != nil {
			t.Fatalf("re-decoding: %v", err)
		}
		if len(again.loaded) != len(c.loaded) {
			t.Fatalf("round trip kept %d of %d entries", len(again.loaded), len(c.loaded))
		}
		for k, e := range c.loaded {
			if r := again.loaded[k]; !sameBits(r.Xs, e.Xs) || !sameBits(r.Means, e.Means) {
				t.Fatalf("entry %s changed in the round trip", k)
			}
		}
	})
}

func TestCurveCacheConcurrentUse(t *testing.T) {
	base := cacheFixture(t)
	base.Samples = 5
	cache := NewCurveCache()
	base.Cache = cache
	want := make([]*ErrorCurve, 4)
	for i := range want {
		cfg := base
		cfg.Cache = nil
		cfg.Seed = int64(i % 2)
		c, err := MonteCarloTransform(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = c
	}
	var wg sync.WaitGroup
	for i := range want {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := base
			cfg.Seed = int64(i % 2)
			c, err := MonteCarloTransform(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if !sameBits(c.Errs, want[i].Errs) {
				t.Errorf("goroutine %d: cached curve differs", i)
			}
		}(i)
	}
	wg.Wait()
	if h, m := cache.Stats(); h+m != len(want) {
		t.Fatalf("%d hits + %d misses, want %d lookups", h, m, len(want))
	}
}
