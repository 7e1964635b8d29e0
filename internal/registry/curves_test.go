package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nimbus/internal/journal"
	"nimbus/internal/market"
	"nimbus/internal/pricing"
	"nimbus/internal/telemetry"
)

// curveSpecs are a regression and a classification tenant: the
// classification offering prices two reporting losses, so recovery has
// more than one curve per tenant to serve from the cache.
func curveSpecs() []Spec {
	cls := cheapSpec("cls", 31)
	cls.Generator = "Simulated2"
	return []Spec{cheapSpec("reg", 30), cls}
}

// listAll lists specs into a registry at root and closes it, returning
// the number of Monte-Carlo curves the listing estimated.
func listAll(t *testing.T, root string, specs []Spec) uint64 {
	t.Helper()
	tel := telemetry.NewRegistry()
	r, err := Open(Config{Root: root, Sync: journal.SyncNever, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if _, err := r.List(s, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	hits := tel.Counter("nimbus_registry_curve_cache_hits_total").Value()
	misses := tel.Counter("nimbus_registry_curve_cache_misses_total").Value()
	if hits != 0 || misses == 0 {
		t.Fatalf("cold listing: %d hits, %d misses", hits, misses)
	}
	return misses
}

// reopen opens root with fresh telemetry and a captured log.
func reopen(t *testing.T, root string) (r *Registry, hits, misses uint64, log string) {
	t.Helper()
	tel := telemetry.NewRegistry()
	var mu sync.Mutex
	var sb strings.Builder
	r, err := Open(Config{Root: root, Sync: journal.SyncNever, Telemetry: tel, Logf: func(format string, args ...any) {
		mu.Lock()
		fmt.Fprintf(&sb, format+"\n", args...)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r,
		tel.Counter("nimbus_registry_curve_cache_hits_total").Value(),
		tel.Counter("nimbus_registry_curve_cache_misses_total").Value(),
		sb.String()
}

func TestReopenServesCurvesFromCache(t *testing.T) {
	root := t.TempDir()
	estimated := listAll(t, root, curveSpecs())
	if estimated != 3 { // squared for reg; logistic + zero-one for cls
		t.Fatalf("listing estimated %d curves, want 3", estimated)
	}
	_, hits, misses, log := reopen(t, root)
	if hits != estimated || misses != 0 {
		t.Fatalf("reopen: %d hits, %d misses; want %d hits, 0 misses", hits, misses, estimated)
	}
	for _, id := range []string{"reg", "cls"} {
		if !strings.Contains(log, "recovered market "+id) || !strings.Contains(log, "curves from cache") {
			t.Fatalf("recovery log does not report cached curves for %s:\n%s", id, log)
		}
	}
}

// offeringBits renders every number an offering serves or was priced
// from as raw bits, so two offerings compare bit for bit.
func offeringBits(t *testing.T, o *market.Offering) []uint64 {
	t.Helper()
	var bits []uint64
	add := func(vs ...float64) {
		for _, v := range vs {
			bits = append(bits, math.Float64bits(v))
		}
	}
	add(o.Optimal...)
	add(o.ExpectedRevenue)
	for _, p := range o.PriceFunc.Points() {
		add(p.X, p.Price)
	}
	for _, p := range o.BuyerPoints {
		add(p.X, p.Value, p.Mass)
	}
	for _, loss := range o.LossNames() {
		c, err := o.Curve(loss)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range c.Points() { // Error is ErrorCurve.Errs at each knot
			add(p.X, p.Error, p.Price)
		}
	}
	return bits
}

// marketBits collects offeringBits for every offering of every tenant.
func marketBits(t *testing.T, r *Registry) map[string][]uint64 {
	t.Helper()
	out := map[string][]uint64{}
	for _, id := range r.IDs() {
		m, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range m.Broker.Menu() {
			o, err := m.Broker.Offering(name)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = offeringBits(t, o)
		}
	}
	return out
}

func sameMarketBits(t *testing.T, what string, got, want map[string][]uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d offerings, want %d", what, len(got), len(want))
	}
	for name, w := range want {
		g := got[name]
		if len(g) != len(w) {
			t.Fatalf("%s: offering %s has %d numbers, want %d", what, name, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: offering %s differs at number %d: %#x vs %#x", what, name, i, g[i], w[i])
			}
		}
	}
}

func TestCachedCurvesAreBitIdentical(t *testing.T) {
	specs := curveSpecs()
	// Reference: a memory-only registry, which runs no cache at all.
	mem, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if _, err := mem.List(s, nil); err != nil {
			t.Fatal(err)
		}
	}
	want := marketBits(t, mem)
	mem.Close()

	root := t.TempDir()
	listAll(t, root, specs)
	r, hits, misses, _ := reopen(t, root)
	if misses != 0 || hits == 0 {
		t.Fatalf("warm reopen: %d hits, %d misses", hits, misses)
	}
	sameMarketBits(t, "recovered from cache", marketBits(t, r), want)
	r.Close()

	// Deleting the cache changes only the restart time.
	for _, s := range specs {
		if err := os.Remove(filepath.Join(root, s.ID, curvesFile)); err != nil {
			t.Fatal(err)
		}
	}
	r, hits, misses, _ = reopen(t, root)
	if hits != 0 || misses == 0 {
		t.Fatalf("reopen without cache files: %d hits, %d misses", hits, misses)
	}
	sameMarketBits(t, "recomputed after deletion", marketBits(t, r), want)
}

// copyFixture copies the casp and sim2 tenant directories of a testdata
// fixture (manifest.json and curves.json each) under root and returns
// their specs.
func copyFixture(t *testing.T, fixture, root string) []Spec {
	t.Helper()
	var specs []Spec
	for _, id := range []string{"casp", "sim2"} {
		if err := os.Mkdir(filepath.Join(root, id), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{manifestFile, curvesFile} {
			data, err := os.ReadFile(filepath.Join(fixture, id, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(root, id, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		spec, err := readManifest(filepath.Join(fixture, id))
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	return specs
}

// TestCurveCacheFromEarlierBuild reopens tenant directories whose
// manifest.json and curves.json were written by an earlier build of the
// exact Gaussian-mechanism curves (testdata/cached-tenants: a CASP
// regression tenant and a Simulated2 classification tenant, odd sample
// counts). The cache key does not cover the estimator's code, so every
// curve must be a hit, and the served markets must match what this build
// computes from scratch bit for bit: a change that moves an exact curve
// must bump the cache version.
func TestCurveCacheFromEarlierBuild(t *testing.T) {
	root := t.TempDir()
	specs := copyFixture(t, filepath.Join("testdata", "cached-tenants"), root)

	r, hits, misses, log := reopen(t, root)
	if hits != 3 || misses != 0 { // squared for casp; logistic + zero-one for sim2
		t.Fatalf("reopen of earlier-build caches: %d hits, %d misses; want 3, 0\n%s", hits, misses, log)
	}

	fresh, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for _, s := range specs {
		if _, err := fresh.List(s, nil); err != nil {
			t.Fatal(err)
		}
	}
	sameMarketBits(t, "earlier-build cache vs fresh estimate", marketBits(t, r), marketBits(t, fresh))
}

// TestCurveCacheUpgradeFromMonteCarlo reopens the same two tenants with
// the version-1 curves.json a build serving Monte-Carlo curves wrote
// (testdata/v1-tenants). Every entry must miss, each file must be
// rewritten at the current version, and the next reopen must be all hits.
func TestCurveCacheUpgradeFromMonteCarlo(t *testing.T) {
	root := t.TempDir()
	specs := copyFixture(t, filepath.Join("testdata", "v1-tenants"), root)

	r, hits, misses, log := reopen(t, root)
	if hits != 0 || misses != 3 || !strings.Contains(log, "curve cache version 1") {
		t.Fatalf("reopen of version-1 caches: %d hits, %d misses; want 0, 3\n%s", hits, misses, log)
	}
	r.Close()
	for _, s := range specs {
		data, err := os.ReadFile(filepath.Join(root, s.ID, curvesFile))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pricing.DecodeCurveCache(data); err != nil {
			t.Fatalf("tenant %s: rewritten cache: %v", s.ID, err)
		}
	}
	if _, hits, misses, log = reopen(t, root); hits != 3 || misses != 0 {
		t.Fatalf("reopen after the upgrade: %d hits, %d misses; want 3, 0\n%s", hits, misses, log)
	}
}

func TestDamagedCurveCacheRecomputes(t *testing.T) {
	specs := curveSpecs()
	root := t.TempDir()
	estimated := listAll(t, root, specs)
	valid, err := os.ReadFile(filepath.Join(root, "reg", curvesFile))
	if err != nil {
		t.Fatal(err)
	}
	var head struct{ Version int }
	if err := json.Unmarshal(valid, &head); err != nil {
		t.Fatal(err)
	}
	version := fmt.Sprintf(`"version":%d`, head.Version)
	for name, content := range map[string][]byte{
		"truncated":     valid[:len(valid)/2],
		"garbage":       []byte("\x00\xffnot a cache\n"),
		"wrong version": []byte(strings.Replace(string(valid), version, `"version":7`, 1)),
	} {
		t.Run(name, func(t *testing.T) {
			for _, s := range specs {
				if err := os.WriteFile(filepath.Join(root, s.ID, curvesFile), content, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			r, hits, misses, log := reopen(t, root)
			if hits != 0 || misses != estimated {
				t.Fatalf("damaged caches: %d hits, %d misses; want 0, %d", hits, misses, estimated)
			}
			if r.Count() != len(specs) || !strings.Contains(log, "curves recomputed") {
				t.Fatalf("recovered %d markets; log:\n%s", r.Count(), log)
			}
			r.Close()
			// The rewritten files are valid and serve the next restart.
			for _, s := range specs {
				data, err := os.ReadFile(filepath.Join(root, s.ID, curvesFile))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := pricing.DecodeCurveCache(data); err != nil {
					t.Fatalf("tenant %s: rewritten cache: %v", s.ID, err)
				}
			}
			_, hits, misses, _ = reopen(t, root)
			if hits != estimated || misses != 0 {
				t.Fatalf("after rewrite: %d hits, %d misses", hits, misses)
			}
		})
	}
}

func TestSpecLimits(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*Spec)
		ok   bool
	}{
		{"paper grid", func(s *Spec) { s.Grid = 100 }, true},
		{"paper samples", func(s *Spec) { s.Samples = 2000 }, true},
		{"10M rows", func(s *Spec) { s.Rows = 10_000_000 }, true},
		{"grid at cap", func(s *Spec) { s.Grid = MaxGrid }, true},
		{"samples at cap", func(s *Spec) { s.Samples = MaxSamples }, true},
		{"rows at cap", func(s *Spec) { s.Rows = MaxRows }, true},
		{"grid over cap", func(s *Spec) { s.Grid = MaxGrid + 1 }, false},
		{"samples over cap", func(s *Spec) { s.Samples = MaxSamples + 1 }, false},
		{"rows over cap", func(s *Spec) { s.Rows = MaxRows + 1 }, false},
		{"huge samples", func(s *Spec) { s.Samples = math.MaxInt }, false},
	} {
		s := cheapSpec("limits", 1)
		tc.edit(&s)
		_, err := s.normalize()
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrSpecLimit) {
			t.Errorf("%s: got %v, want ErrSpecLimit", tc.name, err)
		}
	}
}

// BenchmarkRegistryReopen times Open on a root of two tenants with and
// without their curves.json caches: "cold" reruns every Monte-Carlo
// estimate, "memoized" serves them from the cache and keeps only the
// dataset, fit and price optimization.
func BenchmarkRegistryReopen(b *testing.B) {
	root := b.TempDir()
	specs := []Spec{cheapSpec("bench-reg", 1), cheapSpec("bench-cls", 2)}
	specs[1].Generator = "Simulated2"
	for i := range specs {
		specs[i].Rows, specs[i].Grid, specs[i].Samples = 500, 20, 200
	}
	r, err := Open(Config{Root: root, Sync: journal.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range specs {
		if _, err := r.List(s, nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		b.Fatal(err)
	}
	saved := map[string][]byte{}
	for _, s := range specs {
		data, err := os.ReadFile(filepath.Join(root, s.ID, curvesFile))
		if err != nil {
			b.Fatal(err)
		}
		saved[s.ID] = data
	}
	for _, mode := range []string{"cold", "memoized"} {
		b.Run(mode, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for id, data := range saved {
					path := filepath.Join(root, id, curvesFile)
					var err error
					if mode == "cold" {
						err = os.Remove(path)
					} else {
						err = os.WriteFile(path, data, 0o644)
					}
					if err != nil && !errors.Is(err, os.ErrNotExist) {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				r, err := Open(Config{Root: root, Sync: journal.SyncNever})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := r.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
