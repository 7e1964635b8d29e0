package pricing

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// CurveCache memoizes error transformations: the raw per-grid-point means
// MonteCarloTransform or GaussianTransform computes before the isotonic
// projection, keyed by a digest of the estimator and every input it
// reads. The paper's broker computes the transformation once, at listing
// time; a cache that outlives the process lets a restarted broker relist
// without recomputing it. A hit serves the stored means and a miss
// computes and stores them; because the key covers every input and the
// projection is deterministic, a hit yields a bit-identical curve.
//
// The zero value is not usable; create caches with NewCurveCache or
// DecodeCurveCache. A CurveCache is safe for concurrent use.
type CurveCache struct {
	mu     sync.Mutex
	loaded map[string]cacheEntry // guarded by mu; decoded from a previous Encode
	kept   map[string]cacheEntry // guarded by mu; served or stored by this cache
	hits   int                   // guarded by mu
	misses int                   // guarded by mu
}

// cacheEntry is one memoized estimate: the grid it was computed on and the
// raw mean loss at each grid point.
type cacheEntry struct {
	Key   string    `json:"key"`
	Xs    []float64 `json:"xs"`
	Means []float64 `json:"means"`
}

// cacheFile is the encoded form of a CurveCache.
type cacheFile struct {
	Version int          `json:"version"`
	Curves  []cacheEntry `json:"curves"`
}

// cacheVersion is the encoded format. It is also hashed into every key
// (see contentKey), so bumping it when an estimator or the key layout
// changes turns every stored entry into a miss. Version 2 added the
// estimator tag and the exact Gaussian-mechanism curves; a version-1 file
// decodes as an error and its tenant recomputes once.
const cacheVersion = 2

// NewCurveCache returns an empty cache.
func NewCurveCache() *CurveCache {
	return &CurveCache{loaded: map[string]cacheEntry{}, kept: map[string]cacheEntry{}}
}

// DecodeCurveCache parses what Encode wrote. Any damage — bad JSON, another
// format version, a malformed key, a grid and mean vector of different
// lengths, a non-finite value, a duplicate key — rejects the whole input:
// the cache only ever saves a recompute, so a caller that gets an error
// starts from NewCurveCache.
func DecodeCurveCache(data []byte) (*CurveCache, error) {
	var f cacheFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("pricing: decoding curve cache: %w", err)
	}
	if f.Version != cacheVersion {
		return nil, fmt.Errorf("pricing: curve cache version %d, this build reads %d", f.Version, cacheVersion)
	}
	loaded := make(map[string]cacheEntry, len(f.Curves))
	for i, e := range f.Curves {
		if err := e.validate(); err != nil {
			return nil, fmt.Errorf("pricing: curve cache entry %d: %w", i, err)
		}
		if _, dup := loaded[e.Key]; dup {
			return nil, fmt.Errorf("pricing: curve cache entry %d: duplicate key %s", i, e.Key)
		}
		loaded[e.Key] = e
	}
	return &CurveCache{loaded: loaded, kept: map[string]cacheEntry{}}, nil
}

func (e cacheEntry) validate() error {
	if len(e.Key) != 2*sha256.Size {
		return fmt.Errorf("key %q is not a SHA-256 digest", e.Key)
	}
	if _, err := hex.DecodeString(e.Key); err != nil {
		return fmt.Errorf("key %q: %w", e.Key, err)
	}
	if len(e.Xs) == 0 || len(e.Xs) != len(e.Means) {
		return fmt.Errorf("%d grid points but %d means", len(e.Xs), len(e.Means))
	}
	if !allFinite(e.Xs) || !allFinite(e.Means) {
		return fmt.Errorf("non-finite value")
	}
	return nil
}

// Encode writes the entries this cache served or stored, sorted by key.
// Entries decoded but never looked up are dropped, so a cache rewritten
// after every use holds exactly the curves its owner still lists.
func (c *CurveCache) Encode(w io.Writer) error {
	c.mu.Lock()
	f := cacheFile{Version: cacheVersion, Curves: make([]cacheEntry, 0, len(c.kept))}
	for _, e := range c.kept {
		f.Curves = append(f.Curves, e)
	}
	c.mu.Unlock()
	sort.Slice(f.Curves, func(i, j int) bool { return f.Curves[i].Key < f.Curves[j].Key })
	return json.NewEncoder(w).Encode(f)
}

// Stats reports how many lookups were served from the cache and how many
// had to compute their curve.
func (c *CurveCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Dirty reports whether Encode would write something other than what was
// decoded: an estimate was computed, or a decoded entry went unused.
func (c *CurveCache) Dirty() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses > 0 || len(c.kept) != len(c.loaded)
}

// lookup returns a copy of the means stored under key, counting a hit, or
// reports false, counting a miss. An entry must also carry exactly the
// requested grid, so a hit always has one mean per grid point.
func (c *CurveCache) lookup(key string, xs []float64) ([]float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.kept[key]
	if !ok {
		e, ok = c.loaded[key]
	}
	if !ok || !sameBits(e.Xs, xs) {
		c.misses++
		return nil, false
	}
	c.kept[key] = e
	c.hits++
	return append([]float64(nil), e.Means...), true
}

// store records freshly computed means. Non-finite estimates are not kept:
// JSON cannot carry them, so they are recomputed on every use instead.
func (c *CurveCache) store(key string, xs, means []float64) {
	if !allFinite(means) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.kept[key] = cacheEntry{
		Key:   key,
		Xs:    append([]float64(nil), xs...),
		Means: append([]float64(nil), means...),
	}
}

// Estimator tags, hashed into every key so two estimators of the same
// curve never share an entry.
const (
	monteCarloTag = "monte-carlo"
	gaussianTag   = "gaussian-exact"
)

// contentKey is SHA-256 over the format version, the estimator tag, the
// loss type and parameters, the mechanism, the bits of h*, the grid and
// the evaluation set, and — for the Monte-Carlo only — the sample count
// and seed. cfg must already carry its defaults
// (TransformConfig.withDefaults), so an implicit default and the same
// value spelled out share a key. Loss and mechanism parameters are hashed
// in their %#v rendering, which is exact for the value types the ml and
// noise packages define; a type whose rendering holds pointers simply
// never hits.
//
//lint:declassify a SHA-256 digest of h* reveals none of its coordinates
func contentKey(cfg TransformConfig, estimator string) string {
	h := sha256.New()
	var buf []byte
	flush := func() {
		//lint:ignore no-dropped-error hash.Hash's Write never returns an error
		h.Write(buf)
		buf = buf[:0]
	}
	str := func(s string) {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s)))
		buf = append(buf, s...)
		flush()
	}
	num := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	floats := func(vs []float64) {
		num(int64(len(vs)))
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			if len(buf) >= 4096 {
				flush()
			}
		}
		flush()
	}
	str(fmt.Sprintf("nimbus/pricing.curveKey v%d", cacheVersion))
	str(estimator)
	str(fmt.Sprintf("%T %#v", cfg.Loss, cfg.Loss))
	str(cfg.Mechanism.Name())
	str(fmt.Sprintf("%T %#v", cfg.Mechanism, cfg.Mechanism))
	floats(cfg.Optimal)
	floats(cfg.Xs)
	num(int64(cfg.Data.Features.Rows))
	num(int64(cfg.Data.Features.Cols))
	floats(cfg.Data.Features.Data)
	floats(cfg.Data.Target)
	if estimator == monteCarloTag {
		num(int64(cfg.Samples))
		num(cfg.Seed)
	}
	flush()
	return hex.EncodeToString(h.Sum(nil))
}

func allFinite(vs []float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// sameBits compares two float slices bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
