package pricing

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"nimbus/internal/dataset"
	"nimbus/internal/isotone"
	"nimbus/internal/ml"
	"nimbus/internal/noise"
	"nimbus/internal/rng"
)

// ErrorCurve is the error transformation of Figure 2: the expected
// reporting error E[ε(h_δ, D)] as a function of the quality knob x = 1/δ.
// For strictly convex ε the curve is strictly decreasing (Theorem 4), which
// makes it invertible — the error-inverse φ of Theorem 6.
type ErrorCurve struct {
	// LossName records which ε the curve was computed for.
	LossName string
	// Xs is the increasing quality grid (x = 1/NCP).
	Xs []float64
	// Errs is the non-increasing expected error at each grid point.
	Errs []float64
}

// ErrUnattainable is wrapped by XForError when the requested error budget is
// below the best error any offered version achieves.
var ErrUnattainable = errors.New("pricing: error budget unattainable")

// newErrorCurve validates grid shape and enforces monotonicity.
func newErrorCurve(lossName string, xs, errs []float64) (*ErrorCurve, error) {
	if len(xs) < 2 {
		return nil, fmt.Errorf("pricing: error curve needs ≥ 2 grid points, got %d", len(xs))
	}
	if len(xs) != len(errs) {
		return nil, fmt.Errorf("pricing: %d grid points but %d errors", len(xs), len(errs))
	}
	if !sort.Float64sAreSorted(xs) {
		return nil, fmt.Errorf("pricing: quality grid must be increasing")
	}
	for i, x := range xs {
		if x <= 0 {
			return nil, fmt.Errorf("pricing: quality grid point %d is %v, must be positive", i, x)
		}
		// The grid is already known to be sorted, so a point that fails to
		// strictly exceed its predecessor is a duplicate — no bitwise float
		// equality needed.
		if i > 0 && x <= xs[i-1] {
			return nil, fmt.Errorf("pricing: duplicate quality grid point %v", x)
		}
	}
	// Project onto the non-increasing cone so the curve is a valid
	// transformation. Monte-Carlo estimates fluctuate, and the exact
	// zero-one expectation need not be monotone; for a convex loss the
	// exact curve already is (Theorem 4), and the projection leaves it be.
	smooth, err := isotone.RegressAntitonic(errs, nil)
	if err != nil {
		return nil, err
	}
	return &ErrorCurve{LossName: lossName, Xs: append([]float64(nil), xs...), Errs: smooth}, nil
}

// Err interpolates the expected error at quality x, clamping outside the
// grid to the boundary values.
func (c *ErrorCurve) Err(x float64) float64 {
	if x <= c.Xs[0] {
		return c.Errs[0]
	}
	last := len(c.Xs) - 1
	if x >= c.Xs[last] {
		return c.Errs[last]
	}
	// SearchFloat64s returns the first index with Xs[i] >= x, so x >= Xs[i]
	// can only hold on an exact grid hit: resolve it by grid index rather
	// than bitwise float equality, which keeps knot lookups exact without
	// an equality comparison the Monte-Carlo jitter could invalidate.
	i := sort.SearchFloat64s(c.Xs, x)
	if x >= c.Xs[i] {
		return c.Errs[i]
	}
	t := (x - c.Xs[i-1]) / (c.Xs[i] - c.Xs[i-1])
	return c.Errs[i-1] + t*(c.Errs[i]-c.Errs[i-1])
}

// XForError is the error-inverse φ: the smallest (cheapest) quality x on
// the curve whose expected error is at most target. Budgets looser than the
// worst offered error clamp to the lowest quality; budgets tighter than the
// best achievable error return ErrUnattainable.
func (c *ErrorCurve) XForError(target float64) (float64, error) {
	last := len(c.Xs) - 1
	if target < c.Errs[last]-1e-12 {
		//lint:allocok refusal path: the budget is unattainable and the request is rejected
		return 0, fmt.Errorf("pricing: best offered error is %v, budget %v: %w", c.Errs[last], target, ErrUnattainable)
	}
	if target >= c.Errs[0] {
		return c.Xs[0], nil
	}
	// Errs is non-increasing; find the first index with Errs[i] ≤ target.
	// Hand-rolled binary search — a sort.Search closure would allocate on
	// every error-budget quote, and this sits on the broker's buy path.
	i, hi := 0, len(c.Errs)
	for i < hi {
		mid := int(uint(i+hi) >> 1)
		if c.Errs[mid] > target {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	// A target in the 1e-12 tolerance band below the best error matches no
	// point; it buys the best offered version.
	if i == len(c.Errs) {
		return c.Xs[last], nil
	}
	// Interpolate within the bracketing segment for a continuous inverse.
	// Errs is non-increasing, so a segment that is not strictly decreasing
	// is flat; an ordered comparison detects it without float equality (and
	// also guards the division below against a zero denominator).
	e0, e1 := c.Errs[i-1], c.Errs[i]
	if e0 <= e1 {
		return c.Xs[i], nil
	}
	t := (e0 - target) / (e0 - e1)
	return c.Xs[i-1] + t*(c.Xs[i]-c.Xs[i-1]), nil
}

// TransformConfig describes an error transformation run: for each grid
// quality x, the expected reporting loss of the noisy instances at
// δ = 1/x. MonteCarloTransform estimates it by drawing Samples instances
// per grid point, reproducing the paper's Figure 6 methodology (2000
// random models per NCP); GaussianTransform computes it exactly for the
// Gaussian mechanism and reads neither Samples nor Seed.
type TransformConfig struct {
	// Optimal is the trained optimal model instance h*.
	//
	//lint:source TransformConfig.Optimal
	Optimal []float64
	// Loss is the reporting error function ε.
	Loss ml.Loss
	// Data is the dataset ε is evaluated on (test set by convention).
	Data *dataset.Dataset
	// Mechanism injects the noise; nil means the Gaussian mechanism.
	Mechanism noise.Mechanism
	// Xs is the quality grid; empty means DefaultGrid(100).
	Xs []float64
	// Samples per grid point; 0 means 2000 (the paper's setting).
	Samples int
	// Seed drives the Monte-Carlo stream.
	Seed int64
	// Cache, when non-nil, memoizes the raw per-grid-point means under a
	// digest of the estimator and every field above it reads: a hit skips
	// the computation, a miss runs it and stores the result. The isotonic
	// projection runs either way, so a hit yields a bit-identical curve.
	Cache *CurveCache
}

// DefaultGrid returns the paper's 1/NCP grid: n evenly spaced qualities
// from 1 to 100.
func DefaultGrid(n int) []float64 {
	if n < 2 {
		n = 2
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1 + 99*float64(i)/float64(n-1)
	}
	return xs
}

// MonteCarloTransform estimates the error curve empirically. It works for
// any reporting loss, including the non-convex zero-one error, and any
// mechanism. With a Cache, a run whose inputs were estimated before reuses
// that estimate.
func MonteCarloTransform(cfg TransformConfig) (*ErrorCurve, error) {
	return transform(cfg, monteCarloTag, monteCarloMeans)
}

// transform is the path every estimator shares: validate cfg and fill its
// defaults, take the raw per-grid means from cfg.Cache under the content
// key for estimator or compute them with means (storing them on a miss),
// and project them onto a monotone curve.
func transform(cfg TransformConfig, estimator string, means func(TransformConfig) []float64) (*ErrorCurve, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.Cache == nil {
		return newErrorCurve(cfg.Loss.Name(), cfg.Xs, means(cfg))
	}
	k := contentKey(cfg, estimator)
	m, ok := cfg.Cache.lookup(k, cfg.Xs)
	if !ok {
		m = means(cfg)
		cfg.Cache.store(k, cfg.Xs, m)
	}
	return newErrorCurve(cfg.Loss.Name(), cfg.Xs, m)
}

// withDefaults validates cfg and fills the documented defaults.
func (cfg TransformConfig) withDefaults() (TransformConfig, error) {
	if cfg.Optimal == nil {
		return cfg, errors.New("pricing: TransformConfig.Optimal is nil")
	}
	if cfg.Loss == nil {
		return cfg, errors.New("pricing: TransformConfig.Loss is nil")
	}
	if cfg.Data == nil {
		return cfg, errors.New("pricing: TransformConfig.Data is nil")
	}
	if len(cfg.Optimal) != cfg.Data.D() {
		return cfg, fmt.Errorf("pricing: TransformConfig.Optimal has %d coordinates, Data has %d features", len(cfg.Optimal), cfg.Data.D())
	}
	if cfg.Samples < 0 {
		return cfg, fmt.Errorf("pricing: TransformConfig.Samples is %d, must not be negative", cfg.Samples)
	}
	if cfg.Mechanism == nil {
		cfg.Mechanism = noise.Gaussian{}
	}
	if len(cfg.Xs) == 0 {
		cfg.Xs = DefaultGrid(100)
	}
	if cfg.Samples == 0 {
		cfg.Samples = 2000
	}
	for _, x := range cfg.Xs {
		if x <= 0 {
			return cfg, fmt.Errorf("pricing: quality grid point %v must be positive", x)
		}
	}
	return cfg, nil
}

// evalBlock is how many noisy instances monteCarloMeans scores per pass
// over the evaluation set (ml.Loss.EvalBatch).
const evalBlock = 4

// monteCarloMeans runs the simulation: for each grid point, the mean
// reporting loss over cfg.Samples noisy instances, before any projection.
//
// Each grid point derives its own noise stream from the base seed, so the
// results are deterministic and independent of GOMAXPROCS. Within a point,
// instances are drawn in stream order and scored evalBlock at a time; the
// losses are still added to the sum one by one in draw order, so the means
// do not depend on the block width either.
func monteCarloMeans(cfg TransformConfig) []float64 {
	xs := cfg.Xs
	errs := make([]float64, len(xs))
	forEachPoint(len(xs), func(i int) {
		noisy := make([][]float64, evalBlock)
		losses := make([]float64, evalBlock)
		src := rng.New(cfg.Seed + 1000003*int64(i))
		delta := 1 / xs[i]
		var sum float64
		for s := 0; s < cfg.Samples; s += evalBlock {
			k := min(evalBlock, cfg.Samples-s)
			for j := range noisy[:k] {
				noisy[j] = cfg.Mechanism.Perturb(cfg.Optimal, delta, src)
			}
			cfg.Loss.EvalBatch(noisy[:k], cfg.Data, losses[:k])
			for _, l := range losses[:k] {
				sum += l
			}
		}
		errs[i] = sum / float64(cfg.Samples)
	})
	return errs
}

// forEachPoint calls point(i) for every grid index i below n, spread over
// GOMAXPROCS goroutines: the grid points of a curve are independent, and
// evaluating them is nearly all of a cold curve's cost. It returns once
// every call has.
func forEachPoint(n int, point func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				point(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// ExactCurve wraps an analytically-known expected-error sequence in an
// ErrorCurve. Callers with closed-form error laws (the linear-regression
// squared loss, the Example 1 aggregate mechanisms) use this instead of
// Monte Carlo; the sequence must be over an increasing positive grid and is
// projected to monotone like every other curve.
func ExactCurve(lossName string, xs, errs []float64) (*ErrorCurve, error) {
	return newErrorCurve(lossName, xs, errs)
}

// SquaredToOptimalCurve is the exact curve for the paper's ε_s(h, D) =
// ‖h − h*‖² reporting error, for which E[ε_s] = δ = 1/x (Lemma 3).
func SquaredToOptimalCurve(xs []float64) (*ErrorCurve, error) {
	if len(xs) == 0 {
		xs = DefaultGrid(100)
	}
	errs := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			return nil, fmt.Errorf("pricing: quality grid point %v must be positive", x)
		}
		errs[i] = 1 / x
	}
	return newErrorCurve("squared-to-optimal", xs, errs)
}
