package pricing

import (
	"fmt"
	"math"

	"nimbus/internal/dataset"
	"nimbus/internal/ml"
	"nimbus/internal/noise"
	"nimbus/internal/vec"
)

// GaussianTransform computes the error curve of the Gaussian mechanism
// exactly. A noisy instance is h* + w with w ~ N(0, (δ/d)·I), so its
// margin on a row x is one-dimensional Gaussian: mean μ = h*ᵀx, standard
// deviation σ = ‖x‖·√(δ/d). Every reporting loss ml defines therefore has
// a closed-form (or, for the logistic loss, fixed-quadrature) expectation
// per row, and no d-dimensional sampling is needed:
//
//	squared   ((μ − y)² + σ²)/2
//	zero-one  Φ(−yμ/σ), and at σ = 0 the ml.ZeroOneLoss rule (m ≤ 0 → −1)
//	hinge     tΦ(t/s) + sφ(t/s),  t = 1 − yμ,  s = |y|σ
//	logistic  E log(1 + e^{−y(μ + σZ)}) by an 8-node Gauss–Hermite rule
//
// plus Reg·(‖h*‖² + δ) for a regularized loss. A zero-one row whose label
// is not ±1 (regression data) never matches the ±1 prediction, so it
// counts 1, as in ml.ZeroOneLoss. One O(n·d) pass over cfg.Data gives μ
// and ‖x‖² for every row; each grid point then costs O(n) scalar work
// (eight times that for the logistic loss).
//
// cfg.Mechanism must be nil or noise.Gaussian and cfg.Loss one of the four
// ml losses (GaussianClosedForm); cfg.Samples and cfg.Seed are not read.
// The cache and the isotonic projection are MonteCarloTransform's.
func GaussianTransform(cfg TransformConfig) (*ErrorCurve, error) {
	if cfg.Mechanism != nil {
		if _, ok := cfg.Mechanism.(noise.Gaussian); !ok {
			return nil, fmt.Errorf("pricing: GaussianTransform under the %s mechanism", cfg.Mechanism.Name())
		}
	}
	if cfg.Loss != nil && !GaussianClosedForm(cfg.Loss) {
		return nil, fmt.Errorf("pricing: no closed-form Gaussian error curve for loss %T", cfg.Loss)
	}
	return transform(cfg, gaussianTag, gaussianMeans)
}

// GaussianClosedForm reports whether GaussianTransform computes loss's
// curve: true for the squared, logistic, hinge and zero-one losses of
// package ml, false for any other ml.Loss implementation, whose curve
// only MonteCarloTransform can estimate.
func GaussianClosedForm(loss ml.Loss) bool {
	_, ok := exactLossOf(loss)
	return ok
}

// exactLoss is a reporting loss in the form GaussianTransform evaluates:
// the expected loss of one row whose margin is N(m, s²), and the loss's L2
// coefficient.
type exactLoss struct {
	row func(m, s, y float64) float64
	reg float64
}

func exactLossOf(loss ml.Loss) (exactLoss, bool) {
	switch l := loss.(type) {
	case ml.SquaredLoss:
		return exactLoss{squaredRow, l.Reg}, true
	case ml.LogisticLoss:
		return exactLoss{logisticRow, l.Reg}, true
	case ml.HingeLoss:
		return exactLoss{hingeRow, l.Reg}, true
	case ml.ZeroOneLoss:
		return exactLoss{zeroOneRow, 0}, true
	}
	return exactLoss{}, false
}

// gaussianMeans is GaussianTransform's estimator: the exact expected loss
// at every grid point, before any projection. cfg carries its defaults and
// a loss GaussianClosedForm accepts.
//
//lint:declassify each mean is an averaged expected loss, which reveals model quality, not the coordinates of h*
func gaussianMeans(cfg TransformConfig) []float64 {
	loss, _ := exactLossOf(cfg.Loss)
	data := cfg.Data
	n, d := data.N(), data.D()
	mu := make([]float64, n)
	sq := make([]float64, n)
	rowMoments(cfg.Optimal, data, mu, sq)
	norm := vec.SqNorm2(cfg.Optimal)
	errs := make([]float64, len(cfg.Xs))
	forEachPoint(len(cfg.Xs), func(i int) {
		// Per-coordinate variance δ/d; a dataset without features gets no
		// noise, as noise.Gaussian adds none.
		var v float64
		if d > 0 {
			v = 1 / cfg.Xs[i] / float64(d)
		}
		var sum float64
		for r, y := range data.Target {
			sum += loss.row(mu[r], math.Sqrt(v*sq[r]), y)
		}
		errs[i] = sum/float64(n) + loss.reg*(norm+v*float64(d))
	})
	return errs
}

// rowMoments sets mu[r] to the margin wᵀx_r and sq[r] to ‖x_r‖² for every
// row of data.
func rowMoments(w []float64, data *dataset.Dataset, mu, sq []float64) {
	for r := range mu {
		x := data.Features.Row(r)
		mu[r] = vec.Dot(w, x)
		sq[r] = vec.SqNorm2(x)
	}
}

func squaredRow(m, s, y float64) float64 {
	r := m - y
	return (r*r + s*s) / 2
}

// zeroOneRow is P(sign(M) ≠ y) for M ~ N(m, s²), where sign predicts +1
// only for a positive margin.
func zeroOneRow(m, s, y float64) float64 {
	switch {
	//lint:ignore no-float-eq ml.ZeroOneLoss compares its ±1 prediction with y exactly; an epsilon would count near-±1 labels it counts as errors
	case y != 1 && y != -1:
		return 1
	case s > 0:
		return normalCDF(-y * m / s)
	case (m > 0) == (y > 0):
		return 0
	}
	return 1
}

// hingeRow is E max(0, T) for T = 1 − y·margin ~ N(t, s²): the Gaussian's
// positive part.
func hingeRow(m, s, y float64) float64 {
	t := 1 - y*m
	s *= math.Abs(y)
	if s <= 0 {
		return max(0, t)
	}
	z := t / s
	return t*normalCDF(z) + s*normalPDF(z)
}

// logisticRow is E log(1 + e^Z) for Z = −y·margin ~ N(a, s²), by the
// 8-node Gauss–Hermite rule below.
func logisticRow(m, s, y float64) float64 {
	a := -y * m
	s *= math.Abs(y)
	f := func(x float64) float64 { return ml.Log1pExp(a+s*x) + ml.Log1pExp(a-s*x) }
	return hermiteW1*f(hermiteX1) + hermiteW2*f(hermiteX2) + hermiteW3*f(hermiteX3) + hermiteW4*f(hermiteX4)
}

// The 8-node Gauss–Hermite rule, rescaled to the standard normal: for
// Z ~ N(0, 1),
//
//	E f(Z) ≈ Σ_k hermiteWk·(f(hermiteXk) + f(−hermiteXk)),
//
// exact for polynomials up to degree 15. hermiteXk is √2·x_k and hermiteWk
// is w_k/√π for the physicists' rule's positive nodes x_k and weights w_k.
const (
	hermiteX1 = math.Sqrt2 * 0.38118699020732216
	hermiteX2 = math.Sqrt2 * 1.1571937124467802
	hermiteX3 = math.Sqrt2 * 1.9816567566958427
	hermiteX4 = math.Sqrt2 * 2.9306374202572441
	hermiteW1 = 0.66114701255824104 / math.SqrtPi
	hermiteW2 = 0.20780232581489172 / math.SqrtPi
	hermiteW3 = 0.01707798300741346 / math.SqrtPi
	hermiteW4 = 0.00019960407221136764 / math.SqrtPi
)

// normalCDF is the standard normal distribution function Φ.
func normalCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

// normalPDF is the standard normal density φ.
func normalPDF(z float64) float64 { return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi) }
