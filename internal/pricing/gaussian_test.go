package pricing

import (
	"math"
	"sort"
	"testing"

	"nimbus/internal/dataset"
	"nimbus/internal/ml"
	"nimbus/internal/noise"
	"nimbus/internal/rng"
	"nimbus/internal/vec"
)

// oracleCase is one dataset the exact curves are checked on, with its h*
// and the reporting losses that apply to its labels.
type oracleCase struct {
	name    string
	data    *dataset.Dataset
	optimal []float64
	losses  []ml.Loss
}

// oracleCases are Simulated2 (d = 20, ±1 labels), CASP (d = 9, real
// labels, on which every zero-one row counts 1) and CASP with its labels
// thresholded at their median, so the zero-one loss's ±1 path is checked
// on CASP's features too.
func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	all := []ml.Loss{ml.SquaredLoss{Reg: 1e-3}, ml.LogisticLoss{Reg: 1e-3}, ml.HingeLoss{Reg: 1e-3}, ml.ZeroOneLoss{}}
	cls, clsW := clsFixture(t)
	reg, regW := regFixture(t)
	ys := append([]float64(nil), reg.Test.Target...)
	sorted := append([]float64(nil), ys...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	for i, y := range ys {
		ys[i] = 1
		if y < median {
			ys[i] = -1
		}
	}
	signs, err := dataset.New("CASP-sign", dataset.Classification, reg.Test.Features, ys)
	if err != nil {
		t.Fatal(err)
	}
	return []oracleCase{
		{"Simulated2", cls.Test, clsW, all},
		{"CASP", reg.Test, regW, all},
		{"CASP-sign", signs, regW, all},
	}
}

// TestGaussianTransformMatchesMonteCarlo is the exact transform's oracle:
// at every grid point, for every loss, the exact mean lies within four
// standard errors of a 2000-sample Monte-Carlo estimate, the standard
// error taken from the samples themselves.
func TestGaussianTransformMatchesMonteCarlo(t *testing.T) {
	const samples = 2000
	xs := []float64{1, 4, 20}
	for _, c := range oracleCases(t) {
		for _, loss := range c.losses {
			exact := gaussianMeans(TransformConfig{Optimal: c.optimal, Loss: loss, Data: c.data, Xs: xs})
			for i, x := range xs {
				src := rng.New(int64(1000*i) + 17)
				var sum, sumSq float64
				for s := 0; s < samples; s++ {
					l := loss.Eval(noise.Gaussian{}.Perturb(c.optimal, 1/x, src), c.data)
					sum += l
					sumSq += l * l
				}
				mean := sum / samples
				se := math.Sqrt(max(0, sumSq/samples-mean*mean) / (samples - 1))
				if dev := math.Abs(exact[i] - mean); dev > 4*se {
					t.Errorf("%s/%s x=%v: exact %.6g, Monte-Carlo %.6g ± %.2g (%.1f standard errors)",
						c.name, loss.Name(), x, exact[i], mean, se, dev/se)
				}
			}
		}
	}
}

// TestConvexExactCurvesNeedNoProjection checks Theorem 4 on the exact
// curves: for the convex losses the expected error already falls with
// quality, so the isotonic projection returns the raw means bit for bit.
func TestConvexExactCurvesNeedNoProjection(t *testing.T) {
	xs := DefaultGrid(50)
	for _, c := range oracleCases(t) {
		for _, loss := range c.losses {
			if _, ok := loss.(ml.ZeroOneLoss); ok {
				continue
			}
			cfg := TransformConfig{Optimal: c.optimal, Loss: loss, Data: c.data, Xs: xs}
			curve, err := GaussianTransform(cfg)
			if err != nil {
				t.Fatal(err)
			}
			raw := gaussianMeans(cfg)
			if !sameBits(raw, curve.Errs) {
				t.Errorf("%s/%s: the projection moved an exact convex curve:\nraw  %v\ncurve %v", c.name, loss.Name(), raw, curve.Errs)
			}
			if !(raw[len(raw)-1] < raw[0]) {
				t.Errorf("%s/%s: error does not fall with quality: %v", c.name, loss.Name(), raw)
			}
		}
	}
}

// TestLogisticQuadrature checks the fixed 8-node rule against a 64-node
// Gauss–Hermite rule computed here: within 1e-7 on every classification
// market nimbusd seeds, at its seeding shape (grid 50). It also checks the
// rule's constants against the 8-node rule the same routine computes.
func TestLogisticQuadrature(t *testing.T) {
	x8, w8 := gaussHermite(8)
	got := [][2]float64{{hermiteX1, hermiteW1}, {hermiteX2, hermiteW2}, {hermiteX3, hermiteW3}, {hermiteX4, hermiteW4}}
	for k, g := range got {
		// gaussHermite orders nodes from the largest down.
		wantX, wantW := math.Sqrt2*x8[3-k], w8[3-k]/math.SqrtPi
		if math.Abs(g[0]-wantX) > 1e-14 || math.Abs(g[1]-wantW) > 1e-15 {
			t.Errorf("node %d: (%v, %v), want (%v, %v)", k+1, g[0], g[1], wantX, wantW)
		}
	}

	x64, w64 := gaussHermite(64)
	xs := DefaultGrid(50)
	for i, name := range []string{"Simulated2", "CovType", "SUSY"} {
		// nimbusd seeds these as the 4th to 6th markets of seed 42.
		pair, _, optimal := listingFixture(t, name, 45+int64(i))
		data := pair.Test
		exact := gaussianMeans(TransformConfig{Optimal: optimal, Loss: ml.LogisticLoss{}, Data: data, Xs: xs})
		n, d := data.N(), data.D()
		for i, x := range xs {
			v := 1 / x / float64(d)
			var sum float64
			for r := 0; r < n; r++ {
				row, y := data.Row(r)
				a := -y * vec.Dot(optimal, row)
				s := math.Sqrt(v * vec.SqNorm2(row))
				for k, node := range x64 {
					sum += w64[k] / math.SqrtPi * ml.Log1pExp(a+math.Sqrt2*s*node)
				}
			}
			if ref := sum / float64(n); math.Abs(exact[i]-ref) > 1e-7 {
				t.Errorf("%s x=%v: 8-node %.12g, 64-node %.12g (diff %.2g)", name, x, exact[i], ref, exact[i]-ref)
			}
		}
	}
}

// gaussHermite returns the n-node physicists' Gauss–Hermite rule, nodes
// from the largest down, by Newton's method on the orthonormal Hermite
// recurrence.
func gaussHermite(n int) (nodes, weights []float64) {
	nodes = make([]float64, n)
	weights = make([]float64, n)
	pim4 := math.Pow(math.Pi, -0.25)
	var z float64
	for i := 0; i < (n+1)/2; i++ {
		switch i { // initial guesses for the i-th largest root
		case 0:
			z = math.Sqrt(float64(2*n+1)) - 1.85575*math.Pow(float64(2*n+1), -0.16667)
		case 1:
			z -= 1.14 * math.Pow(float64(n), 0.426) / z
		case 2:
			z = 1.86*z - 0.86*nodes[0]
		case 3:
			z = 1.91*z - 0.91*nodes[1]
		default:
			z = 2*z - nodes[i-2]
		}
		var deriv float64
		for it := 0; it < 100; it++ {
			p1, p2 := pim4, 0.0
			for j := 1; j <= n; j++ {
				p3 := p2
				p2 = p1
				p1 = z*math.Sqrt(2/float64(j))*p2 - math.Sqrt(float64(j-1)/float64(j))*p3
			}
			deriv = math.Sqrt(2*float64(n)) * p2
			step := p1 / deriv
			z -= step
			if math.Abs(step) <= 1e-15 {
				break
			}
		}
		nodes[i], nodes[n-1-i] = z, -z
		weights[i] = 2 / (deriv * deriv)
		weights[n-1-i] = weights[i]
	}
	return nodes, weights
}

// TestZeroOneNoiselessRow checks the σ = 0 convention: a row with no
// features has margin 0 under any noise, which ml.ZeroOneLoss predicts as
// −1, so it adds exactly 1 to the error sum when labelled +1 and 0 when
// labelled −1.
func TestZeroOneNoiselessRow(t *testing.T) {
	m := vec.NewMatrix(4, 3)
	copy(m.Row(2), []float64{0.5, -1, 2})
	copy(m.Row(3), []float64{-0.3, 0.2, 1})
	ys := []float64{1, -1, 1, -1} // rows 0 and 1 have no features
	data, err := dataset.New("noiseless", dataset.Classification, m, ys)
	if err != nil {
		t.Fatal(err)
	}
	optimal := []float64{1, 2, 3}
	raw := gaussianMeans(TransformConfig{Optimal: optimal, Loss: ml.ZeroOneLoss{}, Data: data, Xs: []float64{1, 100}})
	if zeroOneRow(0, 0, 1) != 1 || zeroOneRow(0, 0, -1) != 0 || zeroOneRow(2, 0, 1) != 0 || zeroOneRow(2, 0, -1) != 1 {
		t.Fatal("a noiseless row does not follow ml.ZeroOneLoss (m ≤ 0 → −1)")
	}
	// A label other than ±1 never matches a prediction, noisy or not.
	for _, y := range []float64{0, 0.5, 2, -3} {
		if zeroOneRow(2, 0, y) != 1 || zeroOneRow(-2, 0, y) != 1 || zeroOneRow(2, 1, y) != 1 {
			t.Fatalf("label %v: a row that can never be classified right is not counted 1", y)
		}
	}
	// Rows 2 and 3 are noisy; rows 0 and 1 contribute exactly 1 and 0.
	for i, x := range []float64{1, 100} {
		var noisy float64
		v := 1 / x / 3
		for r := 2; r < 4; r++ {
			row, y := data.Row(r)
			noisy += normalCDF(-y * vec.Dot(optimal, row) / math.Sqrt(v*vec.SqNorm2(row)))
		}
		if want := (1 + noisy) / 4; math.Abs(raw[i]-want) > 1e-15 {
			t.Errorf("x=%v: %v, want %v", x, raw[i], want)
		}
	}
}

// TestGaussianTransformRejects checks what the exact transform does not
// compute: other mechanisms and losses outside package ml.
func TestGaussianTransformRejects(t *testing.T) {
	pair, w := regFixture(t)
	if _, err := GaussianTransform(TransformConfig{Optimal: w, Loss: ml.SquaredLoss{}, Data: pair.Test, Mechanism: noise.Uniform{}}); err == nil {
		t.Error("uniform mechanism accepted")
	}
	if _, err := GaussianTransform(TransformConfig{Optimal: w, Loss: scaledLoss{ml.SquaredLoss{}}, Data: pair.Test}); err == nil {
		t.Error("a loss outside package ml accepted")
	}
	if GaussianClosedForm(scaledLoss{ml.SquaredLoss{}}) || !GaussianClosedForm(ml.HingeLoss{}) {
		t.Error("GaussianClosedForm disagrees with GaussianTransform")
	}
}

// scaledLoss is a Loss the exact transform has no closed form for.
type scaledLoss struct{ ml.SquaredLoss }

// TestGaussianTransformCaches checks the exact curve's cache path: a miss
// stores, a hit serves the same bits, and the Monte-Carlo of the same
// inputs neither hits the exact entry nor is served by it.
func TestGaussianTransformCaches(t *testing.T) {
	cfg := cacheFixture(t)
	plain, err := GaussianTransform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCurveCache()
	cfg.Cache = cache
	for i := 0; i < 2; i++ {
		c, err := GaussianTransform(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(c.Errs, plain.Errs) {
			t.Fatalf("pass %d: cached exact curve %v, uncached %v", i, c.Errs, plain.Errs)
		}
	}
	if h, m := cache.Stats(); h != 1 || m != 1 {
		t.Fatalf("exact curve twice: %d hits, %d misses; want 1, 1", h, m)
	}
	if _, err := MonteCarloTransform(cfg); err != nil {
		t.Fatal(err)
	}
	if h, m := cache.Stats(); h != 1 || m != 2 {
		t.Fatalf("Monte-Carlo after the exact curve: %d hits, %d misses; want 1, 2", h, m)
	}
}
