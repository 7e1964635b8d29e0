package pricing

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nimbus/internal/dataset"
	"nimbus/internal/ml"
	"nimbus/internal/noise"
	"nimbus/internal/rng"
	"nimbus/internal/vec"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/mc_means.golden from the current estimator")

// goldenData is a fixed relation with d = 9 features and n = 37 rows,
// drawn from its own stream so the golden pins the estimator rather than
// a dataset generator. Classification labels are the sign of a planted
// model, flipped on every fifth row so the zero-one error is never zero.
func goldenData(t *testing.T, task dataset.Task) (*dataset.Dataset, []float64) {
	t.Helper()
	const n, d = 37, 9
	src := rng.New(20190626)
	planted := src.NormalVec(d, 1)
	m := vec.NewMatrix(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x := m.Row(i)
		for j := range x {
			x[j] = src.Normal(0, 1)
		}
		y[i] = vec.Dot(planted, x) + src.Normal(0, 0.3)
		if task == dataset.Classification {
			y[i] = 1
			if vec.Dot(planted, x) < 0 != (i%5 == 0) {
				y[i] = -1
			}
		}
	}
	ds, err := dataset.New("golden", task, m, y)
	if err != nil {
		t.Fatal(err)
	}
	// h* is the planted model nudged off it, so the noiseless loss is not
	// a special value either.
	optimal := make([]float64, d)
	for j := range optimal {
		optimal[j] = planted[j] + src.Normal(0, 0.1)
	}
	return ds, optimal
}

// TestMonteCarloMeansGolden pins the Monte-Carlo estimator bit for bit:
// the raw per-grid means, read back through a CurveCache entry, of every
// reporting loss under every mechanism at sample counts that are not
// multiples of any block width. A curve cache written by one build is
// served by the next only because the estimator did not move; a change
// that moves a single bit here must bump cacheVersion. Regenerate with
// -update only for such a change.
func TestMonteCarloMeansGolden(t *testing.T) {
	reg, regW := goldenData(t, dataset.Regression)
	cls, clsW := goldenData(t, dataset.Classification)
	losses := []struct {
		loss    ml.Loss
		data    *dataset.Dataset
		optimal []float64
	}{
		{ml.SquaredLoss{Reg: 1e-3}, reg, regW},
		{ml.LogisticLoss{Reg: 1e-3}, cls, clsW},
		{ml.HingeLoss{Reg: 1e-3}, cls, clsW},
		{ml.ZeroOneLoss{}, cls, clsW},
	}
	mechanisms := []noise.Mechanism{noise.Gaussian{}, noise.Laplace{}, noise.Uniform{}}
	var got strings.Builder
	for _, l := range losses {
		for _, mech := range mechanisms {
			for _, samples := range []int{1, 7, 13} {
				cfg := TransformConfig{
					Optimal: l.optimal, Loss: l.loss, Data: l.data, Mechanism: mech,
					Xs: DefaultGrid(5), Samples: samples, Seed: 77, Cache: NewCurveCache(),
				}
				if _, err := MonteCarloTransform(cfg); err != nil {
					t.Fatal(err)
				}
				full, err := cfg.withDefaults()
				if err != nil {
					t.Fatal(err)
				}
				means, ok := cfg.Cache.lookup(curveKey(full), full.Xs)
				if !ok {
					t.Fatalf("%s/%s/%d: estimate not cached", l.loss.Name(), mech.Name(), samples)
				}
				fmt.Fprintf(&got, "%s %s samples=%d:", l.loss.Name(), mech.Name(), samples)
				for _, m := range means {
					fmt.Fprintf(&got, " %016x", math.Float64bits(m))
				}
				got.WriteByte('\n')
			}
		}
	}
	path := filepath.Join("testdata", "mc_means.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d golden lines, want %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("estimator moved:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}
