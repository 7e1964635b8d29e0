package pricing

import (
	"testing"

	"nimbus/internal/dataset"
	"nimbus/internal/ml"
	"nimbus/internal/rng"
)

func benchFixture(b *testing.B) (*dataset.Pair, []float64) {
	b.Helper()
	d, err := dataset.StandIn("CASP", dataset.GenConfig{Rows: 400, Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	pair, err := dataset.NewPair(d, rng.New(99))
	if err != nil {
		b.Fatal(err)
	}
	w, err := ml.LinearRegression{Ridge: 1e-3}.Fit(pair.Train)
	if err != nil {
		b.Fatal(err)
	}
	return pair, w
}

func BenchmarkFunctionPrice(b *testing.B) {
	pts := make([]Point, 100)
	for i := range pts {
		pts[i] = Point{X: float64(i + 1), Price: 10 + float64(i)}
	}
	f, err := NewFunction(pts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Price(float64(i%120) + 0.5)
	}
}

// listingFixture builds a tenant's test set and h* the way nimbusd's
// seeding lists a Table 3 generator: 1/1000 of the paper's rows, a 75/25
// split, and the task's default model.
func listingFixture(tb testing.TB, name string, seed int64) (*dataset.Pair, ml.Model, []float64) {
	tb.Helper()
	cfg := dataset.GenConfig{Rows: dataset.Table3Rows(name, 1e-3), Seed: seed}
	var d *dataset.Dataset
	var err error
	if name == "Simulated2" {
		d = dataset.Simulated2(cfg)
	} else if d, err = dataset.StandIn(name, cfg); err != nil {
		tb.Fatal(err)
	}
	pair, err := dataset.NewPair(d, rng.New(seed+1))
	if err != nil {
		tb.Fatal(err)
	}
	var model ml.Model = ml.LinearRegression{Ridge: 1e-4}
	if pair.Train.Task == dataset.Classification {
		model = ml.LogisticRegression{Ridge: 1e-4}
	}
	w, err := model.Fit(pair.Train)
	if err != nil {
		tb.Fatal(err)
	}
	return pair, model, w
}

// BenchmarkMonteCarloTransform times one cold error-curve estimate. The
// Simulated2 and YearMSD cases are nimbusd's seeding shapes (grid 50) at
// 200 samples per grid point, the Monte-Carlo's share before nimbusd
// served exact curves: Simulated2 is d = 20 with 2500 test rows, YearMSD
// is d = 90.
func BenchmarkMonteCarloTransform(b *testing.B) {
	b.Run("CASP/squared", func(b *testing.B) {
		pair, w := benchFixture(b)
		cfg := TransformConfig{
			Optimal: w, Loss: ml.SquaredLoss{}, Data: pair.Test,
			Xs: DefaultGrid(10), Samples: 100, Seed: 3,
		}
		benchTransform(b, MonteCarloTransform, cfg)
	})
	benchListingShapes(b, MonteCarloTransform)
}

// BenchmarkGaussianTransform times one cold exact error curve at the
// shapes nimbusd lists when it seeds an empty data dir, the Monte-Carlo
// benchmark's listing cases computed by the transform nimbusd serves.
func BenchmarkGaussianTransform(b *testing.B) {
	benchListingShapes(b, GaussianTransform)
}

// benchListingShapes runs transform on the Simulated2 logistic and
// zero-one curves and the YearMSD squared curve at nimbusd's seeding
// shapes: grid 50 and, for the Monte-Carlo, 200 samples per grid point.
func benchListingShapes(b *testing.B, transform func(TransformConfig) (*ErrorCurve, error)) {
	for _, c := range []struct{ data, loss string }{
		{"Simulated2", "logistic"},
		{"Simulated2", "zero-one"},
		{"YearMSD", "squared"},
	} {
		b.Run(c.data+"/"+c.loss, func(b *testing.B) {
			pair, model, w := listingFixture(b, c.data, 4)
			var loss ml.Loss
			for _, l := range ml.DefaultReportLosses(model) {
				if l.Name() == c.loss {
					loss = l
				}
			}
			benchTransform(b, transform, TransformConfig{
				Optimal: w, Loss: loss, Data: pair.Test,
				Xs: DefaultGrid(50), Samples: 200, Seed: 7,
			})
		})
	}
}

func benchTransform(b *testing.B, transform func(TransformConfig) (*ErrorCurve, error), cfg TransformConfig) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transform(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
