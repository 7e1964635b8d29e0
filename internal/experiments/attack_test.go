package experiments

import (
	"math"
	"testing"

	"nimbus/internal/dataset"
	"nimbus/internal/market"
	"nimbus/internal/ml"
	"nimbus/internal/opt"
	"nimbus/internal/pricing"
	"nimbus/internal/rng"
)

func TestAttackValidation(t *testing.T) {
	if _, err := RunArbitrageAttack(AttackConfig{Dim: 3}); err == nil {
		t.Fatal("nil price accepted")
	}
	price := func(x float64) float64 { return x }
	if _, err := RunArbitrageAttack(AttackConfig{Price: price}); err == nil {
		t.Fatal("zero dim accepted")
	}
	if _, err := RunArbitrageAttack(AttackConfig{Price: price, Dim: 3, Ks: []int{0}}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := RunArbitrageAttack(AttackConfig{Price: price, Dim: 3, Xs: []float64{-1}}); err == nil {
		t.Fatal("x<0 accepted")
	}
}

func TestAttackFailsAgainstDPPrices(t *testing.T) {
	// Price the Figure 5 market with the DP and mount the attack: no (k, x)
	// pair may profit.
	prob, err := opt.NewProblem([]opt.BuyerPoint{
		{X: 1, Value: 100, Mass: 0.25},
		{X: 2, Value: 150, Mass: 0.25},
		{X: 3, Value: 280, Mass: 0.25},
		{X: 4, Value: 350, Mass: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := opt.MaximizeRevenueDP(prob)
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunArbitrageAttack(AttackConfig{
		Price: f.Price, Dim: 10,
		Ks: []int{2, 3, 4}, Xs: []float64{0.5, 1, 2}, Rounds: 100, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := MaxProfit(results); p > 1e-9 {
		t.Fatalf("arbitrage profit %v against DP prices", p)
	}
	// The averaged model really does hit the honest version's error.
	for _, r := range results {
		if math.Abs(r.MeasuredError-r.TargetError)/r.TargetError > 0.35 {
			t.Fatalf("k=%d x=%v: measured %v vs target %v", r.K, r.X, r.MeasuredError, r.TargetError)
		}
	}
}

func TestAttackSucceedsAgainstSuperadditivePrices(t *testing.T) {
	// A quadratic price is superadditive: buying two halves is cheaper than
	// one whole, so the attack must show positive profit somewhere.
	price := func(x float64) float64 { return x * x }
	results, err := RunArbitrageAttack(AttackConfig{
		Price: price, Dim: 5, Ks: []int{2}, Xs: []float64{1, 2}, Rounds: 50, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := MaxProfit(results); p <= 0 {
		t.Fatalf("no profit against superadditive prices: %+v", results)
	}
}

func TestAttackAveragingReducesError(t *testing.T) {
	price := func(x float64) float64 { return x }
	results, err := RunArbitrageAttack(AttackConfig{
		Price: price, Dim: 20, Ks: []int{1, 10}, Xs: []float64{1}, Rounds: 400, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var single, averaged float64
	for _, r := range results {
		switch r.K {
		case 1:
			single = r.MeasuredError
		case 10:
			averaged = r.MeasuredError
		}
	}
	if averaged >= single/5 {
		t.Fatalf("averaging 10 instances only improved %v -> %v", single, averaged)
	}
}

// TestAttackFailsAgainstListedMenus mounts the averaging attack on the
// prices a broker lists for a CASP and a Simulated2 market under the
// Gaussian mechanism, whose error curves are exact: no (k, x) may profit.
func TestAttackFailsAgainstListedMenus(t *testing.T) {
	for _, c := range []struct {
		name  string
		data  *dataset.Dataset
		model ml.Model
	}{
		{"CASP", mustStandIn(t, "CASP", 400), ml.LinearRegression{Ridge: 1e-4}},
		{"Simulated2", dataset.Simulated2(dataset.GenConfig{Rows: 600, Seed: 12}), ml.LogisticRegression{Ridge: 1e-4}},
	} {
		pair, err := dataset.NewPair(c.data, rng.New(13))
		if err != nil {
			t.Fatal(err)
		}
		seller, err := market.NewSeller(pair, market.Research{
			Value:  func(e float64) float64 { return 100 / (1 + e) },
			Demand: func(float64) float64 { return 1 },
		})
		if err != nil {
			t.Fatal(err)
		}
		o, err := market.NewBroker(14).List(market.OfferingConfig{
			Seller: seller, Model: c.model, Grid: pricing.DefaultGrid(20), Seed: 15,
		})
		if err != nil {
			t.Fatal(err)
		}
		results, err := RunArbitrageAttack(AttackConfig{
			Price: o.PriceFunc.Price, Dim: len(o.Optimal),
			Ks: []int{2, 3, 5, 10}, Xs: []float64{1, 2, 5, 10}, Rounds: 50, Seed: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		if p := MaxProfit(results); p > 1e-9 {
			t.Fatalf("%s: arbitrage profit %v against the listed prices", c.name, p)
		}
	}
}

func mustStandIn(t *testing.T, name string, rows int) *dataset.Dataset {
	t.Helper()
	d, err := dataset.StandIn(name, dataset.GenConfig{Rows: rows, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return d
}
