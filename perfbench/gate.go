package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"nimbus/internal/market"
	"nimbus/internal/server"
)

// relTol is the relative float tolerance of the money and budget checks:
// the daemon sums prices shard by shard in its own order, so the books may
// differ from the benchmark's sum in the last bits, never by more.
const relTol = 1e-9

func within(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkPurchase verifies one acknowledged purchase against its request and
// the published curve: it honours its option, its price lies between the
// curve's prices at the neighbouring grid knots, and its weight vector has
// the model's dimension.
func checkPurchase(r *request, p *market.Purchase) error {
	br, c := &r.buy, r.curve
	switch {
	case p.Offering != br.Offering || p.Loss != br.Loss:
		return fmt.Errorf("bought %s/%s, asked for %s/%s", p.Offering, p.Loss, br.Offering, br.Loss)
	case len(p.Weights) != r.market.dim:
		return fmt.Errorf("%d weights, the model has %d", len(p.Weights), r.market.dim)
	}
	switch br.Option {
	case "quality":
		if !within(p.X, br.Value) {
			return fmt.Errorf("quality %v bought at x=%v", br.Value, p.X)
		}
	case "error-budget":
		if p.ExpectedError > br.Value && !within(p.ExpectedError, br.Value) {
			return fmt.Errorf("expected error %v over the budget %v", p.ExpectedError, br.Value)
		}
	case "price-budget":
		if p.Price > br.Value && !within(p.Price, br.Value) {
			return fmt.Errorf("price %v over the budget %v", p.Price, br.Value)
		}
	}
	pts := c.points
	if p.X < pts[0].X && !within(p.X, pts[0].X) || p.X > pts[len(pts)-1].X && !within(p.X, pts[len(pts)-1].X) {
		return fmt.Errorf("x=%v outside the offered range [%v, %v]", p.X, pts[0].X, pts[len(pts)-1].X)
	}
	i := 0
	for i+2 < len(pts) && pts[i+1].X < p.X {
		i++
	}
	lo, hi := math.Min(pts[i].Price, pts[i+1].Price), math.Max(pts[i].Price, pts[i+1].Price)
	if (p.Price < lo && !within(p.Price, lo)) || (p.Price > hi && !within(p.Price, hi)) {
		return fmt.Errorf("price %v at x=%v outside the knot prices [%v, %v]", p.Price, p.X, lo, hi)
	}
	return nil
}

// books is the benchmark's own account of the acknowledged sales, per
// market, which the daemon's statement must match.
type books struct {
	sales map[string]int
	gross map[string]float64
}

func newBooks() *books {
	return &books{sales: map[string]int{}, gross: map[string]float64{}}
}

// tally is one phase's requests after checking.
type tally struct {
	attempted, failed int
	sales             int
	violations        []string
}

// record checks every outcome of a phase and books its acknowledged
// sales. Refused and failed requests count as failed; an acknowledged
// purchase that breaks a rule is a violation.
func (b *books) record(reqs []request, outs []outcome) tally {
	var t tally
	for i := range outs {
		o, r := &outs[i], &reqs[i]
		t.attempted++
		if !o.ok() {
			t.failed++
			continue
		}
		if !r.isBuy() {
			continue
		}
		var p market.Purchase
		if err := json.Unmarshal(o.body, &p); err != nil {
			t.violations = append(t.violations, fmt.Sprintf("buy %d: undecodable purchase: %v", i, err))
			continue
		}
		if err := checkPurchase(r, &p); err != nil {
			t.violations = append(t.violations, fmt.Sprintf("buy %d on %s: %v", i, r.market.id, err))
		}
		b.sales[r.market.id]++
		b.gross[r.market.id] += p.Price
		t.sales++
	}
	return t
}

// audit compares the daemon's per-market statement with the books: sales
// counts exactly, gross within relTol. Markets without traffic must show
// no sales.
func (b *books) audit(ctx context.Context, base string) (server.DatasetsResponse, error) {
	var ds server.DatasetsResponse
	if err := getJSON(ctx, http.DefaultClient, base+"/api/v1/datasets", &ds); err != nil {
		return ds, err
	}
	for _, row := range ds.Datasets {
		if row.Sales != b.sales[row.ID] {
			return ds, fmt.Errorf("market %s: daemon counts %d sales, %d were acknowledged", row.ID, row.Sales, b.sales[row.ID])
		}
		if !within(row.Gross, b.gross[row.ID]) {
			return ds, fmt.Errorf("market %s: daemon gross %v, acknowledged prices sum to %v", row.ID, row.Gross, b.gross[row.ID])
		}
	}
	return ds, nil
}

// sameStatement requires the statement after a restart to equal the one
// before the crash exactly: every acknowledged sale was durable.
func sameStatement(before, after server.DatasetsResponse) error {
	if before.Markets != after.Markets || before.Sales != after.Sales || before.Gross != after.Gross {
		return fmt.Errorf("totals before the crash %d markets/%d sales/%v gross, after the restart %d/%d/%v",
			before.Markets, before.Sales, before.Gross, after.Markets, after.Sales, after.Gross)
	}
	for i, b := range before.Datasets {
		a := after.Datasets[i]
		if a.ID != b.ID || a.Sales != b.Sales || a.Gross != b.Gross || a.Fees != b.Fees || a.Payouts != b.Payouts {
			return fmt.Errorf("market %s before the crash %+v, after the restart %+v", b.ID, b, a)
		}
	}
	return nil
}
