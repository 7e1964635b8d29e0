package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"nimbus/internal/pricing"
	"nimbus/internal/rng"
	"nimbus/internal/server"
)

// workload is one traffic mix. Both workloads run the same phases —
// setup, an open loop, a closed-loop saturation phase, and kill -9
// restarts — so every end-to-end metric is measured on each; the mix and
// the markets decide which layers the numbers stress. README.md says why
// each was chosen.
type workload struct {
	name    string
	markets []string // tenant IDs the traffic targets
	// rate is the open-loop Poisson arrival rate per second; browse is the
	// share of arrivals that are curve or menu reads instead of buys.
	rate   float64
	browse float64
	// openShare is the share of --seconds the open-loop phase lasts.
	openShare float64
	// sales is the size of the saturation phase that follows the open
	// loop, in purchases: a fixed count, so every run ends with the same
	// number of sales and restart time and memory compare across runs.
	sales int
}

var workloads = []workload{
	{name: "buy-narrow", markets: []string{"CASP"}, rate: 600, browse: 0.35, openShare: 0.9, sales: 11700},
	{name: "browse-buy-wide", markets: []string{"YearMSD", "CovType"}, rate: 600, browse: 0.5, openShare: 0.9, sales: 9000},
}

func workloadByName(name string) (workload, error) {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// curve is one (offering, loss) price–error curve as the daemon publishes
// it, the reference every purchase on it is checked against.
type curve struct {
	offering, loss string
	points         []pricing.PriceErrorPoint
}

// tenant is one dataset market as the buyers see it.
type tenant struct {
	id, offering string
	dim          int // weight-vector length of the sold model
	curves       []curve
}

// fetchTenant reads a tenant's menu and every curve on it.
func fetchTenant(ctx context.Context, client *http.Client, base, id string) (*tenant, error) {
	var menu server.MenuResponse
	if err := getJSON(ctx, client, base+"/api/v1/datasets/"+id+"/menu", &menu); err != nil {
		return nil, err
	}
	if len(menu.Offerings) != 1 {
		return nil, fmt.Errorf("market %s lists %d offerings, want 1", id, len(menu.Offerings))
	}
	o := menu.Offerings[0]
	m := &tenant{id: id, offering: o.Name, dim: o.Features}
	for _, loss := range o.Losses {
		var c server.CurveResponse
		if err := getJSON(ctx, client, base+curvePath(id, o.Name, loss), &c); err != nil {
			return nil, err
		}
		if len(c.Points) < 2 {
			return nil, fmt.Errorf("market %s: curve %s has %d points", id, loss, len(c.Points))
		}
		m.curves = append(m.curves, curve{offering: o.Name, loss: loss, points: c.Points})
	}
	return m, nil
}

func curvePath(id, offering, loss string) string {
	return "/api/v1/datasets/" + id + "/curve?" + url.Values{"offering": {offering}, "loss": {loss}}.Encode()
}

// request is one generated HTTP request with what its answer is checked
// against: a purchase, or a curve or menu read.
type request struct {
	market *tenant
	path   string
	body   []byte            // buys only
	buy    server.BuyRequest // buys only
	curve  *curve            // buys only: the curve bought from
}

// isBuy reports whether the request is a purchase.
func (r *request) isBuy() bool { return r.curve != nil }

// wire renders the request as HTTP/1.1 bytes for host.
func (r *request) wire(host string) []byte {
	method := "GET "
	if r.isBuy() {
		method = "POST "
	}
	b := make([]byte, 0, 128+len(r.path)+len(r.body))
	b = append(b, method...)
	b = append(b, r.path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	if r.isBuy() {
		b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(r.body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	return append(b, r.body...)
}

// newBuy draws one purchase on m: a uniformly chosen curve, grid point and
// purchase option, with budgets taken from the published curve so every
// purchase is satisfiable — the three-option mix of internal/loadgen.
func newBuy(rnd *rng.Source, m *tenant) request {
	c := &m.curves[rnd.Intn(len(m.curves))]
	pt := c.points[rnd.Intn(len(c.points))]
	br := server.BuyRequest{Offering: m.offering, Loss: c.loss}
	switch rnd.Intn(3) {
	case 0:
		br.Option, br.Value = "quality", pt.X
	case 1:
		br.Option, br.Value = "error-budget", pt.Error*(1+0.5*rnd.Float64())
	default:
		br.Option, br.Value = "price-budget", pt.Price*(1+0.5*rnd.Float64())
	}
	body, err := json.Marshal(br)
	if err != nil {
		panic(err) // a BuyRequest always encodes
	}
	return request{market: m, path: "/api/v1/datasets/" + m.id + "/buy", body: body, buy: br, curve: c}
}

// newBrowse draws one read on m: its menu or one of its curves.
func newBrowse(rnd *rng.Source, m *tenant) request {
	if rnd.Intn(2) == 0 {
		return request{market: m, path: "/api/v1/datasets/" + m.id + "/menu"}
	}
	c := &m.curves[rnd.Intn(len(m.curves))]
	return request{market: m, path: curvePath(m.id, c.offering, c.loss)}
}

// draw picks one open-loop request: a buy or, with probability w.browse,
// a read, on a uniformly chosen market.
func draw(rnd *rng.Source, w workload, ts []*tenant) request {
	m := ts[rnd.Intn(len(ts))]
	if rnd.Float64() < w.browse {
		return newBrowse(rnd, m)
	}
	return newBuy(rnd, m)
}

// openSchedule draws the open-loop phase: Poisson arrivals at w.rate for
// span. due holds each arrival's offset from the phase start.
func openSchedule(rnd *rng.Source, w workload, ts []*tenant, span time.Duration) (reqs []request, due []time.Duration) {
	var t float64
	for {
		t += -math.Log(1-rnd.Float64()) / w.rate // exponential gaps: Poisson arrivals
		at := time.Duration(t * float64(time.Second))
		if at >= span {
			return reqs, due
		}
		reqs = append(reqs, draw(rnd, w, ts))
		due = append(due, at)
	}
}

// buySequence draws n purchases on uniformly chosen markets for a
// closed-loop phase.
func buySequence(rnd *rng.Source, ts []*tenant, n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = newBuy(rnd, ts[rnd.Intn(len(ts))])
	}
	return reqs
}
