package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"nimbus/internal/market"
	"nimbus/internal/registry"
	"nimbus/internal/telemetry"
)

// FuzzBuyHandler sends arbitrary bodies to the tenant buy route of a
// memory-only CASP market behind the full middleware stack. No body may
// panic the handler or earn a 5xx, and every sale must honour the option
// it was asked for: a price budget caps the price, an error budget caps
// the expected error, and a quality lands on the offered range.
func FuzzBuyHandler(f *testing.F) {
	tel := telemetry.NewRegistry()
	reg, err := registry.Open(registry.Config{Commission: 0.1, Telemetry: tel})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { reg.Close() })
	spec := cheapListRequest("casp", 17).Spec
	if _, err := reg.List(spec, nil); err != nil {
		f.Fatal(err)
	}
	const offering, loss = "casp/linear-regression", "squared"
	m, err := reg.Get("casp")
	if err != nil {
		f.Fatal(err)
	}
	o, err := m.Broker.Offering(offering)
	if err != nil {
		f.Fatal(err)
	}
	c, err := o.Curve(loss)
	if err != nil {
		f.Fatal(err)
	}
	pts := c.Points()
	lo, hi := pts[0], pts[len(pts)-1]
	logf := func(string, ...any) {}
	h := WithMiddleware(NewMulti(reg, WithLogger(logf), WithTelemetry(tel)), logf, tel)

	body := func(option string, value float64) []byte {
		return []byte(fmt.Sprintf(`{"offering":%q,"loss":%q,"option":%q,"value":%s}`,
			offering, loss, option, strconv.FormatFloat(value, 'g', -1, 64)))
	}
	for _, v := range []float64{lo.X, (lo.X + hi.X) / 2, hi.X, 0, -3, 1e308} {
		f.Add(body("quality", v))
	}
	for _, v := range []float64{lo.Error, (lo.Error + hi.Error) / 2, hi.Error, hi.Error - 1e-13, hi.Error / 2, -1} {
		f.Add(body("error-budget", v))
	}
	for _, v := range []float64{lo.Price, (lo.Price + hi.Price) / 2, hi.Price, lo.Price / 2, 1e308} {
		f.Add(body("price-budget", v))
	}
	f.Add(body("haggle", 1))
	f.Add([]byte(`{"offering":"casp/none","loss":"squared","option":"quality","value":5}`))
	f.Add([]byte(`{"offering":"casp/linear-regression","loss":"zero-one","option":"quality","value":5}`))
	f.Add([]byte(`{"offering":"casp/linear-regression","loss":"squared","option":"quality","value":5,"tip":1}`))
	f.Add([]byte(`{"offering":"casp/linear-regression","loss":"squared","option":"quality","value":5} {"value":"x"}`))
	f.Add([]byte(`{"value":1e999}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"offering":"` + strings.Repeat("a", int(maxBuyBody)) + `"}`))

	f.Fuzz(func(t *testing.T, in []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/datasets/casp/buy", bytes.NewReader(in)))
		if rec.Code >= 500 {
			t.Fatalf("body %q: status %d: %s", in, rec.Code, rec.Body)
		}
		if rec.Code != http.StatusOK {
			return
		}
		// The handler decodes the first JSON value with unknown fields
		// refused; read the request the same way to learn what was asked.
		var req BuyRequest
		dec := json.NewDecoder(bytes.NewReader(in))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("body %q was sold but does not decode: %v", in, err)
		}
		var p market.Purchase
		if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
			t.Fatalf("body %q: undecodable sale %s: %v", in, rec.Body, err)
		}
		if p.Offering != req.Offering || p.Loss != req.Loss {
			t.Fatalf("asked for %s/%s, sold %s/%s", req.Offering, req.Loss, p.Offering, p.Loss)
		}
		if !(p.X >= lo.X && p.X <= hi.X) || !(p.Price >= 0) || math.IsInf(p.Price, 0) || len(p.Weights) != len(o.Optimal) {
			t.Fatalf("body %q: malformed sale %+v", in, p)
		}
		switch req.Option {
		case "price-budget":
			if p.Price > req.Value {
				t.Fatalf("price budget %v, charged %v", req.Value, p.Price)
			}
		case "error-budget":
			if p.ExpectedError > req.Value+1e-9*math.Max(1, math.Abs(req.Value)) {
				t.Fatalf("error budget %v, sold expected error %v", req.Value, p.ExpectedError)
			}
		case "quality":
			if want := math.Min(math.Max(req.Value, lo.X), hi.X); p.X != want {
				t.Fatalf("asked for quality %v, sold %v (want %v)", req.Value, p.X, want)
			}
		default:
			t.Fatalf("option %q was sold", req.Option)
		}
	})
}

// FuzzListHandler sends arbitrary bodies to the listing route of a
// memory-only registry behind the full middleware stack. No body may
// panic the handler or earn a 5xx, and none may leave a half-listed
// tenant: a 201 lists exactly one new market, whole (its offerings priced
// and each curve served), and any other answer leaves the registry as it
// was. Listed markets are delisted again so the registry never fills up.
// Bodies that decode to a large listing are skipped to keep each input
// fast; a listing past a cap still runs, as its answer is a quick 400.
func FuzzListHandler(f *testing.F) {
	tel := telemetry.NewRegistry()
	reg, err := registry.Open(registry.Config{Commission: 0.1, Telemetry: tel})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { reg.Close() })
	logf := func(string, ...any) {}
	h := WithMiddleware(NewMulti(reg, WithLogger(logf), WithTelemetry(tel)), logf, tel)

	for _, req := range []ListDatasetRequest{
		cheapListRequest("casp", 17),
		{Spec: registry.Spec{ID: "sim2", Generator: "Simulated2", Rows: 120, Grid: 6, Model: "auto"}},
		{Spec: registry.Spec{ID: "csv", CSV: true, Task: "classification", Target: "y", Grid: 5},
			Data: "a,b,y\n1,2,1\n2,1,0\n3,3,1\n0,1,0\n2,2,1\n1,0,0\n4,1,1\n0,3,0\n"},
		{Spec: registry.Spec{ID: "nan", CSV: true, Task: "regression", Target: "y", Grid: 4},
			Data: "a,y\nNaN,1\n1,Inf\n2,3\n3,4\n4,5\n5,6\n6,7\n7,8\n"},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"id":"casp","generator":"CASP","rows":100,"grid":4,"data":"x"}`))
	f.Add([]byte(`{"id":".hidden","generator":"CASP"}`))
	f.Add([]byte(`{"id":"big","generator":"CASP","grid":1001}`))
	f.Add([]byte(`{"id":"x","csv":true,"task":"regression","target":"y","data":"y\n1\n"}`))
	f.Add([]byte(`{"id":"x","generator":"CASP","rows":-5,"grid":-1,"value_scale":-1}`))
	f.Add([]byte(`{"id":"x","generator":"CASP"} trailing`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, in []byte) {
		var req ListDatasetRequest
		if json.Unmarshal(in, &req) == nil && (req.Rows > 2000 && req.Rows <= registry.MaxRows ||
			req.Grid > 50 && req.Grid <= registry.MaxGrid || len(req.Data) > 1<<16) {
			t.Skip("listing too large for a fuzz input")
		}
		before := reg.IDs()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/datasets", bytes.NewReader(in)))
		if rec.Code >= 500 {
			t.Fatalf("body %q: status %d: %s", in, rec.Code, rec.Body)
		}
		after := reg.IDs()
		if rec.Code != http.StatusCreated {
			if strings.Join(after, ",") != strings.Join(before, ",") {
				t.Fatalf("body %q: status %d changed the markets from %v to %v", in, rec.Code, before, after)
			}
			return
		}
		var resp DatasetResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("body %q: undecodable listing %s: %v", in, rec.Body, err)
		}
		if len(after) != len(before)+1 {
			t.Fatalf("body %q: listed, but the markets went from %v to %v", in, before, after)
		}
		m, err := reg.Get(resp.Spec.ID)
		if err != nil {
			t.Fatalf("body %q: listed %s, which is not live: %v", in, resp.Spec.ID, err)
		}
		menu := m.Broker.Menu()
		if len(menu) == 0 || len(resp.Offerings) != len(menu) {
			t.Fatalf("body %q: listed %s with offerings %v, menu %v", in, resp.Spec.ID, resp.Offerings, menu)
		}
		for _, name := range menu {
			o, err := m.Broker.Offering(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := o.VerifySLA(); err != nil {
				t.Fatalf("body %q: offering %s: %v", in, name, err)
			}
			for _, loss := range o.LossNames() {
				if _, err := o.Curve(loss); err != nil {
					t.Fatalf("body %q: offering %s: %v", in, name, err)
				}
			}
		}
		if _, err := reg.Delist(resp.Spec.ID); err != nil {
			t.Fatal(err)
		}
	})
}
