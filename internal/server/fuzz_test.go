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
