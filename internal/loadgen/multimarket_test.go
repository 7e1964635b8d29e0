package loadgen

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"

	"nimbus/internal/registry"
	"nimbus/internal/server"
	"nimbus/internal/telemetry"
)

// newMultiServer stands up a multi-tenant daemon with the given markets,
// one cheap CASP offering per tenant, behind the production middleware.
func newMultiServer(t *testing.T, reg *telemetry.Registry, ids []string) *httptest.Server {
	t.Helper()
	r, err := registry.Open(registry.Config{Commission: 0.1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	for i, id := range ids {
		_, err := r.List(registry.Spec{
			ID:        id,
			Generator: "CASP",
			Rows:      150,
			Grid:      8,
			Samples:   24,
			Seed:      int64(50 + 10*i),
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	quiet := func(string, ...any) {}
	handler := server.NewMulti(r, server.WithLogger(quiet), server.WithTelemetry(reg))
	srv := httptest.NewServer(server.WithMiddleware(handler, quiet, reg))
	t.Cleanup(srv.Close)
	return srv
}

// TestRunMultiMarket spreads a count-mode run across three tenant markets
// and checks the traffic actually lands on all of them, error-free, with
// the spread recorded in the report.
func TestRunMultiMarket(t *testing.T) {
	reg := telemetry.NewRegistry()
	ids := []string{"alpha", "beta", "gamma"}
	srv := newMultiServer(t, reg, ids)
	rep, err := Run(context.Background(), client(srv), Config{
		Concurrency: 3,
		Count:       90,
		Seed:        17,
		Markets:     ids,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 90 || rep.Errors != 0 || rep.NonOK != 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.Markets != 3 {
		t.Fatalf("markets stamp %d, want 3", rep.Markets)
	}
	var spread int
	for _, id := range ids {
		n := rep.ByMarket[id]
		// Round-robin from seeded offsets: every market sees a fair share.
		if n < 90/3-len(ids) || n > 90/3+len(ids) {
			t.Fatalf("market %s got %d of 90 requests: %v", id, n, rep.ByMarket)
		}
		spread += n
	}
	if spread != 90 {
		t.Fatalf("by_market sums to %d: %v", spread, rep.ByMarket)
	}
	// The per-offering telemetry agrees with the generator's own tally:
	// each tenant lists exactly one offering, "<id>/<model>".
	snap := reg.Snapshot()
	for _, id := range ids {
		if got := snap.CounterValue("nimbus_purchases_total", "offering", id+"/linear-regression"); int(got) != rep.ByMarket[id] {
			t.Fatalf("market %s: telemetry %v, report %d", id, got, rep.ByMarket[id])
		}
	}
}

// TestRunMultiMarketReplayable runs the identical seeded config twice
// against identically-listed marketplaces: the request mix must replay.
// One buyer, as in TestRunReplayableWithSeed — with several workers the
// per-worker split of the shared request count is scheduler-dependent.
func TestRunMultiMarketReplayable(t *testing.T) {
	ids := []string{"east", "west"}
	run := func() Report {
		reg := telemetry.NewRegistry()
		srv := newMultiServer(t, reg, ids)
		rep, err := Run(context.Background(), client(srv), Config{
			Concurrency: 1,
			Count:       40,
			Seed:        23,
			Markets:     ids,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.ByOption, b.ByOption) {
		t.Fatalf("option mix not replayable: %v vs %v", a.ByOption, b.ByOption)
	}
	if !reflect.DeepEqual(a.ByMarket, b.ByMarket) {
		t.Fatalf("market spread not replayable: %v vs %v", a.ByMarket, b.ByMarket)
	}
	if a.Revenue != b.Revenue {
		t.Fatalf("revenue not replayable: %v vs %v", a.Revenue, b.Revenue)
	}
}

// TestValidateMarkets pins the Markets knob validation.
func TestValidateMarkets(t *testing.T) {
	base := Config{Concurrency: 1, Count: 1}
	good := base
	good.Markets = []string{"a", "b"}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	dup := base
	dup.Markets = []string{"a", "a"}
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate market accepted")
	}
	empty := base
	empty.Markets = []string{""}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty market id accepted")
	}
}
