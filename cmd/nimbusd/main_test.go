package main

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nimbus/internal/market"
	"nimbus/internal/registry"
)

// TestSeedSuiteListsAndRecovers drives the boot sequence: an empty data
// directory is seeded with the six Table 3 datasets, each offering meets
// its SLA, and a second boot recovers them from their manifests instead
// of re-seeding.
func TestSeedSuiteListsAndRecovers(t *testing.T) {
	cfg := config{scale: 1e-9, seed: 3, samples: 10, gridN: 4, journalSync: "never", dataDir: t.TempDir()}
	var logs []string
	logf := func(format string, args ...any) { logs = append(logs, format) }

	r, err := openRegistry(cfg, nil, logf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != 6 || len(r.Menu()) != 6 {
		t.Fatalf("seeded %d markets, %d offerings", r.Count(), len(r.Menu()))
	}
	wantModels := map[string]string{
		"Simulated1": "linear-regression",
		"YearMSD":    "linear-regression",
		"CASP":       "linear-regression",
		"Simulated2": "logistic-regression",
		"CovType":    "logistic-regression",
		"SUSY":       "logistic-regression",
	}
	for _, name := range r.Menu() {
		parts := strings.SplitN(name, "/", 2)
		if wantModels[parts[0]] != parts[1] {
			t.Fatalf("offering %s has unexpected model", name)
		}
		o := offering(t, r, name)
		if err := o.VerifySLA(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if len(logs) == 0 {
		t.Fatal("no progress logged")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Second boot: everything recovers, nothing is re-seeded.
	logs = nil
	r2, err := openRegistry(cfg, nil, logf)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Count() != 6 {
		t.Fatalf("recovered %d markets, want 6", r2.Count())
	}
	for _, line := range logs {
		if strings.Contains(line, "seeding") {
			t.Fatalf("second boot re-seeded: %q", line)
		}
	}
}

// TestJournalSurvivesRestarts drives the lifecycle nimbusd wires up:
// sales are journaled per tenant, a graceful shutdown compacts them into
// snapshots, a crash (registry abandoned, no Close) leaves them in the
// record tail, and either way the next startup recovers the exact books.
func TestJournalSurvivesRestarts(t *testing.T) {
	cfg := config{
		scale: 1e-9, seed: 3, samples: 10, gridN: 4,
		journalSync:     "group",
		journalSegBytes: 1024,
		dataDir:         t.TempDir(),
	}
	quiet := func(string, ...any) {}
	boot := func() *registry.Registry {
		r, err := openRegistry(cfg, nil, quiet)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// Sales land in two tenants, so recovery must be right per journal.
	buy := func(r *registry.Registry, x float64) {
		for _, name := range r.Menu()[:2] {
			if _, err := r.Buy(name, offering(t, r, name).LossNames()[0], "quality", x); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Generation 1: seed, two sales per tenant, graceful shutdown.
	r1 := boot()
	buy(r1, 2)
	buy(r1, 4)
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(cfg.dataDir, "*", "journal", "snap-*.snap"))
	if err != nil || len(snaps) != 6 {
		t.Fatalf("graceful shutdown left %d snapshots (%v), want one per tenant", len(snaps), err)
	}

	// Generation 2: recovers from the snapshots, sells once more per
	// tenant, then "crashes": the registry is abandoned without Close, so
	// the new sales live only in the fsynced record tail.
	r2 := boot()
	if got := r2.Stats().Sales; got != 4 {
		t.Fatalf("generation 2 recovered %d sales, want 4", got)
	}
	buy(r2, 3)
	wantStmt, wantSales := books(r2)

	// Generation 3: snapshot plus tail replay.
	r3 := boot()
	defer r3.Close()
	gotStmt, gotSales := books(r3)
	if got := r3.Stats().Sales; got != 6 {
		t.Fatalf("generation 3 recovered %d sales, want 6", got)
	}
	if !reflect.DeepEqual(gotStmt, wantStmt) {
		t.Fatalf("recovered statements %+v, want %+v", gotStmt, wantStmt)
	}
	if len(gotSales) != len(wantSales) {
		t.Fatalf("recovered %d purchases, want %d", len(gotSales), len(wantSales))
	}
	for i := range wantSales {
		if !samePurchase(gotSales[i], wantSales[i]) {
			t.Fatalf("purchase %d: recovered %+v, want %+v", i, gotSales[i], wantSales[i])
		}
	}
}

// offering resolves a global offering name through the registry.
func offering(t *testing.T, r *registry.Registry, name string) *market.Offering {
	t.Helper()
	m, err := r.ResolveOffering(name)
	if err != nil {
		t.Fatal(err)
	}
	o, err := m.Broker.Offering(name)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// books lists every tenant's statement and concatenates their ledgers,
// in market-ID order.
func books(r *registry.Registry) ([]*market.Statement, []market.Purchase) {
	var stmts []*market.Statement
	var sales []market.Purchase
	for _, id := range r.IDs() {
		m, err := r.Get(id)
		if err != nil {
			continue
		}
		stmts = append(stmts, m.Statement())
		sales = append(sales, m.Broker.Sales()...)
	}
	return stmts, sales
}

// samePurchase compares two purchases bit for bit, weights included.
func samePurchase(a, b market.Purchase) bool {
	if a.Offering != b.Offering || a.Loss != b.Loss || len(a.Weights) != len(b.Weights) {
		return false
	}
	for _, pair := range [][2]float64{
		{a.X, b.X}, {a.NCP, b.NCP}, {a.Price, b.Price}, {a.BrokerFee, b.BrokerFee},
		{a.SellerProceeds, b.SellerProceeds}, {a.ExpectedError, b.ExpectedError},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			return false
		}
	}
	for i := range a.Weights {
		if math.Float64bits(a.Weights[i]) != math.Float64bits(b.Weights[i]) {
			return false
		}
	}
	return true
}
