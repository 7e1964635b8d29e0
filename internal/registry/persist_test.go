package registry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nimbus/internal/journal"
	"nimbus/internal/market"
)

// TestReopenV1OnlyTenantJournal reopens a -data-dir tenant whose journal
// holds only JSON sale records (v1), as builds before the binary record
// left it: the books must come back exact, and the tenant keeps trading.
func TestReopenV1OnlyTenantJournal(t *testing.T) {
	root := t.TempDir()
	cfg := Config{Root: root, Commission: 0.1, Sync: journal.SyncNever}
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.List(cheapSpec("legacy", 61), nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if _, err := m.Buy(offeringOf("legacy"), "squared", "quality", float64(1+k%4)); err != nil {
			t.Fatal(err)
		}
	}
	sales, statement := m.Broker.Sales(), m.Broker.Statement()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Replace the compacted journal with one v1 record per sale.
	dir := filepath.Join(tenantDir(root, "legacy"), journalDir)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	j, err := journal.Open(dir, journal.Options{Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sales {
		rec, err := json.Marshal(struct {
			V        int             `json:"v"`
			Purchase market.Purchase `json:"purchase"`
		}{1, p})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	m2, err := r2.Get("legacy")
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Broker.Statement(); !reflect.DeepEqual(got, statement) {
		t.Fatalf("reopened statement %+v, want %+v", got, statement)
	}
	if got := m2.Broker.Sales(); !reflect.DeepEqual(got, sales) {
		t.Fatalf("reopened ledger differs:\n%+v\nwant\n%+v", got, sales)
	}
	if _, err := m2.Buy(offeringOf("legacy"), "squared", "quality", 2); err != nil {
		t.Fatal(err)
	}
}
