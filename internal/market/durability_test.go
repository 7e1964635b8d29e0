package market

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"nimbus/internal/journal"
	"nimbus/internal/pricing"
	"nimbus/internal/telemetry"
)

func TestSaleRecordRoundTrip(t *testing.T) {
	b := NewBroker(91)
	o := listRegression(t, b)
	p, err := b.BuyAtQuality(o.Name, "squared", 4)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := MarshalSale(*p)
	if err != nil {
		t.Fatal(err)
	}
	// v2 layout: format byte, two length-prefixed strings, six floats, a
	// weight count and the weights, in one exact-size buffer.
	want := 1 + 1 + len(p.Offering) + 1 + len(p.Loss) + 6*8 + 1 + 8*len(p.Weights)
	if rec[0] != saleRecordV2 || len(rec) != want || cap(rec) != want {
		t.Fatalf("record starts %#02x, len %d cap %d; want 0x02, exact size %d", rec[0], len(rec), cap(rec), want)
	}
	back, err := UnmarshalSale(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, *p) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", back, *p)
	}
}

// samplePurchase is a synthetic sale with d distinct weights.
func samplePurchase(d int) Purchase {
	p := Purchase{
		Offering:       "YearMSD/linear-regression",
		Loss:           "squared",
		X:              4,
		NCP:            0.25,
		Price:          36.38278292942143,
		BrokerFee:      3.638278292942143,
		SellerProceeds: 32.74450463647929,
		ExpectedError:  1.748552802955973,
		Weights:        make([]float64, d),
	}
	for i := range p.Weights {
		p.Weights[i] = math.Sin(float64(i)+0.5) * 1.7
	}
	return p
}

func mustMarshalSale(t testing.TB, p Purchase) []byte {
	t.Helper()
	rec, err := MarshalSale(p)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestUnmarshalSaleV1 reads the JSON records builds before the binary
// record wrote. Each is decoded exactly: re-encoding the decoded purchase
// with the v1 envelope reproduces the fixture bytes.
func TestUnmarshalSaleV1(t *testing.T) {
	for i, rec := range readV1Fixture(t) {
		p, err := UnmarshalSale(rec)
		if err != nil {
			t.Fatalf("fixture record %d: %v", i, err)
		}
		back, err := json.Marshal(saleRecordV1JSON{Version: 1, Purchase: p})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, rec) {
			t.Fatalf("fixture record %d does not survive decode:\n%s\n%s", i, back, rec)
		}
	}
}

// v2Damage returns named corruptions of a valid v2 record, one per way the
// decoder must refuse it.
func v2Damage(t testing.TB) map[string][]byte {
	t.Helper()
	const d = 2
	p := samplePurchase(d)
	valid := mustMarshalSale(t, p)
	splice := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	floatsAt := 1 + 1 + len(p.Offering) + 1 + len(p.Loss)
	countAt := floatsAt + 6*8

	cases := map[string][]byte{
		"trailing byte":       splice(valid, []byte{0}),
		"version byte 0x00":   splice([]byte{0x00}, valid[1:]),
		"version byte 0x01":   splice([]byte{0x01}, valid[1:]),
		"version byte 0x03":   splice([]byte{0x03}, valid[1:]),
		"offering past end":   splice(valid[:1], []byte{byte(len(valid))}, valid[2:]),
		"loss past end":       splice(valid[:2+len(p.Offering)], []byte{0x7f}, valid[3+len(p.Offering):]),
		"weight count +1":     splice(valid[:countAt], []byte{d + 1}, valid[countAt+1:]),
		"weight count -1":     splice(valid[:countAt], []byte{d - 1}, valid[countAt+1:]),
		"weight count 2^63":   splice(valid[:countAt], []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, valid[countAt+1:]),
		"uvarint overflow":    splice(valid[:1], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, valid[2:]),
		"overlong uvarint":    splice(valid[:1], []byte{byte(len(p.Offering)) | 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, valid[2:]),
		"overlong count zero": splice(valid[:countAt], []byte{0x80, 0x00}),
	}
	for n := 0; n < len(valid); n++ {
		cases[fmt.Sprintf("truncated to %d bytes", n)] = valid[:n]
	}
	bad := map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)}
	for name, f := range bad {
		at := func(off int) []byte {
			rec := bytes.Clone(valid)
			binary.LittleEndian.PutUint64(rec[off:], math.Float64bits(f))
			return rec
		}
		for i, field := range saleFloatNames {
			cases[fmt.Sprintf("%s %s", name, field)] = at(floatsAt + 8*i)
		}
		for i := 0; i < d; i++ {
			cases[fmt.Sprintf("%s weight %d", name, i)] = at(countAt + 1 + 8*i)
		}
	}
	return cases
}

func TestUnmarshalSaleRejects(t *testing.T) {
	for _, rec := range []string{
		`{nope`,
		`{"v": 99, "purchase": {}}`,
		`{"v": 1, "purchase": {}, "extra": true}`,
		`{"v": 1, "purchase": {"offering": "x", "bogus_field": 1}}`,
		` {"v": 1, "purchase": {}}`,
	} {
		if _, err := UnmarshalSale([]byte(rec)); err == nil {
			t.Errorf("record %q accepted", rec)
		}
	}
	for name, rec := range v2Damage(t) {
		if p, err := UnmarshalSale(rec); err == nil {
			t.Errorf("%s: record %x accepted as %+v", name, rec, p)
		}
	}
}

// FuzzUnmarshalSale feeds arbitrary bytes to the decoder: it must never
// panic, and every v2 record it accepts must re-encode to the same bytes,
// so a decoded sale is exactly what was journaled.
func FuzzUnmarshalSale(f *testing.F) {
	f.Add(mustMarshalSale(f, samplePurchase(9)))
	f.Add(mustMarshalSale(f, samplePurchase(0)))
	for _, rec := range v2Damage(f) {
		f.Add(rec)
	}
	for _, rec := range readV1Fixture(f) {
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		p, err := UnmarshalSale(rec)
		if err != nil || rec[0] != saleRecordV2 {
			return
		}
		back, err := MarshalSale(p)
		if err != nil {
			t.Fatalf("accepted record %x does not re-encode: %v", rec, err)
		}
		if !bytes.Equal(back, rec) {
			t.Fatalf("accepted record %x re-encodes as %x", rec, back)
		}
	})
}

// TestMarshalSaleRefusesNonFinite pins the refusal the JSON encoder gave
// for free: a sale whose price or weights are not finite is not journaled,
// and the broker turns it away with ErrJournal, leaving journal and ledger
// untouched.
func TestMarshalSaleRefusesNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := samplePurchase(3)
		p.Price = f
		if _, err := MarshalSale(p); err == nil {
			t.Errorf("price %v encoded", f)
		}
		p = samplePurchase(3)
		p.Weights[2] = f
		if _, err := MarshalSale(p); err == nil {
			t.Errorf("weight %v encoded", f)
		}
	}

	b := NewBroker(97)
	o := listRegression(t, b)
	rj := &recordingJournal{}
	b.SetJournal(rj)
	if _, err := b.finalize(o, "squared", pricing.PriceErrorPoint{X: 2, Error: 1, Price: math.NaN()}); !errors.Is(err, ErrJournal) {
		t.Fatalf("NaN price: want ErrJournal, got %v", err)
	}
	o.Optimal[0] = math.Inf(1)
	if _, err := b.BuyAtQuality(o.Name, "squared", 2); !errors.Is(err, ErrJournal) {
		t.Fatalf("infinite weights: want ErrJournal, got %v", err)
	}
	if len(rj.recs) != 0 || b.SaleCount() != 0 || b.TotalRevenue() != 0 {
		t.Fatalf("refused sales left %d journal records, %d ledger entries, revenue %v", len(rj.recs), b.SaleCount(), b.TotalRevenue())
	}
}

// TestSaleRecordAllocs holds the codec to its allocation budget: one
// exact-size buffer to encode, and to decode at most the two strings and
// the weights.
func TestSaleRecordAllocs(t *testing.T) {
	p := samplePurchase(90)
	if n := testing.AllocsPerRun(100, func() { recSink, _ = MarshalSale(p) }); n != 1 {
		t.Errorf("MarshalSale: %v allocs, want 1", n)
	}
	rec := mustMarshalSale(t, p)
	if n := testing.AllocsPerRun(100, func() { saleSink, _ = UnmarshalSale(rec) }); n > 3 {
		t.Errorf("UnmarshalSale: %v allocs, want at most 3", n)
	}
}

var (
	recSink  []byte
	saleSink Purchase
)

func BenchmarkMarshalSale(b *testing.B) {
	for _, d := range []int{9, 90} {
		p := samplePurchase(d)
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				recSink, _ = MarshalSale(p)
			}
		})
	}
}

func BenchmarkUnmarshalSale(b *testing.B) {
	for _, d := range []int{9, 90} {
		rec := mustMarshalSale(b, samplePurchase(d))
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(rec)))
			for i := 0; i < b.N; i++ {
				saleSink, _ = UnmarshalSale(rec)
			}
		})
	}
}

// recordingJournal captures appends; fail makes every append refuse.
type recordingJournal struct {
	mu   sync.Mutex
	recs [][]byte
	fail error
}

func (r *recordingJournal) AppendMany(recs [][]byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail != nil {
		return r.fail
	}
	for _, rec := range recs {
		r.recs = append(r.recs, append([]byte(nil), rec...))
	}
	return nil
}

func TestJournalAppendFailureRejectsSale(t *testing.T) {
	reg := telemetry.NewRegistry()
	b := NewBroker(92)
	b.SetTelemetry(reg)
	o := listRegression(t, b)
	rj := &recordingJournal{fail: errors.New("disk full")}
	b.SetJournal(rj)

	if _, err := b.BuyAtQuality(o.Name, "squared", 3); !errors.Is(err, ErrJournal) {
		t.Fatalf("want ErrJournal, got %v", err)
	}
	if n := len(b.Sales()); n != 0 {
		t.Fatalf("unjournaled sale became visible: %d ledger entries", n)
	}
	if b.TotalRevenue() != 0 {
		t.Fatal("unjournaled sale charged revenue")
	}
	if got := reg.Counter("nimbus_purchase_rejects_total", "reason", "journal").Value(); got != 1 {
		t.Fatalf("journal reject not counted: %d", got)
	}

	// Journal heals: the next sale goes through and is appended.
	rj.mu.Lock()
	rj.fail = nil
	rj.mu.Unlock()
	if _, err := b.BuyAtQuality(o.Name, "squared", 3); err != nil {
		t.Fatal(err)
	}
	if len(rj.recs) != 1 || len(b.Sales()) != 1 {
		t.Fatalf("recovered journal: %d records, %d sales", len(rj.recs), len(b.Sales()))
	}
}

// TestJournalOrderMatchesLedger hammers the buy path concurrently and
// checks the invariant the write-ahead design promises: the journal's
// record sequence is exactly the ledger's sale sequence.
func TestJournalOrderMatchesLedger(t *testing.T) {
	b := NewBroker(93)
	o := listRegression(t, b)
	rj := &recordingJournal{}
	b.SetJournal(rj)

	const workers, buys = 4, 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < buys; i++ {
				if _, err := b.BuyAtQuality(o.Name, "squared", float64(1+(w+i)%5)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	sales := b.Sales()
	if len(sales) != workers*buys || len(rj.recs) != len(sales) {
		t.Fatalf("%d sales, %d journal records", len(sales), len(rj.recs))
	}
	for i, rec := range rj.recs {
		p, err := UnmarshalSale(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, sales[i]) {
			t.Fatalf("journal record %d does not match ledger entry %d", i, i)
		}
	}
}

// buyN makes n purchases at varying qualities and returns the ledger.
func buyN(t *testing.T, b *Broker, name string, n int) []Purchase {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := b.BuyAtQuality(name, "squared", float64(1+i%5)); err != nil {
			t.Fatal(err)
		}
	}
	return b.Sales()
}

// recoverInto replays a journal directory into a fresh broker, exactly as
// cmd/nimbusd and the registry do at startup.
func recoverInto(t *testing.T, dir string) *Broker {
	t.Helper()
	j, err := journal.Open(dir, journal.Options{Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	fresh := NewBroker(1)
	if _, err := RecoverFromJournal(fresh, j); err != nil {
		t.Fatal(err)
	}
	return fresh
}

// TestEveryJournalPrefixRecoversALedgerPrefix is the crash-recovery
// acceptance property: journal N purchases, then for every prefix
// truncation of the journal bytes, recovery yields a ledger equal to some
// prefix of the sales sequence, with TotalRevenue matching the replayed
// receipts exactly.
func TestEveryJournalPrefixRecoversALedgerPrefix(t *testing.T) {
	master := t.TempDir()
	j, err := journal.Open(master, journal.Options{Sync: journal.SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(94)
	if err := b.SetCommission(0.1); err != nil {
		t.Fatal(err)
	}
	o := listRegression(t, b)
	b.SetJournal(j)
	sales := buyN(t, b, o.Name, 6)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	checkEveryPrefix(t, master, sales)
}

// checkEveryPrefix truncates the journal in master at every byte of every
// segment and checks that each cut recovers a prefix of sales, growing
// with the cut, and the whole journal recovers all of them.
func checkEveryPrefix(t *testing.T, master string, sales []Purchase) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(master, "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	if len(segs) < 2 {
		t.Fatalf("want the journal spread over segments, got %v", segs)
	}
	bodies := make([][]byte, len(segs))
	for i, s := range segs {
		if bodies[i], err = os.ReadFile(s); err != nil {
			t.Fatal(err)
		}
	}

	dir := filepath.Join(t.TempDir(), "cut")
	prevK := -1
	for segIdx := range segs {
		for cut := 0; cut <= len(bodies[segIdx]); cut++ {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < segIdx; i++ {
				if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[i])), bodies[i], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[segIdx])), bodies[segIdx][:cut], 0o644); err != nil {
				t.Fatal(err)
			}

			fresh := recoverInto(t, dir)
			got := fresh.Sales()
			k := len(got)
			if k > 0 && !reflect.DeepEqual(got, sales[:k]) {
				t.Fatalf("seg %d cut %d: recovered ledger is not a prefix of the sales sequence", segIdx, cut)
			}
			var receipts float64
			for _, p := range got {
				receipts += p.Price
			}
			if fresh.TotalRevenue() != receipts {
				t.Fatalf("seg %d cut %d: TotalRevenue %v != replayed receipts %v", segIdx, cut, fresh.TotalRevenue(), receipts)
			}
			if k < prevK {
				t.Fatalf("seg %d cut %d: recovered %d sales, previously %d", segIdx, cut, k, prevK)
			}
			prevK = k
		}
	}
	if prevK != len(sales) {
		t.Fatalf("full journal recovered %d of %d sales", prevK, len(sales))
	}
}

// readV1Fixture returns the records in testdata/sales-v1.jsonl, one per
// line. They are JSON sale records (v1) as builds before the binary record
// wrote them: NewBroker(96) with commission 0.1 listed listRegression and
// made buyN(4) sales, and each was encoded with that build's MarshalSale.
func readV1Fixture(t testing.TB) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "sales-v1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
}

// TestMixedFormatJournalRecovery recovers a journal an upgrade leaves
// behind: the early segments hold v1 JSON records from an earlier build,
// the later ones the v2 records this build appends after recovering them.
// The recovered books must be exact, and so must every prefix.
func TestMixedFormatJournalRecovery(t *testing.T) {
	master := t.TempDir()
	opts := journal.Options{Sync: journal.SyncNever, SegmentBytes: 512}
	j, err := journal.Open(master, opts)
	if err != nil {
		t.Fatal(err)
	}
	v1 := readV1Fixture(t)
	for _, rec := range v1 {
		if err := j.AppendMany([][]byte{rec}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// The upgraded broker recovers the v1 sales, then trades on in v2.
	if j, err = journal.Open(master, opts); err != nil {
		t.Fatal(err)
	}
	b := NewBroker(96)
	if err := b.SetCommission(0.1); err != nil {
		t.Fatal(err)
	}
	o := listRegression(t, b)
	if n, err := RecoverFromJournal(b, j); err != nil || n != len(v1) {
		t.Fatalf("recovered %d v1 records (%v), want %d", n, err, len(v1))
	}
	b.SetJournal(j)
	sales := buyN(t, b, o.Name, 4)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var formats []byte
	if j, err = journal.Open(master, opts); err != nil {
		t.Fatal(err)
	}
	if err := j.Replay(func(rec []byte) error { formats = append(formats, rec[0]); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if want := "{{{{\x02\x02\x02\x02"; string(formats) != want {
		t.Fatalf("journal record formats %q, want %q", formats, want)
	}

	fresh := recoverInto(t, master)
	if got, want := fresh.Statement(), b.Statement(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered statement %+v, want %+v", got, want)
	}
	got := fresh.Sales()
	if len(got) != len(sales) {
		t.Fatalf("recovered %d sales, want %d", len(got), len(sales))
	}
	for i := range sales {
		if !samePurchaseBits(got[i], sales[i]) {
			t.Fatalf("sale %d recovered as %+v, want %+v", i, got[i], sales[i])
		}
	}
	checkEveryPrefix(t, master, sales)
}

// samePurchaseBits reports whether a and b are the same sale down to the
// bit pattern of every float.
func samePurchaseBits(a, b Purchase) bool {
	fa := [6]float64{a.X, a.NCP, a.Price, a.BrokerFee, a.SellerProceeds, a.ExpectedError}
	fb := [6]float64{b.X, b.NCP, b.Price, b.BrokerFee, b.SellerProceeds, b.ExpectedError}
	if a.Offering != b.Offering || a.Loss != b.Loss || len(a.Weights) != len(b.Weights) {
		return false
	}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
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

// TestSnapshotPlusTailRecovery covers the compacted case: some sales live
// in the snapshot, later ones in the journal tail, and recovery stitches
// them back together.
func TestSnapshotPlusTailRecovery(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(dir, journal.Options{Sync: journal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(95)
	o := listRegression(t, b)
	b.SetJournal(j)
	buyN(t, b, o.Name, 3)
	if err := j.Compact(b.SaveLedger); err != nil {
		t.Fatal(err)
	}
	buyN(t, b, o.Name, 2)
	sales := b.Sales()
	if len(sales) != 5 {
		t.Fatalf("%d sales", len(sales))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := recoverInto(t, dir)
	if !reflect.DeepEqual(fresh.Sales(), sales) {
		t.Fatal("snapshot+tail recovery does not reproduce the ledger")
	}
	if fresh.TotalRevenue() != b.TotalRevenue() {
		t.Fatalf("revenue %v vs %v", fresh.TotalRevenue(), b.TotalRevenue())
	}
}
