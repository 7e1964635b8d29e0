package market

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"nimbus/internal/journal"
	"nimbus/internal/pricing"
)

// Persistence: the broker's financial state (the sale ledger) and the
// audit-relevant shape of each offering can be saved and restored as JSON,
// so a production broker survives restarts without losing its books. The
// reproducible parts are relisted from source on startup (see cmd/nimbusd
// and internal/registry): datasets are regenerated or re-parsed and h* is
// refit, while the error curves may come from a content-keyed
// cache (OfferingConfig.CurveCache). Only the ledger is irreplaceable
// state.

// LedgerSnapshot is the serialized sale ledger.
type LedgerSnapshot struct {
	// Version guards the on-disk format.
	Version int        `json:"version"`
	Sales   []Purchase `json:"sales"`
}

// ledgerVersion is the current snapshot format.
const ledgerVersion = 1

// SaveLedger writes the sale ledger as JSON.
func (b *Broker) SaveLedger(w io.Writer) error {
	snap := LedgerSnapshot{Version: ledgerVersion, Sales: b.Sales()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		return fmt.Errorf("market: saving ledger: %w", err)
	}
	return nil
}

// RestoreLedger replaces the broker's ledger with a previously saved
// snapshot. It refuses snapshots from unknown format versions and refuses
// to clobber a non-empty ledger (restore belongs at startup).
func (b *Broker) RestoreLedger(r io.Reader) error {
	var snap LedgerSnapshot
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&snap); err != nil {
		return fmt.Errorf("market: reading ledger snapshot: %w", err)
	}
	if snap.Version != ledgerVersion {
		return fmt.Errorf("market: ledger snapshot version %d, want %d", snap.Version, ledgerVersion)
	}
	// Hold every shard lock so the emptiness check and the routed inserts
	// are one atomic step; restore runs at startup, so the locks are
	// uncontended.
	for i := range b.shards {
		b.shards[i].mu.Lock()
	}
	defer func() {
		for i := range b.shards {
			b.shards[i].mu.Unlock()
		}
	}()
	for i := range b.shards {
		if len(b.shards[i].sales) > 0 {
			return errors.New("market: refusing to restore over a non-empty ledger")
		}
	}
	// Route each sale to its offering's shard; per-shard relative order is
	// preserved, so a save→restore round-trip reproduces Sales() exactly.
	for _, p := range snap.Sales {
		b.shard(p.Offering).recordLocked(p)
	}
	return nil
}

// Sale records. Each journaled purchase is one record, and its first byte
// names the format:
//
//	v2 (written): 0x02, then Offering and Loss as uvarint length + bytes,
//	    then X, NCP, Price, BrokerFee, SellerProceeds, ExpectedError as
//	    little-endian float64 bits, then a uvarint weight count and the
//	    weights as little-endian float64 bits.
//	v1 (read only): a JSON envelope {"v":1,"purchase":{...}}, which
//	    always starts with '{'.
//
// Journals written before v2 still recover; nothing writes v1 any more.
const (
	saleRecordV2 = 0x02
	saleRecordV1 = '{'
)

// saleRecordV1JSON is the v1 envelope. The version field guards the record
// format the same way LedgerSnapshot.Version guards the snapshot format.
type saleRecordV1JSON struct {
	Version  int      `json:"v"`
	Purchase Purchase `json:"purchase"`
}

// saleFloatNames names a purchase's scalar fields, in v2 record order, for
// error messages.
var saleFloatNames = [6]string{"x", "ncp", "price", "broker_fee", "seller_proceeds", "expected_error"}

// uvarintLen is the length of x's canonical uvarint encoding.
func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// MarshalSale encodes one purchase as a v2 journal record. Like the JSON
// encoder before it, it refuses non-finite floats: a sale whose books
// cannot be stated must not be journaled.
//
//lint:allocok one exact-size buffer per sale, the record itself; a refused sale also allocates its error
func MarshalSale(p Purchase) ([]byte, error) {
	fs := [6]float64{p.X, p.NCP, p.Price, p.BrokerFee, p.SellerProceeds, p.ExpectedError}
	n := 1 + uvarintLen(uint64(len(p.Offering))) + len(p.Offering) +
		uvarintLen(uint64(len(p.Loss))) + len(p.Loss) +
		8*len(fs) + uvarintLen(uint64(len(p.Weights))) + 8*len(p.Weights)
	rec := make([]byte, 0, n)
	rec = append(rec, saleRecordV2)
	rec = binary.AppendUvarint(rec, uint64(len(p.Offering)))
	rec = append(rec, p.Offering...)
	rec = binary.AppendUvarint(rec, uint64(len(p.Loss)))
	rec = append(rec, p.Loss...)
	for i, f := range fs {
		if !finite(f) {
			return nil, fmt.Errorf("market: encoding sale record: non-finite %s %v", saleFloatNames[i], f)
		}
		rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(f))
	}
	rec = binary.AppendUvarint(rec, uint64(len(p.Weights)))
	for i, w := range p.Weights {
		if !finite(w) {
			return nil, fmt.Errorf("market: encoding sale record: non-finite weight %d: %v", i, w)
		}
		rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(w))
	}
	return rec, nil
}

// UnmarshalSale decodes a journal record produced by MarshalSale, or a v1
// JSON record written by an earlier build. It refuses anything it does not
// fully understand — unknown versions, unknown JSON fields, truncation,
// trailing bytes, non-canonical lengths, non-finite values — mirroring
// RestoreLedger: replaying a record we do not fully understand could
// misstate the books.
func UnmarshalSale(rec []byte) (Purchase, error) {
	return unmarshalSale(rec, nil)
}

// unmarshalSale is UnmarshalSale with a v2 record's names interned
// against menu (see internNames), which may be nil.
func unmarshalSale(rec []byte, menu *menuSnapshot) (Purchase, error) {
	if len(rec) == 0 {
		return Purchase{}, errors.New("market: decoding sale record: empty record")
	}
	switch rec[0] {
	case saleRecordV2:
		return unmarshalSaleV2(rec[1:], menu)
	case saleRecordV1:
		return unmarshalSaleV1(rec)
	}
	return Purchase{}, fmt.Errorf("market: decoding sale record: unknown format byte %#02x", rec[0])
}

// unmarshalSaleV2 decodes a v2 record body (the bytes after the format
// byte).
func unmarshalSaleV2(buf []byte, menu *menuSnapshot) (Purchase, error) {
	d := saleDecoder{buf: buf}
	var p Purchase
	offering := d.bytes("offering length")
	loss := d.bytes("loss length")
	p.Offering, p.Loss = internNames(menu, offering, loss)
	var fs [6]float64
	for i := range fs {
		fs[i] = d.float(saleFloatNames[i])
	}
	p.X, p.NCP, p.Price, p.BrokerFee, p.SellerProceeds, p.ExpectedError = fs[0], fs[1], fs[2], fs[3], fs[4], fs[5]
	if n := d.uvarint("weight count"); d.err == nil && n > 0 {
		if n > uint64(len(d.buf))/8 {
			d.fail("weight count %d overruns the record", n)
		} else {
			p.Weights = make([]float64, n)
			for i := range p.Weights {
				w := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[8*i:]))
				if !finite(w) {
					d.fail("non-finite weight %d: %v", i, w)
					break
				}
				p.Weights[i] = w
			}
			d.buf = d.buf[8*n:]
		}
	}
	if d.err == nil && len(d.buf) > 0 {
		d.fail("%d trailing bytes", len(d.buf))
	}
	if d.err != nil {
		return Purchase{}, d.err
	}
	return p, nil
}

// saleDecoder consumes a v2 record body front to back; the first failure
// sticks and later reads return zero values.
type saleDecoder struct {
	buf []byte
	err error
}

func (d *saleDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("market: decoding sale record: "+format, args...)
	}
}

// uvarint reads one canonical uvarint. A non-minimal encoding is refused,
// so every accepted record re-encodes to the same bytes.
func (d *saleDecoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	switch {
	case n == 0:
		d.fail("truncated %s", what)
		return 0
	case n < 0 || n != uvarintLen(v):
		d.fail("malformed %s", what)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// bytes reads a uvarint length, named what, and returns that many bytes
// of the record.
func (d *saleDecoder) bytes(what string) []byte {
	n := d.uvarint(what)
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.fail("%s %d overruns the record", what, n)
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

// float reads one finite little-endian float64.
func (d *saleDecoder) float(what string) float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fail("truncated %s", what)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	if !finite(f) {
		d.fail("non-finite %s %v", what, f)
		return 0
	}
	d.buf = d.buf[8:]
	return f
}

// unmarshalSaleV1 decodes a v1 JSON record with the strictness it always
// had: unknown fields and versions are refused.
func unmarshalSaleV1(rec []byte) (Purchase, error) {
	var sr saleRecordV1JSON
	dec := json.NewDecoder(bytes.NewReader(rec))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sr); err != nil {
		return Purchase{}, fmt.Errorf("market: decoding sale record: %w", err)
	}
	if sr.Version != 1 {
		return Purchase{}, fmt.Errorf("market: sale record version %d, want 1", sr.Version)
	}
	return sr.Purchase, nil
}

// RecoverFromJournal rebuilds b's ledger from j: it restores the compacted
// snapshot, if any, then replays every record in the tail, v1 or v2. It
// returns how many records the tail replayed. Errors name the step that
// failed and leave the prefix to the caller. The caller switches b onto j
// (SetJournal) once it is done with recovery.
func RecoverFromJournal(b *Broker, j *journal.Journal) (replayed int, err error) {
	snap, ok, err := j.Snapshot()
	if err != nil {
		return 0, err
	}
	if ok {
		err := b.RestoreLedger(snap)
		if cerr := snap.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, fmt.Errorf("restoring journal snapshot: %w", err)
		}
	}
	menu := b.menu.Load()
	if err := j.Replay(func(rec []byte) error {
		p, err := unmarshalSale(rec, menu)
		if err != nil {
			return err
		}
		b.ReplaySale(p)
		replayed++
		return nil
	}); err != nil {
		return replayed, fmt.Errorf("replaying journal: %w", err)
	}
	return replayed, nil
}

// OfferingSnapshot is the audit view of one listing: everything a
// regulator (or the seller) needs to verify what was offered at which
// price, without the raw dataset.
type OfferingSnapshot struct {
	Name            string          `json:"name"`
	Model           string          `json:"model"`
	Mechanism       string          `json:"mechanism"`
	Losses          []string        `json:"losses"`
	PricePoints     []pricing.Point `json:"price_points"`
	ExpectedRevenue float64         `json:"expected_revenue"`
	ArbitrageFree   bool            `json:"arbitrage_free"`
}

// Snapshot captures the offering's audit view.
func (o *Offering) Snapshot() OfferingSnapshot {
	return OfferingSnapshot{
		Name:            o.Name,
		Model:           o.Model.Name(),
		Mechanism:       o.Mechanism.Name(),
		Losses:          o.LossNames(),
		PricePoints:     o.PriceFunc.Points(),
		ExpectedRevenue: o.ExpectedRevenue,
		ArbitrageFree:   o.PriceFunc.Validate() == nil,
	}
}

// SaveOfferings writes the audit snapshot of every listing as JSON.
func (b *Broker) SaveOfferings(w io.Writer) error {
	names := b.Menu()
	snaps := make([]OfferingSnapshot, 0, len(names))
	for _, name := range names {
		o, err := b.Offering(name)
		if err != nil {
			continue
		}
		snaps = append(snaps, o.Snapshot())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snaps); err != nil {
		return fmt.Errorf("market: saving offerings: %w", err)
	}
	return nil
}
