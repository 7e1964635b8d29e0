package market

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nimbus/internal/pricing"
	"nimbus/internal/rng"
	"nimbus/internal/telemetry"
)

// Broker mediates between sellers and buyers: it lists offerings, serves
// price–error curves, and executes purchases by perturbing the pre-trained
// optimal instance — no retraining per sale, which is what makes the
// marketplace real-time (Section 1, "Our Solution").
//
// A Broker is safe for concurrent use, and built so purchases scale with
// offering count: the ledger is partitioned into brokerShards shards keyed
// by offering hash, so sales of different offerings never share a lock,
// and the read-heavy browse path (Menu, Offering, saleTerms) is lock-free —
// it loads one atomically-published immutable snapshot.
type Broker struct {
	// menu is the browse-path state: offerings, the sorted menu, the
	// commission rate and the journal handle, published as an immutable
	// snapshot. Readers pay one atomic load; writers clone-and-swap under
	// regmu.
	menu atomic.Pointer[menuSnapshot]

	// regmu serializes snapshot writers (List, SetCommission, SetJournal,
	// SetTelemetry). Readers never take it.
	regmu sync.Mutex

	// shards partition the sale ledger and its running aggregates by
	// offering hash; see Broker.shard.
	shards [brokerShards]shard

	// tel is the broker's sale-path instrumentation; brokerTelemetry's
	// handles are nil-safe, so an uninstrumented broker pays only nil
	// checks on the hot path. Deliberately not lock-guarded: SetTelemetry
	// runs at startup before the broker serves.
	tel brokerTelemetry
}

// brokerShards is the ledger partition count. Offerings hash onto shards,
// so the worst case — every buyer hammering one offering — degrades to the
// old single-lock behavior for that offering only, while a multi-offering
// mix spreads across independent locks, journal queues and noise sources.
const brokerShards = 16

// shard is one ledger partition: the sales of the offerings that hash
// here, their running financial aggregates, a noise source, and the
// commit queue that group-orders journal appends with ledger appends.
type shard struct {
	mu      sync.RWMutex
	sales   []Purchase                // guarded by mu
	books   map[string]*offeringBooks // guarded by mu; running per-offering totals
	fees    float64                   // guarded by mu; commission running total
	revenue float64                   // guarded by mu; gross running total
	payout  float64                   // guarded by mu; seller-proceeds running total

	// src is this shard's sale-time noise source. Per-shard streams keep
	// draws replayable (seeded at NewBroker) without a global rng lock.
	src *rng.Locked

	// jmu guards the shard's commit queue. The queue exists so that the
	// write-ahead pair (journal append, then ledger append) keeps one
	// order per shard without holding any lock across the journal I/O:
	// concurrent sales enqueue under jmu, one caller becomes the batch's
	// leader, journals the whole batch with jmu released, then appends the
	// batch to the ledger in enqueue order. jmu is never held together
	// with mu, but the declared order documents that jmu work precedes mu
	// work on the sale path:
	//
	//lint:lockorder jmu < mu
	jmu      sync.Mutex
	jcond    *sync.Cond   // signals batch completion; waiters re-check their batch
	jbatch   *commitBatch // guarded by jmu; the batch accumulating sales
	jleading bool         // guarded by jmu; a leader is journaling a batch
}

// offeringBooks is one offering's running financial totals. An offering
// hashes onto exactly one shard, so its books live whole in that shard —
// Statement merges them without ever rescanning the ledger.
type offeringBooks struct {
	sales  int
	gross  float64
	fees   float64
	payout float64
}

// commitBatch is one shard's in-flight group of sales. Its fields are
// owned by jmu until the batch is stolen by its leader; recs and sales
// are then read only by that leader until done is set.
type commitBatch struct {
	recs  [][]byte
	sales []Purchase
	// err is the whole-batch verdict: the journal takes a batch
	// all-or-nothing.
	err  error
	done bool
}

// menuSnapshot is the immutable browse-path state. A published snapshot
// is never mutated; writers build a fresh one and swap the pointer, so
// Menu/Offering/saleTerms never block on a lock and never observe a
// partial update.
// The snapshot is immutable once Stored: writers clone it (cloneMenu),
// mutate the clone, and republish, so readers on the Buy path never see
// a half-updated menu.
//
//lint:immutable published via b.menu (atomic.Pointer); clone-mutate-Store only
type menuSnapshot struct {
	offerings  map[string]*Offering
	names      []string // sorted menu, precomputed at publish time
	commission float64
	journal    SaleJournal
}

// SaleJournal is the broker's durability hook: an append-only log that
// must make a run of encoded Purchases durable, all or nothing, before
// the sales become visible in the ledger. The shard commit queue hands it
// one batch per flush. internal/journal's *Journal satisfies it directly.
type SaleJournal interface {
	AppendMany(recs [][]byte) error
}

// ErrJournal wraps a failure to make a sale durable. The sale is refused:
// a purchase the crash-recovery story cannot replay must not be handed to
// the buyer.
var ErrJournal = errors.New("market: sale journal append failed")

// SetJournal directs every subsequent purchase through j (write-ahead:
// append first, then ledger). A nil j turns journaling back off. Set it
// at startup, after replaying recovered sales.
func (b *Broker) SetJournal(j SaleJournal) {
	b.regmu.Lock()
	defer b.regmu.Unlock()
	next := b.cloneMenu()
	next.journal = j
	b.menu.Store(next)
}

// ReplaySale appends a recovered purchase to its shard's ledger — and its
// running aggregates — without drawing noise, charging, or re-journaling:
// it is the restart-time inverse of finalize, fed from the journal.
// Per-offering sale counters are not re-incremented — telemetry counts
// this process's sales, the ledger counts all of them.
func (b *Broker) ReplaySale(p Purchase) {
	b.shard(p.Offering).record(p)
}

// brokerTelemetry bundles the broker's metric handles so the hot path
// never goes through registry lookups.
type brokerTelemetry struct {
	reg       *telemetry.Registry
	revenue   *telemetry.FloatCounter
	fees      *telemetry.FloatCounter
	noiseDraw *telemetry.Histogram
}

// SetTelemetry points the broker's sale metrics at reg: purchase counts
// per offering, revenue and commission totals, rejected purchases by
// reason, and the noise-draw latency histogram. Call before serving; the
// handles are swapped under regmu.
func (b *Broker) SetTelemetry(reg *telemetry.Registry) {
	reg.Help("nimbus_purchases_total", "Completed sales by offering.")
	reg.Help("nimbus_revenue_total", "Gross revenue across all sales.")
	reg.Help("nimbus_broker_fees_total", "Commission kept by the broker.")
	reg.Help("nimbus_purchase_rejects_total", "Purchases refused, by reason.")
	reg.Help("nimbus_noise_draw_seconds", "Latency of per-sale noise perturbation.")
	b.regmu.Lock()
	defer b.regmu.Unlock()
	b.tel = brokerTelemetry{
		reg:       reg,
		revenue:   reg.FloatCounter("nimbus_revenue_total"),
		fees:      reg.FloatCounter("nimbus_broker_fees_total"),
		noiseDraw: reg.Histogram("nimbus_noise_draw_seconds", nil),
	}
	// Existing listings get their per-offering sale counter attached now;
	// later listings get theirs in List. Caching the handle on the
	// offering keeps registry lookups off the sale path. The offerings in
	// the published snapshot are read concurrently by the Buy path, so
	// each gets the counter on a clone and the whole menu is republished.
	next := b.cloneMenu()
	for name, o := range next.offerings {
		oc := *o
		//lint:ignore telemetry-label-literal offering names come from the seller-curated menu, not from buyer requests, so the series set is bounded by listings
		oc.sales = reg.Counter("nimbus_purchases_total", "offering", o.Name)
		next.offerings[name] = &oc
	}
	b.menu.Store(next)
}

// recordReject classifies a failed purchase for telemetry. It keeps label
// cardinality bounded by mapping errors onto a fixed reason set.
func (b *Broker) recordReject(err error) {
	if b.tel.reg == nil || err == nil {
		return
	}
	reason := "invalid"
	switch {
	case errors.Is(err, ErrUnknownOffering):
		reason = "unknown-offering"
	case errors.Is(err, pricing.ErrUnattainable):
		reason = "unattainable"
	case errors.Is(err, pricing.ErrOverBudget):
		reason = "over-budget"
	case errors.Is(err, ErrJournal):
		reason = "journal"
	}
	//lint:ignore telemetry-label-literal reason is mapped onto the fixed four-value set above before it reaches the registry
	b.tel.reg.Counter("nimbus_purchase_rejects_total", "reason", reason).Inc()
}

// Purchase is a completed sale: the sold instance plus its receipt.
type Purchase struct {
	// Offering and Loss identify what was bought.
	Offering string  `json:"offering"`
	Loss     string  `json:"loss"`
	X        float64 `json:"x"`     // purchased quality (1/NCP)
	NCP      float64 `json:"ncp"`   // noise control parameter δ
	Price    float64 `json:"price"` // amount charged
	// BrokerFee is the broker's commission (Figure 1: the broker "gets a
	// cut from the seller for each sale"); SellerProceeds is the rest.
	BrokerFee      float64 `json:"broker_fee"`
	SellerProceeds float64 `json:"seller_proceeds"`
	// ExpectedError is the curve's expected reporting error at X.
	ExpectedError float64 `json:"expected_error"`
	// Weights is the noisy model instance delivered to the buyer.
	Weights []float64 `json:"weights"`
}

// ErrUnknownOffering is wrapped when a buyer names an unlisted offering.
var ErrUnknownOffering = errors.New("market: unknown offering")

// NewBroker returns an empty broker whose sale-time noise is seeded with
// seed. Each shard derives its own stream from the seed, so draws stay
// replayable without a broker-global rng lock.
func NewBroker(seed int64) *Broker {
	b := &Broker{}
	for i := range b.shards {
		sh := &b.shards[i]
		sh.src = rng.NewLocked(seed + int64(i))
		sh.jcond = sync.NewCond(&sh.jmu)
		// No other goroutine can reach b yet, but books is mu-guarded, so
		// honor the contract anyway — one uncontended lock at startup.
		sh.mu.Lock()
		sh.books = make(map[string]*offeringBooks)
		sh.mu.Unlock()
	}
	b.menu.Store(&menuSnapshot{offerings: map[string]*Offering{}})
	return b
}

// shard maps an offering name onto its ledger partition (FNV-1a).
func (b *Broker) shard(offering string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(offering); i++ {
		h ^= uint32(offering[i])
		h *= 16777619
	}
	return &b.shards[h%brokerShards]
}

// cloneMenu copies the published snapshot so a writer can mutate the copy
// and publish it. Caller holds regmu (which is what makes read-copy-update
// safe against concurrent writers).
func (b *Broker) cloneMenu() *menuSnapshot {
	cur := b.menu.Load()
	next := &menuSnapshot{
		offerings:  make(map[string]*Offering, len(cur.offerings)+1),
		names:      cur.names,
		commission: cur.commission,
		journal:    cur.journal,
	}
	for k, v := range cur.offerings {
		next.offerings[k] = v
	}
	return next
}

// SetCommission sets the broker's cut of every sale as a fraction in
// [0, 1). It applies to subsequent purchases; existing ledger entries keep
// the rate they were sold under.
func (b *Broker) SetCommission(rate float64) error {
	if rate < 0 || rate >= 1 {
		return fmt.Errorf("market: commission %v outside [0, 1)", rate)
	}
	b.regmu.Lock()
	defer b.regmu.Unlock()
	next := b.cloneMenu()
	next.commission = rate
	b.menu.Store(next)
	return nil
}

// List runs the full pipeline for a new offering and adds it to the menu.
// The returned offering is also retrievable by name.
func (b *Broker) List(cfg OfferingConfig) (*Offering, error) {
	o, err := newOffering(cfg)
	if err != nil {
		return nil, err
	}
	b.regmu.Lock()
	defer b.regmu.Unlock()
	next := b.cloneMenu()
	if _, dup := next.offerings[o.Name]; dup {
		return nil, fmt.Errorf("market: offering %s already listed", o.Name)
	}
	if b.tel.reg != nil {
		//lint:ignore telemetry-label-literal offering names come from the seller-curated menu, not from buyer requests, so the series set is bounded by listings
		o.sales = b.tel.reg.Counter("nimbus_purchases_total", "offering", o.Name)
	}
	next.offerings[o.Name] = o
	names := make([]string, 0, len(next.offerings))
	for name := range next.offerings {
		names = append(names, name)
	}
	sort.Strings(names)
	next.names = names
	b.menu.Store(next)
	return o, nil
}

// Menu returns the listed offering names, sorted. Lock-free: one atomic
// snapshot load plus a copy of the precomputed menu.
func (b *Broker) Menu() []string {
	return append([]string(nil), b.menu.Load().names...)
}

// Offering looks up a listed offering by name. Lock-free.
func (b *Broker) Offering(name string) (*Offering, error) {
	o, ok := b.menu.Load().offerings[name]
	if !ok {
		//lint:allocok refusal path: the request is being rejected, not served
		return nil, fmt.Errorf("market: %q: %w", name, ErrUnknownOffering)
	}
	return o, nil
}

// buyMode selects which of the paper's three purchase options buy
// executes. An enum instead of a pick-closure keeps the per-request
// path free of closure allocations.
type buyMode uint8

const (
	buyAtQuality buyMode = iota
	buyErrorBudget
	buyPriceBudget
)

// BuyAtQuality executes the buyer's first option: purchase the version at
// quality x on the (offering, loss) curve.
func (b *Broker) BuyAtQuality(offering, loss string, x float64) (*Purchase, error) {
	return b.buy(offering, loss, buyAtQuality, x)
}

// BuyWithErrorBudget executes the buyer's second option: the cheapest
// version whose expected error is at most budget.
func (b *Broker) BuyWithErrorBudget(offering, loss string, budget float64) (*Purchase, error) {
	return b.buy(offering, loss, buyErrorBudget, budget)
}

// BuyWithPriceBudget executes the buyer's third option: the most accurate
// version whose price is within budget.
func (b *Broker) BuyWithPriceBudget(offering, loss string, budget float64) (*Purchase, error) {
	return b.buy(offering, loss, buyPriceBudget, budget)
}

// buy resolves the offering and curve, picks the purchase point per the
// buyer's option, and finalizes the sale, recording any refusal for
// telemetry.
//
//lint:hotpath per-request purchase path; Figure 1's interactive loop
func (b *Broker) buy(offering, loss string, mode buyMode, arg float64) (*Purchase, error) {
	o, err := b.Offering(offering)
	if err != nil {
		b.recordReject(err)
		return nil, err
	}
	c, err := o.Curve(loss)
	if err != nil {
		b.recordReject(err)
		return nil, err
	}
	var pt pricing.PriceErrorPoint
	switch mode {
	case buyAtQuality:
		pt = c.PointAt(arg)
	case buyErrorBudget:
		pt, err = c.PointForErrorBudget(arg)
	default:
		pt, err = c.PointForPriceBudget(arg)
	}
	if err != nil {
		b.recordReject(err)
		return nil, err
	}
	return b.finalize(o, loss, pt)
}

// finalize samples the noisy instance from the offering's shard stream,
// makes the sale durable (when a journal is set, the encoded purchase is
// appended and acknowledged before it becomes visible), records it in the
// shard ledger and returns the purchase. The purchase record is marshalled
// here, outside every lock — only the journal I/O and the ledger append
// are serialized, and only within the offering's shard.
//
//lint:hotpath per-sale critical section between quote and acknowledgment
func (b *Broker) finalize(o *Offering, loss string, pt pricing.PriceErrorPoint) (*Purchase, error) {
	if pt.X <= 0 {
		//lint:allocok refusal path: the request is being rejected, not served
		err := fmt.Errorf("market: purchase at non-positive quality %v", pt.X)
		b.recordReject(err)
		return nil, err
	}
	sh := b.shard(o.Name)
	delta := 1 / pt.X
	drawStart := time.Now()
	weights := o.Mechanism.Perturb(o.Optimal, delta, sh.src.Split())
	b.tel.noiseDraw.Observe(time.Since(drawStart).Seconds())
	fee, j := b.saleTerms(pt.Price)
	p := Purchase{
		Offering:       o.Name,
		Loss:           loss,
		X:              pt.X,
		NCP:            delta,
		Price:          pt.Price,
		BrokerFee:      fee,
		SellerProceeds: pt.Price - fee,
		ExpectedError:  pt.Error,
		Weights:        weights,
	}
	if j != nil {
		rec, err := MarshalSale(p)
		if err == nil {
			err = sh.commit(j, rec, p)
		}
		if err != nil {
			//lint:allocok failure path: the sale did not go through
			err = fmt.Errorf("%w: %v", ErrJournal, err)
			b.recordReject(err)
			return nil, err
		}
	} else {
		sh.record(p)
	}
	o.sales.Inc()
	b.tel.revenue.Add(pt.Price)
	b.tel.fees.Add(fee)
	return &p, nil
}

// saleTerms snapshots the commission owed on price and the journal handle
// from one menu snapshot, so a concurrent SetCommission/SetJournal cannot
// split the pair. Lock-free.
func (b *Broker) saleTerms(price float64) (fee float64, j SaleJournal) {
	snap := b.menu.Load()
	return snap.commission * price, snap.journal
}

// commit runs one sale through the shard's group-commit queue: write-ahead
// (journal append acknowledged first), then visible (ledger append), with
// per-shard journal order equal to per-shard ledger order. The sale joins
// the forming batch; the first caller that finds no flush in flight leads
// the batch — one journal call and one ledger splice for everyone —
// while later arrivals accumulate the next batch. No lock is held across
// the journal I/O.
//
//lint:hotpath every durable sale serializes through the shard's commit queue
func (sh *shard) commit(j SaleJournal, rec []byte, p Purchase) error {
	sh.jmu.Lock()
	if sh.jbatch == nil {
		//lint:allocok one batch header per flush window, amortized over every sale in the batch
		sh.jbatch = &commitBatch{}
	}
	bt := sh.jbatch
	//lint:allocok batch slices grow toward the flush window's size; the doubling amortizes across the batch
	bt.recs = append(bt.recs, rec)
	//lint:allocok same amortized growth as recs above
	bt.sales = append(bt.sales, p)
	for sh.jleading && !bt.done {
		sh.jcond.Wait()
	}
	if bt.done {
		// Another caller led our batch while we waited; its verdict is
		// ours.
		err := bt.err
		sh.jmu.Unlock()
		return err
	}
	// No leader in flight and our batch not yet flushed: lead it.
	sh.jleading = true
	sh.jbatch = nil
	sh.jmu.Unlock()

	sh.flush(j, bt)

	sh.jmu.Lock()
	bt.done = true
	sh.jleading = false
	sh.jcond.Broadcast()
	sh.jmu.Unlock()
	return bt.err
}

// flush makes one batch durable and, on success, visible: one journal
// call for the whole batch, then one ledger splice in journal order.
func (sh *shard) flush(j SaleJournal, bt *commitBatch) {
	if err := j.AppendMany(bt.recs); err != nil {
		bt.err = err
		return
	}
	sh.recordBatch(bt.sales)
}

// record appends one purchase to the shard ledger and aggregates.
func (sh *shard) record(p Purchase) {
	sh.mu.Lock()
	sh.recordLocked(p)
	sh.mu.Unlock()
}

// recordBatch appends a run of purchases under one lock acquisition.
func (sh *shard) recordBatch(ps []Purchase) {
	sh.mu.Lock()
	for _, p := range ps {
		sh.recordLocked(p)
	}
	sh.mu.Unlock()
}

// recordLocked appends the purchase to the ledger and folds it into the
// running aggregates, so Payouts/TotalFees/TotalRevenue never rescan the
// ledger. Caller holds mu.
//
//lint:holds mu
func (sh *shard) recordLocked(p Purchase) {
	//lint:allocok the ledger is the product; slice doubling amortizes across the shard's sale history
	sh.sales = append(sh.sales, p)
	bk := sh.books[p.Offering]
	if bk == nil {
		//lint:allocok one books entry per offering for the shard's lifetime, amortized over every sale of that offering
		bk = &offeringBooks{}
		sh.books[p.Offering] = bk
	}
	bk.sales++
	bk.gross += p.Price
	bk.fees += p.BrokerFee
	bk.payout += p.SellerProceeds
	sh.fees += p.BrokerFee
	sh.revenue += p.Price
	sh.payout += p.SellerProceeds
}

// Payouts returns the seller proceeds accumulated per offering — what the
// broker owes each seller after taking its cut. The result is a fresh map
// merged from the shards' running books; no ledger rescan.
func (b *Broker) Payouts() map[string]float64 {
	out := make(map[string]float64)
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.RLock()
		for name, bk := range sh.books {
			out[name] += bk.payout
		}
		sh.mu.RUnlock()
	}
	return out
}

// TotalFees sums the broker's commission earnings from the shard
// aggregates.
func (b *Broker) TotalFees() float64 {
	var s float64
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.RLock()
		s += sh.fees
		sh.mu.RUnlock()
	}
	return s
}

// TotalRevenue sums gross revenue from the shard aggregates.
func (b *Broker) TotalRevenue() float64 {
	var s float64
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.RLock()
		s += sh.revenue
		sh.mu.RUnlock()
	}
	return s
}

// Sales returns a copy of the sale ledger: each shard's sales in order,
// shards concatenated in index order. Within a shard the order is exactly
// the order sales were acknowledged (and journaled); across shards there
// is no global order — concurrent sales of different offerings never
// synchronized with each other in the first place.
func (b *Broker) Sales() []Purchase {
	out := make([]Purchase, 0, b.SaleCount())
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.RLock()
		out = append(out, sh.sales...)
		sh.mu.RUnlock()
	}
	return out
}

// SaleCount reports the ledger length without copying the ledger.
func (b *Broker) SaleCount() int {
	n := 0
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.RLock()
		n += len(sh.sales)
		sh.mu.RUnlock()
	}
	return n
}
