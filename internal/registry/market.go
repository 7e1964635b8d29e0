package registry

import (
	"errors"
	"fmt"
	"sync"

	"nimbus/internal/journal"
	"nimbus/internal/market"
	"nimbus/internal/telemetry"
)

// Errors the registry reports; the server layer maps them onto HTTP codes.
var (
	// ErrBadID rejects a dataset ID that fails ValidID.
	ErrBadID = errors.New("registry: invalid dataset id")
	// ErrUnknownMarket means no live market has the requested ID.
	ErrUnknownMarket = errors.New("registry: unknown market")
	// ErrMarketExists rejects listing a dataset ID already live (or being
	// listed/delisted right now).
	ErrMarketExists = errors.New("registry: market already exists")
	// ErrDelisting rejects purchases on a market that is draining or gone;
	// in-flight buys complete, new ones get this.
	ErrDelisting = errors.New("registry: market is being delisted")
	// ErrTooManyMarkets enforces Config.MaxMarkets — the bound that keeps
	// the per-market telemetry label cardinality finite.
	ErrTooManyMarkets = errors.New("registry: market limit reached")
	// ErrSpecLimit rejects a listing whose grid, sample count or row
	// count exceeds MaxGrid, MaxSamples or MaxRows.
	ErrSpecLimit = errors.New("registry: listing parameter above its cap")
	// ErrBadOption rejects a purchase option outside the paper's three
	// interaction modes.
	ErrBadOption = errors.New("registry: unknown purchase option (want quality, error-budget or price-budget)")
)

// marketState is the lifecycle of one tenant market.
type marketState int

const (
	// stateOpen accepts purchases.
	stateOpen marketState = iota
	// stateDraining rejects new purchases while in-flight ones finish;
	// entered by Delist and Close.
	stateDraining
	// stateClosed is terminal: drained, journal compacted and closed.
	stateClosed
)

// Market is one tenant's live marketplace: its own sharded broker, pricing
// curves, and (when the registry is durable) its own journal directory.
// Markets are created by Registry.List or recovered by Open, and torn down
// by Delist — callers outside the package interact with the exported
// fields read-only and purchase through Buy, which participates in the
// drain protocol.
type Market struct {
	// ID is the dataset ID the market is keyed by.
	ID string
	// Spec is the normalized listing the market was built from.
	Spec Spec
	// Broker is the tenant's own sharded broker, carrying exactly the
	// offerings this tenant listed.
	Broker *market.Broker

	jnl *journal.Journal // nil when the registry is memory-only

	mu       sync.Mutex
	cond     *sync.Cond  // signaled when inflight drops to 0 while draining
	inflight int         // guarded by mu; purchases between acquire and release
	state    marketState // guarded by mu

	revenue *telemetry.FloatCounter // per-market gross revenue; nil without telemetry
}

// newMarket wires the lifecycle plumbing around a freshly built broker.
//
//lint:transfers the Market owns the journal from here; Market.close is the release path
func newMarket(spec Spec, b *market.Broker, jnl *journal.Journal, reg *telemetry.Registry) *Market {
	m := &Market{ID: spec.ID, Spec: spec, Broker: b, jnl: jnl, state: stateOpen}
	m.cond = sync.NewCond(&m.mu)
	if reg != nil {
		// The market label is buyer-invisible: IDs pass ValidID and the
		// live set is capped at Config.MaxMarkets, so the series set is
		// bounded by listings, not by request traffic.
		//lint:ignore telemetry-label-literal market IDs pass ValidID and the live set is capped at Config.MaxMarkets, so label cardinality is bounded by listings, not requests
		m.revenue = reg.FloatCounter("nimbus_market_revenue_total", "market", spec.ID)
		reg.Help("nimbus_market_revenue_total", "Gross sale revenue per tenant market.")
	}
	return m
}

// acquire registers an in-flight purchase; it fails once the market has
// started draining so Delist can guarantee the ledger is quiescent before
// the final compaction.
func (m *Market) acquire() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state != stateOpen {
		return fmt.Errorf("%w: %s", ErrDelisting, m.ID)
	}
	m.inflight++
	return nil
}

// release retires an in-flight purchase and wakes the drainer when the
// last one finishes.
func (m *Market) release() {
	m.mu.Lock()
	m.inflight--
	if m.inflight == 0 && m.state != stateOpen {
		m.cond.Broadcast()
	}
	m.mu.Unlock()
}

// drain flips the market to draining and blocks until every in-flight
// purchase has released. Idempotent; callers then own the quiescent
// broker and journal.
func (m *Market) drain() {
	m.mu.Lock()
	if m.state == stateOpen {
		m.state = stateDraining
	}
	for m.inflight > 0 {
		m.cond.Wait()
	}
	m.mu.Unlock()
}

// closed marks the market terminally closed (journal compacted and shut).
func (m *Market) setClosed() {
	m.mu.Lock()
	m.state = stateClosed
	m.mu.Unlock()
}

// Buy executes one purchase in the tenant's market. option selects the
// paper's interaction mode: "quality" (value is the offered grid point),
// "error-budget" or "price-budget" (value is the budget). The purchase is
// tracked in-flight so a concurrent Delist drains rather than races.
func (m *Market) Buy(offering, loss, option string, value float64) (*market.Purchase, error) {
	if !validOption(option) {
		return nil, fmt.Errorf("%w: %q", ErrBadOption, option)
	}
	if err := m.acquire(); err != nil {
		return nil, err
	}
	defer m.release()
	var p *market.Purchase
	var err error
	switch option {
	case "quality":
		p, err = m.Broker.BuyAtQuality(offering, loss, value)
	case "error-budget":
		p, err = m.Broker.BuyWithErrorBudget(offering, loss, value)
	default: // price-budget; validOption already vetted the set
		p, err = m.Broker.BuyWithPriceBudget(offering, loss, value)
	}
	if err != nil {
		return nil, err
	}
	if m.revenue != nil {
		m.revenue.Add(p.Price)
	}
	return p, nil
}

// Statement reports the tenant's accounting from its broker's running
// books.
func (m *Market) Statement() *market.Statement { return m.Broker.Statement() }
