// Package server exposes a Nimbus broker over HTTP — the interactive
// marketplace surface of the SIGMOD demo. Buyers browse the menu, fetch
// price–error curves and purchase noisy model instances as JSON.
//
//	GET  /healthz                         liveness probe
//	GET  /metrics                         Prometheus text-format telemetry
//	GET  /api/v1/menu                     offerings with supported losses
//	GET  /api/v1/curve?offering=&loss=    the price–error curve
//	POST /api/v1/buy                      execute a purchase
//	GET  /api/v1/metrics                  telemetry snapshot as JSON
//
// The buy request body selects one of the paper's three purchase options:
//
//	{"offering": "...", "loss": "...", "option": "quality",      "value": 10}
//	{"offering": "...", "loss": "...", "option": "error-budget", "value": 0.5}
//	{"offering": "...", "loss": "...", "option": "price-budget", "value": 25}
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"

	"nimbus/internal/market"
	"nimbus/internal/pricing"
	"nimbus/internal/registry"
	"nimbus/internal/telemetry"
)

// Server is an http.Handler serving a broker — either one market (New) or
// a whole multi-tenant registry of them (NewMulti). The single-market API
// works identically in both modes; multi mode adds the tenant-scoped
// /api/v1/datasets surface and treats the legacy routes as the union
// across tenants (offering names embed the dataset ID, so they stay
// globally unique).
type Server struct {
	broker   *market.Broker     // single-market mode; nil under NewMulti
	registry *registry.Registry // multi-tenant mode; nil under New
	tenantRL *RateLimiter       // per-tenant purchase budget; nil unless WithTenantRate
	mux      *http.ServeMux
	logf     func(format string, args ...any)
	reg      *telemetry.Registry
}

// Option customizes a Server.
type Option func(*Server)

// WithLogger routes request logging; the default is log.Printf.
func WithLogger(logf func(format string, args ...any)) Option {
	return func(s *Server) { s.logf = logf }
}

// WithTelemetry exposes the registry at GET /metrics (Prometheus text
// format) and GET /api/v1/metrics (JSON snapshot). The same registry is
// typically shared with WithMiddleware, the rate limiter and the broker so
// one scrape covers the whole serving stack.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(s *Server) { s.reg = reg }
}

// New wraps a single broker in an HTTP API.
func New(b *market.Broker, opts ...Option) *Server {
	s := &Server{broker: b, mux: http.NewServeMux(), logf: log.Printf}
	for _, o := range opts {
		o(s)
	}
	s.registerCommon()
	return s
}

// NewMulti serves a multi-tenant registry: the single-market API becomes
// the cross-tenant union, and the /api/v1/datasets routes add listing,
// delisting and tenant-scoped browsing and buying.
func NewMulti(r *registry.Registry, opts ...Option) *Server {
	s := &Server{registry: r, mux: http.NewServeMux(), logf: log.Printf}
	for _, o := range opts {
		o(s)
	}
	s.registerCommon()
	s.registerTenantRoutes()
	return s
}

// registerCommon mounts the mode-independent API surface.
func (s *Server) registerCommon() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetricsProm)
	s.mux.HandleFunc("GET /api/v1/metrics", s.handleMetricsJSON)
	s.mux.HandleFunc("GET /api/v1/menu", s.handleMenu)
	s.mux.HandleFunc("GET /api/v1/curve", s.handleCurve)
	s.mux.HandleFunc("POST /api/v1/buy", s.handleBuy)
	s.mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /api/v1/statement", s.handleStatement)
	s.mux.HandleFunc("GET /api/v1/offerings", s.handleOfferings)
	s.registerUI()
}

// menuNames lists the purchasable offerings: the broker's menu, or in
// multi mode the union across every live market.
func (s *Server) menuNames() []string {
	if s.registry != nil {
		return s.registry.Menu()
	}
	return s.broker.Menu()
}

// offering resolves an offering by its global name in either mode.
func (s *Server) offering(name string) (*market.Offering, error) {
	if s.registry != nil {
		m, err := s.registry.ResolveOffering(name)
		if err != nil {
			return nil, err
		}
		return m.Broker.Offering(name)
	}
	return s.broker.Offering(name)
}

// doBuy executes one purchase in either mode. In multi mode the registry
// routes by offering name and participates in the delist drain protocol.
func (s *Server) doBuy(offering, loss, option string, value float64) (*market.Purchase, error) {
	if s.registry != nil {
		return s.registry.Buy(offering, loss, option, value)
	}
	switch option {
	case "quality":
		return s.broker.BuyAtQuality(offering, loss, value)
	case "error-budget":
		return s.broker.BuyWithErrorBudget(offering, loss, value)
	case "price-budget":
		return s.broker.BuyWithPriceBudget(offering, loss, value)
	default:
		return nil, fmt.Errorf("unknown option %q (want quality, error-budget or price-budget)", option)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// MenuEntry is one offering in the menu response.
type MenuEntry struct {
	Name            string   `json:"name"`
	Model           string   `json:"model"`
	Losses          []string `json:"losses"`
	Dataset         string   `json:"dataset"`
	TrainRows       int      `json:"train_rows"`
	TestRows        int      `json:"test_rows"`
	Features        int      `json:"features"`
	ExpectedRevenue float64  `json:"expected_revenue"`
}

// MenuResponse is the GET /api/v1/menu payload.
type MenuResponse struct {
	Offerings []MenuEntry `json:"offerings"`
}

// CurveResponse is the GET /api/v1/curve payload.
type CurveResponse struct {
	Offering string                    `json:"offering"`
	Loss     string                    `json:"loss"`
	Points   []pricing.PriceErrorPoint `json:"points"`
}

// BuyRequest is the POST /api/v1/buy body.
type BuyRequest struct {
	Offering string  `json:"offering"`
	Loss     string  `json:"loss"`
	Option   string  `json:"option"` // "quality", "error-budget" or "price-budget"
	Value    float64 `json:"value"`
}

// ErrorResponse is the error payload for all endpoints.
type ErrorResponse struct {
	Error string `json:"error"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// menuEntries assembles menu rows from offering names, skipping names
// that raced with a concurrent relisting or delisting.
func menuEntries(names []string, lookup func(string) (*market.Offering, error)) []MenuEntry {
	entries := make([]MenuEntry, 0, len(names))
	for _, name := range names {
		o, err := lookup(name)
		if err != nil {
			continue
		}
		stats := o.Pair.Stats()
		entries = append(entries, MenuEntry{
			Name:            o.Name,
			Model:           o.Model.Name(),
			Losses:          o.LossNames(),
			Dataset:         o.Pair.Name,
			TrainRows:       stats.N1,
			TestRows:        stats.N2,
			Features:        stats.D,
			ExpectedRevenue: o.ExpectedRevenue,
		})
	}
	return entries
}

func (s *Server) handleMenu(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, MenuResponse{Offerings: menuEntries(s.menuNames(), s.offering)})
}

func (s *Server) handleCurve(w http.ResponseWriter, r *http.Request) {
	offering := r.URL.Query().Get("offering")
	loss := r.URL.Query().Get("loss")
	if offering == "" || loss == "" {
		s.fail(w, http.StatusBadRequest, errors.New("offering and loss query parameters are required"))
		return
	}
	o, err := s.offering(offering)
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	c, err := o.Curve(loss)
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, CurveResponse{Offering: offering, Loss: loss, Points: c.Points()})
}

// Request body caps. A buy request is a few dozen bytes of JSON; a
// listing carries an uploaded CSV inline. They are variables only so the
// handler tests can exercise an overflow without a 32 MiB body.
var (
	maxBuyBody  int64 = 4 << 10
	maxListBody int64 = 32 << 20
)

// decodeBody decodes a JSON request body of at most limit bytes into v,
// rejecting unknown fields. On failure it answers 413 for an oversized
// body and 400 otherwise, and reports false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		s.fail(w, code, fmt.Errorf("decoding %s request: %w", what, err))
		return false
	}
	return true
}

func (s *Server) handleBuy(w http.ResponseWriter, r *http.Request) {
	var req BuyRequest
	if !s.decodeBody(w, r, maxBuyBody, "buy", &req) {
		return
	}
	p, err := s.doBuy(req.Offering, req.Loss, req.Option, req.Value)
	if err != nil {
		s.failBuy(w, err)
		return
	}
	s.logf("nimbus: sold %s (%s) at x=%.3f for %.2f", p.Offering, p.Loss, p.X, p.Price)
	writeJSON(w, http.StatusOK, p)
}

// failBuy maps purchase errors onto status codes; shared by the legacy
// and tenant-scoped buy handlers.
func (s *Server) failBuy(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, market.ErrUnknownOffering), errors.Is(err, registry.ErrUnknownMarket):
		s.fail(w, http.StatusNotFound, err)
	case errors.Is(err, registry.ErrDelisting):
		s.fail(w, http.StatusConflict, err)
	case errors.Is(err, pricing.ErrUnattainable), errors.Is(err, pricing.ErrOverBudget):
		s.fail(w, http.StatusUnprocessableEntity, err)
	default:
		s.fail(w, http.StatusBadRequest, err)
	}
}

// StatsResponse is the GET /api/v1/stats payload: the broker's books.
type StatsResponse struct {
	Offerings    int     `json:"offerings"`
	Sales        int     `json:"sales"`
	TotalRevenue float64 `json:"total_revenue"`
	// BrokerFees is the commission kept by the broker; Payouts is what
	// each offering's seller is owed.
	BrokerFees float64            `json:"broker_fees"`
	Payouts    map[string]float64 `json:"payouts"`
}

// statsResponse assembles the books in either mode; multi mode sums the
// per-market running aggregates and unions the payout maps (offering
// names are globally unique, so the union is collision-free).
func (s *Server) statsResponse() StatsResponse {
	if s.registry == nil {
		return StatsResponse{
			Offerings:    len(s.broker.Menu()),
			Sales:        s.broker.SaleCount(),
			TotalRevenue: s.broker.TotalRevenue(),
			BrokerFees:   s.broker.TotalFees(),
			Payouts:      s.broker.Payouts(),
		}
	}
	st := s.registry.Stats()
	payouts := make(map[string]float64)
	for _, id := range s.registry.IDs() {
		m, err := s.registry.Get(id)
		if err != nil {
			continue // delisted since IDs(); its rows are gone from the union too
		}
		for name, v := range m.Broker.Payouts() {
			payouts[name] = v
		}
	}
	return StatsResponse{
		Offerings:    st.Offerings,
		Sales:        st.Sales,
		TotalRevenue: st.Gross,
		BrokerFees:   st.Fees,
		Payouts:      payouts,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.statsResponse())
}

// statement builds the accounting report; multi mode concatenates the
// per-market statements (each O(offerings) from the running books) into
// one marketplace-wide report.
func (s *Server) statement() *market.Statement {
	if s.registry == nil {
		return s.broker.Statement()
	}
	merged := &market.Statement{}
	for _, id := range s.registry.IDs() {
		m, err := s.registry.Get(id)
		if err != nil {
			continue
		}
		st := m.Broker.Statement()
		merged.Lines = append(merged.Lines, st.Lines...)
		merged.Sales += st.Sales
		merged.Gross += st.Gross
		merged.BrokerFees += st.BrokerFees
		merged.Payouts += st.Payouts
	}
	sort.Slice(merged.Lines, func(i, j int) bool { return merged.Lines[i].Offering < merged.Lines[j].Offering })
	return merged
}

// handleStatement serves the per-offering accounting report.
func (s *Server) handleStatement(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.statement())
}

// handleOfferings serves the audit snapshots of every listing.
func (s *Server) handleOfferings(w http.ResponseWriter, _ *http.Request) {
	snaps := make([]market.OfferingSnapshot, 0)
	for _, name := range s.menuNames() {
		o, err := s.offering(name)
		if err != nil {
			continue
		}
		snaps = append(snaps, o.Snapshot())
	}
	writeJSON(w, http.StatusOK, snaps)
}

// handleMetricsProm serves the shared registry in Prometheus text format.
// With no registry configured the body is empty but still scrapeable.
func (s *Server) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.logf("nimbus: writing metrics: %v", err)
	}
}

// handleMetricsJSON serves the registry snapshot as JSON for dashboards
// and the load generator.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing to do but note it server-side.
		log.Printf("nimbus: encoding response: %v", err)
	}
}
