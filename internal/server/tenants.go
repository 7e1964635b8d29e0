package server

import (
	"errors"
	"net/http"

	"nimbus/internal/registry"
)

// The multi-tenant API surface (NewMulti only). Dataset IDs are path
// segments, matched by Go 1.22 ServeMux wildcards:
//
//	POST   /api/v1/datasets                 list a dataset (train + price + open)
//	GET    /api/v1/datasets                 all live datasets with their books
//	GET    /api/v1/datasets/{id}            one dataset's spec, offerings and books
//	DELETE /api/v1/datasets/{id}            delist: drain, compact, archive
//	GET    /api/v1/datasets/{id}/menu       the tenant's own menu
//	GET    /api/v1/datasets/{id}/curve      price–error curve, tenant-scoped
//	POST   /api/v1/datasets/{id}/buy        purchase inside one tenant market
//	GET    /api/v1/datasets/{id}/stats      the tenant's books
//	GET    /api/v1/datasets/{id}/statement  the tenant's accounting report

// WithTenantRate gives every tenant market its own purchase budget: a
// token bucket per dataset ID (not per client), so one tenant's flash
// crowd cannot starve the rest of the marketplace. Applies to the
// tenant-scoped buy route in multi mode.
func WithTenantRate(rate float64, burst int) Option {
	return func(s *Server) { s.tenantRL = NewRateLimiter(rate, burst) }
}

// registerTenantRoutes mounts the dataset lifecycle API; called from
// NewMulti only.
func (s *Server) registerTenantRoutes() {
	s.mux.HandleFunc("POST /api/v1/datasets", s.handleListDataset)
	s.mux.HandleFunc("GET /api/v1/datasets", s.handleDatasets)
	s.mux.HandleFunc("GET /api/v1/datasets/{id}", s.handleDataset)
	s.mux.HandleFunc("DELETE /api/v1/datasets/{id}", s.handleDelistDataset)
	s.mux.HandleFunc("GET /api/v1/datasets/{id}/menu", s.handleTenantMenu)
	s.mux.HandleFunc("GET /api/v1/datasets/{id}/curve", s.handleTenantCurve)
	s.mux.HandleFunc("POST /api/v1/datasets/{id}/buy", s.handleTenantBuy)
	s.mux.HandleFunc("GET /api/v1/datasets/{id}/stats", s.handleTenantStats)
	s.mux.HandleFunc("GET /api/v1/datasets/{id}/statement", s.handleTenantStatement)
}

// ListDatasetRequest is the POST /api/v1/datasets body: the listing spec
// plus, for CSV sources, the file contents inline.
type ListDatasetRequest struct {
	registry.Spec
	// Data is the raw CSV text for CSV-sourced specs.
	Data string `json:"data,omitempty"`
}

// DatasetResponse describes one live dataset market.
type DatasetResponse struct {
	Spec      registry.Spec `json:"spec"`
	Offerings []string      `json:"offerings"`
	Sales     int           `json:"sales"`
	Gross     float64       `json:"gross"`
}

// DatasetsResponse is the GET /api/v1/datasets payload: one row per live
// market, plus the marketplace totals.
type DatasetsResponse struct {
	Datasets []registry.MarketStats `json:"datasets"`
	Markets  int                    `json:"markets"`
	Sales    int                    `json:"sales"`
	Gross    float64                `json:"gross"`
}

func datasetResponse(m *registry.Market) DatasetResponse {
	st := m.Statement()
	return DatasetResponse{
		Spec:      m.Spec,
		Offerings: m.Broker.Menu(),
		Sales:     st.Sales,
		Gross:     st.Gross,
	}
}

func (s *Server) handleListDataset(w http.ResponseWriter, r *http.Request) {
	var req ListDatasetRequest
	if !s.decodeBody(w, r, maxListBody, "list", &req) {
		return
	}
	var csvData []byte
	if req.CSV {
		csvData = []byte(req.Data)
	} else if req.Data != "" {
		s.fail(w, http.StatusBadRequest, errors.New("data supplied for a generator source"))
		return
	}
	m, err := s.registry.List(req.Spec, csvData)
	if err != nil {
		switch {
		case errors.Is(err, registry.ErrMarketExists), errors.Is(err, registry.ErrDelisting):
			s.fail(w, http.StatusConflict, err)
		case errors.Is(err, registry.ErrTooManyMarkets):
			s.fail(w, http.StatusServiceUnavailable, err)
		default:
			s.fail(w, http.StatusBadRequest, err)
		}
		return
	}
	s.logf("nimbus: listed dataset %s (%d offerings)", m.ID, len(m.Broker.Menu()))
	writeJSON(w, http.StatusCreated, datasetResponse(m))
}

func (s *Server) handleDatasets(w http.ResponseWriter, _ *http.Request) {
	st := s.registry.Stats()
	resp := DatasetsResponse{
		Datasets: st.PerMarket,
		Markets:  st.Markets,
		Sales:    st.Sales,
		Gross:    st.Gross,
	}
	if resp.Datasets == nil {
		resp.Datasets = []registry.MarketStats{}
	}
	writeJSON(w, http.StatusOK, resp)
}

// tenant resolves the {id} path segment to a live market, answering 404
// on a miss.
func (s *Server) tenant(w http.ResponseWriter, r *http.Request) *registry.Market {
	m, err := s.registry.Get(r.PathValue("id"))
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return nil
	}
	return m
}

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	m := s.tenant(w, r)
	if m == nil {
		return
	}
	writeJSON(w, http.StatusOK, datasetResponse(m))
}

func (s *Server) handleDelistDataset(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.registry.Delist(id)
	if err != nil {
		switch {
		case errors.Is(err, registry.ErrUnknownMarket):
			s.fail(w, http.StatusNotFound, err)
		case errors.Is(err, registry.ErrDelisting):
			s.fail(w, http.StatusConflict, err)
		default:
			s.fail(w, http.StatusBadRequest, err)
		}
		return
	}
	s.logf("nimbus: delisted dataset %s (%d sales, gross %.2f)", id, st.Sales, st.Gross)
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleTenantMenu(w http.ResponseWriter, r *http.Request) {
	m := s.tenant(w, r)
	if m == nil {
		return
	}
	writeJSON(w, http.StatusOK, MenuResponse{Offerings: menuEntries(m.Broker.Menu(), m.Broker.Offering)})
}

func (s *Server) handleTenantCurve(w http.ResponseWriter, r *http.Request) {
	m := s.tenant(w, r)
	if m == nil {
		return
	}
	offering := r.URL.Query().Get("offering")
	loss := r.URL.Query().Get("loss")
	if offering == "" || loss == "" {
		s.fail(w, http.StatusBadRequest, errors.New("offering and loss query parameters are required"))
		return
	}
	o, err := m.Broker.Offering(offering)
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

func (s *Server) handleTenantBuy(w http.ResponseWriter, r *http.Request) {
	m := s.tenant(w, r)
	if m == nil {
		return
	}
	if s.tenantRL != nil && !s.tenantRL.allow(m.ID) {
		if s.reg != nil {
			// m.ID names a live market (the Get above proved it), so the
			// label set is bounded by the registry's MaxMarkets cap.
			//lint:ignore telemetry-label-literal the market label names a live market resolved above; the registry caps live markets at MaxMarkets
			s.reg.Counter("nimbus_market_throttled_total", "market", m.ID).Inc()
			s.reg.Help("nimbus_market_throttled_total", "Purchases rejected by the per-tenant rate budget.")
		}
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: "tenant rate budget exceeded"})
		return
	}
	var req BuyRequest
	if !s.decodeBody(w, r, maxBuyBody, "buy", &req) {
		return
	}
	p, err := m.Buy(req.Offering, req.Loss, req.Option, req.Value)
	if err != nil {
		s.failBuy(w, err)
		return
	}
	s.logf("nimbus: sold %s (%s) at x=%.3f for %.2f [market %s]", p.Offering, p.Loss, p.X, p.Price, m.ID)
	writeJSON(w, http.StatusOK, p)
}

func (s *Server) handleTenantStats(w http.ResponseWriter, r *http.Request) {
	m := s.tenant(w, r)
	if m == nil {
		return
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		Offerings:    len(m.Broker.Menu()),
		Sales:        m.Broker.SaleCount(),
		TotalRevenue: m.Broker.TotalRevenue(),
		BrokerFees:   m.Broker.TotalFees(),
		Payouts:      m.Broker.Payouts(),
	})
}

func (s *Server) handleTenantStatement(w http.ResponseWriter, r *http.Request) {
	m := s.tenant(w, r)
	if m == nil {
		return
	}
	writeJSON(w, http.StatusOK, m.Statement())
}
