package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"nimbus/internal/dataset"
	"nimbus/internal/journal"
	"nimbus/internal/market"
	"nimbus/internal/ml"
	"nimbus/internal/noise"
	"nimbus/internal/opt"
	"nimbus/internal/pricing"
	"nimbus/internal/registry"
	"nimbus/internal/rng"
	"nimbus/internal/server"
	"nimbus/internal/telemetry"
)

// nimbusd's seeding defaults (its -scale, -seed, -samples and -grid flags)
// and its default -commission. The traced run rebuilds the daemon's
// markets in-process from these and checks the curves match the daemon's.
const (
	seedScale      = 1e-3
	seedBase       = 42
	seedSamples    = 200
	seedGrid       = 50
	seedCommission = 0.1
)

// passRequests is how many requests each in-process pass replays, at most.
const passRequests = 6000

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one request share Trace; Parent 0 marks a root.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	// Preallocated so recording a span allocates nothing and the heap
	// measurements around Market.Buy see only the buy's own allocations.
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<18)}
}

// open starts a span and returns its ID.
func (t *tracer) open(trace, parent int, name string) int {
	t.spans = append(t.spans, span{Trace: trace, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// close ends span id.
func (t *tracer) close(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// durations collects the durations of every span named name, in
// microseconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// total sums the durations of every span named name, in milliseconds.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, d := range t.durations(name) {
		sum += d / 1e3
	}
	return sum
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			//lint:ignore no-dropped-error the encode failure is what gets reported
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		//lint:ignore no-dropped-error the flush failure is what gets reported
		f.Close()
		return err
	}
	return f.Close()
}

// traced is the per-layer run. It first runs the workload against a live
// nimbusd once, for the daemon's journal and GC counters, and kills it
// with SIGKILL to leave a crashed data dir. It then builds the same stack
// in-process through the public API and replays the workload's requests
// in three passes — the HTTP handler, Market.Buy, and the buy path's
// stages called one by one — and finally reopens copies of the crashed
// dir.
func (b *bench) traced(ctx context.Context) error {
	b.probe("start")
	if _, err := b.start(ctx, filepath.Join(b.out, "data"), "nimbusd-0.log"); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	ts, err := b.tenants(ctx)
	if err != nil {
		return err
	}
	before, err := scrape(ctx, b.live.base)
	if err != nil {
		return err
	}
	if err := b.round(ctx, ts, 0, 1); err != nil {
		return err
	}
	if err := b.reportLoad(); err != nil {
		return err
	}
	after, err := scrape(ctx, b.live.base)
	if err != nil {
		return err
	}
	b.daemonCounters(before, after)
	crashed, err := b.books.audit(ctx, b.live.base)
	if err != nil {
		return err
	}
	b.stopDaemon()
	b.probe("after the daemon's round")

	tr := newTracer()
	defer func() {
		if err := tr.write(filepath.Join(b.out, "spans.jsonl")); err != nil {
			b.note("writing spans: %v", err)
		}
	}()
	specs := seededSpecs()
	if err := listingStages(tr, specs); err != nil {
		return err
	}
	reg, h, closeStack, err := b.inProcessStack(tr, specs)
	if err != nil {
		return err
	}
	defer closeStack()
	if err := sameCurves(reg, ts); err != nil {
		return err
	}
	reqs := drawRequests(b.stream(255), b.w, ts, passRequests)
	deadline := time.Duration(b.opts.seconds) * time.Second / 4
	if err := b.handlerPass(tr, h, reqs, deadline); err != nil {
		return err
	}
	if err := b.buyPass(tr, reg, reqs, deadline); err != nil {
		return err
	}
	if err := b.stagePass(tr, reg, reqs, deadline); err != nil {
		return err
	}
	if err := b.replay(tr, crashed); err != nil {
		return err
	}
	b.layerMetrics(tr)
	return nil
}

// daemonCounters sets the ratios of the daemon's journal and GC counters
// over the traffic phases.
func (b *bench) daemonCounters(before, after telemetry.Snapshot) {
	delta := func(name string) float64 { return after.Counters[name] - before.Counters[name] }
	appends := delta("nimbus_journal_appends_total")
	sales := float64(b.load.openSales + b.load.satSales)
	b.set("journal.fsyncs_per_sale", delta("nimbus_journal_fsyncs_total")/appends)
	b.set("journal.batch_records", appends/delta("nimbus_journal_group_commits_total"))
	b.set("journal.append_bytes_per_sale", delta("nimbus_journal_append_bytes_total")/appends)
	gc := after.Gauges["go_gc_cycles_total"] - before.Gauges["go_gc_cycles_total"]
	b.set("go.gc_cycles_per_ksale", 1000*gc/sales)
	b.note("daemon counters over %v sales: %v journal appends, %v fsyncs, %v group commits, %v GC cycles",
		sales, appends, delta("nimbus_journal_fsyncs_total"), delta("nimbus_journal_group_commits_total"), gc)
}

// seededSpecs are the registry specs nimbusd lists on an empty data dir.
func seededSpecs() []registry.Spec {
	var specs []registry.Spec
	for i, name := range registry.GeneratorNames() {
		specs = append(specs, registry.Spec{
			ID:        name,
			Owner:     "nimbus",
			Generator: name,
			Rows:      dataset.Table3Rows(name, seedScale),
			Grid:      seedGrid,
			Samples:   seedSamples,
			Seed:      seedBase + int64(i),
		})
	}
	return specs
}

// listingStages times the listing pipeline's stages for every seeded spec
// through the public functions the registry composes: dataset generation,
// the fit of h*, the Monte-Carlo error transform per reporting loss, and
// the revenue DP. Seeds follow the registry's derivation from Spec.Seed.
func listingStages(tr *tracer, specs []registry.Spec) error {
	for i, spec := range specs {
		id := tr.open(i, 0, "dataset.generate")
		cfg := dataset.GenConfig{Rows: spec.Rows, Seed: spec.Seed}
		var d *dataset.Dataset
		var err error
		switch spec.Generator {
		case "Simulated1":
			d = dataset.Simulated1(cfg)
		case "Simulated2":
			d = dataset.Simulated2(cfg)
		default:
			d, err = dataset.StandIn(spec.Generator, cfg)
		}
		tr.close(id)
		if err != nil {
			return err
		}
		pair, err := dataset.NewPair(d, rng.New(spec.Seed+1))
		if err != nil {
			return err
		}
		var model ml.Model = ml.LinearRegression{Ridge: 1e-4}
		if pair.Train.Task == dataset.Classification {
			model = ml.LogisticRegression{Ridge: 1e-4}
		}
		id = tr.open(i, 0, "ml.fit")
		optimal, err := model.Fit(pair.Train)
		tr.close(id)
		if err != nil {
			return err
		}
		id = tr.open(i, 0, "pricing.transform")
		var primary *pricing.ErrorCurve
		for k, loss := range ml.DefaultReportLosses(model) {
			ec, err := pricing.MonteCarloTransform(pricing.TransformConfig{
				Optimal: optimal, Loss: loss, Data: pair.Test, Mechanism: noise.Gaussian{},
				Xs: pricing.DefaultGrid(spec.Grid), Samples: spec.Samples, Seed: spec.Seed + 3 + int64(k),
			})
			if err != nil {
				tr.close(id)
				return err
			}
			if loss.Name() == model.TrainLoss().Name() {
				primary = ec
			}
		}
		tr.close(id)
		if primary == nil {
			return fmt.Errorf("%s: no error curve for the training loss", spec.ID)
		}
		id = tr.open(i, 0, "opt.dp")
		points := market.BuyerPointsFromResearch(primary, market.Research{
			Value:  func(e float64) float64 { return 100 / (1 + e) },
			Demand: func(float64) float64 { return 1 },
		})
		prob, err := opt.NewProblem(points)
		if err == nil {
			_, _, err = opt.MaximizeRevenueDP(prob)
		}
		tr.close(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// inProcessStack opens a registry on a fresh root with nimbusd's sync
// policy, lists every seeded spec, and wraps it in nimbusd's handler
// stack, its access log going to a file in the run dir.
func (b *bench) inProcessStack(tr *tracer, specs []registry.Spec) (*registry.Registry, http.Handler, func(), error) {
	tel := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(tel)
	reg, err := registry.Open(registry.Config{
		Root:       filepath.Join(b.out, "inprocess"),
		Commission: seedCommission,
		Sync:       journal.SyncGroup,
		Telemetry:  tel,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	logf, err := os.Create(filepath.Join(b.out, "inprocess-access.log"))
	if err != nil {
		//lint:ignore no-dropped-error the registry is still empty; the log file failure is what gets reported
		reg.Close()
		return nil, nil, nil, err
	}
	closeStack := func() {
		if err := reg.Close(); err != nil {
			b.note("closing the in-process registry: %v", err)
		}
		if err := logf.Close(); err != nil {
			b.note("closing the in-process access log: %v", err)
		}
	}
	for i, spec := range specs {
		id := tr.open(i, 0, "registry.list")
		_, err := reg.List(spec, nil)
		tr.close(id)
		if err != nil {
			closeStack()
			return nil, nil, nil, err
		}
	}
	lg := log.New(logf, "", log.LstdFlags).Printf
	h := server.WithMiddleware(server.NewMulti(reg, server.WithTelemetry(tel), server.WithLogger(lg)), lg, tel)
	return reg, h, closeStack, nil
}

// sameCurves checks that the in-process markets publish exactly the curves
// the daemon published, so the passes replay the daemon's workload.
func sameCurves(reg *registry.Registry, ts []*tenant) error {
	for _, t := range ts {
		m, err := reg.Get(t.id)
		if err != nil {
			return err
		}
		o, err := m.Broker.Offering(t.offering)
		if err != nil {
			return err
		}
		for _, c := range t.curves {
			pc, err := o.Curve(c.loss)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(pc.Points(), c.points) {
				return fmt.Errorf("in-process %s %s curve differs from nimbusd's: the seeding defaults changed", t.offering, c.loss)
			}
		}
	}
	return nil
}

// drawRequests draws n requests with the workload's open-loop mix.
func drawRequests(rnd *rng.Source, w workload, ts []*tenant, n int) []request {
	reqs := make([]request, 0, n)
	for len(reqs) < n {
		reqs = append(reqs, draw(rnd, w, ts))
	}
	return reqs
}

// handlerPass serves every request through the handler stack nimbusd
// runs: server.handle spans for buys, server.browse for reads.
func (b *bench) handlerPass(tr *tracer, h http.Handler, reqs []request, budget time.Duration) error {
	start := time.Now()
	var respBytes, n int
	for i := range reqs {
		r := &reqs[i]
		var hr *http.Request
		name := "server.browse"
		if r.isBuy() {
			hr = httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
			name = "server.handle"
		} else {
			hr = httptest.NewRequest(http.MethodGet, r.path, nil)
		}
		rec := httptest.NewRecorder()
		id := tr.open(i, 0, name)
		h.ServeHTTP(rec, hr)
		tr.close(id)
		b.attempted++
		if rec.Code != http.StatusOK {
			b.failed++
			continue
		}
		if r.isBuy() {
			respBytes += rec.Body.Len()
			n++
			var p market.Purchase
			if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
				b.violations = append(b.violations, fmt.Sprintf("handler pass buy %d: %v", i, err))
			} else if err := checkPurchase(r, &p); err != nil {
				b.violations = append(b.violations, fmt.Sprintf("handler pass buy %d: %v", i, err))
			}
		}
		if time.Since(start) > budget {
			break
		}
	}
	if n == 0 {
		return fmt.Errorf("handler pass: no buy answered 200")
	}
	b.set("server.resp_bytes", float64(respBytes)/float64(n))
	return nil
}

// buyPass calls registry Market.Buy for every buy request in blocks of 16
// calls, alternately with a span around each call and without spans (the
// block timed as a whole), so both sides of the tracing overhead see the
// same phase of the disk. Heap statistics around the whole pass give the
// allocations per buy, and the live heap after GC the state each sale
// retains; recording a span allocates nothing.
func (b *bench) buyPass(tr *tracer, reg *registry.Registry, reqs []request, budget time.Duration) error {
	// Markets are resolved up front, so the spans cover Market.Buy alone.
	type buy struct {
		m *registry.Market
		r *request
	}
	var buys []buy
	for i := range reqs {
		if r := &reqs[i]; r.isBuy() {
			m, err := reg.Get(r.market.id)
			if err != nil {
				return err
			}
			buys = append(buys, buy{m, r})
		}
	}
	do := func(bu buy) {
		b.attempted++
		if _, err := bu.m.Buy(bu.r.buy.Offering, bu.r.buy.Loss, bu.r.buy.Option, bu.r.buy.Value); err != nil {
			b.failed++
		}
	}
	const block = 16
	var on, off []float64 // per-call means of traced and untraced blocks, us
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	calls := 0
	start := time.Now()
	for k := 0; k+2*block <= len(buys) && time.Since(start) < budget; k += 2 * block {
		first := len(tr.spans)
		for j, bu := range buys[k : k+block] {
			id := tr.open(k+j, 0, "registry.buy")
			do(bu)
			tr.close(id)
		}
		sum := 0.0
		for _, s := range tr.spans[first:] {
			sum += float64(s.End-s.Start) / 1e3
		}
		on = append(on, sum/block)

		t := time.Now()
		for _, bu := range buys[k+block : k+2*block] {
			do(bu)
		}
		off = append(off, us(time.Since(t))/block)
		calls += 2 * block
	}
	if calls == 0 {
		return fmt.Errorf("buy pass: %d buys, too few for one pair of blocks", len(buys))
	}
	runtime.ReadMemStats(&ms1)
	b.set("market.buy_allocs", float64(ms1.Mallocs-ms0.Mallocs)/float64(calls))
	b.set("market.buy_bytes", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(calls))
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	b.set("market.retained_bytes_per_sale", float64(int64(ms1.HeapAlloc)-int64(ms0.HeapAlloc))/float64(calls))

	onQ, offQ := quartiles(on), quartiles(off)
	b.set("trace.overhead_pct", 100*(onQ[1]-offQ[1])/offQ[1])
	b.note("tracing overhead: Market.Buy %.4g us per call with spans (IQR %.4g-%.4g), %.4g us untraced (IQR %.4g-%.4g); medians of %d alternating pairs of %d-call blocks",
		onQ[1], onQ[0], onQ[2], offQ[1], offQ[0], offQ[2], len(on), block)
	return nil
}

// stagePass runs the buy path's stages as separate public calls on a
// journal of its own: request decode, quote, rng split, noise perturb, sale
// record marshal, journal append and response encode. Each is a span under
// a per-request root.
func (b *bench) stagePass(tr *tracer, reg *registry.Registry, reqs []request, budget time.Duration) error {
	jnl, err := journal.Open(filepath.Join(b.out, "stage-journal"), journal.Options{Sync: journal.SyncGroup})
	if err != nil {
		return err
	}
	//lint:ignore no-dropped-error the stage journal: its records are timed, never read back
	defer jnl.Close()
	src := rng.New(b.opts.seed)

	// Bytes per split, from heap statistics around a block of splits.
	var ms0, ms1 runtime.MemStats
	const splits = 1000
	runtime.ReadMemStats(&ms0)
	for k := 0; k < splits; k++ {
		src.Split()
	}
	runtime.ReadMemStats(&ms1)
	b.set("rng.split_bytes", float64(ms1.TotalAlloc-ms0.TotalAlloc)/splits)

	start := time.Now()
	var recBytes, n int
	var out bytes.Buffer
	for i := range reqs {
		r := &reqs[i]
		if !r.isBuy() {
			continue
		}
		m, err := reg.Get(r.market.id)
		if err != nil {
			return err
		}
		o, err := m.Broker.Offering(r.buy.Offering)
		if err != nil {
			return err
		}
		root := tr.open(i, 0, "buy.stages")

		id := tr.open(i, root, "server.decode")
		var br server.BuyRequest
		dec := json.NewDecoder(bytes.NewReader(r.body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&br)
		tr.close(id)
		if err != nil {
			return err
		}

		id = tr.open(i, root, "pricing.quote")
		var pt pricing.PriceErrorPoint
		c, err := o.Curve(br.Loss)
		if err == nil {
			switch br.Option {
			case "quality":
				pt = c.PointAt(br.Value)
			case "error-budget":
				pt, err = c.PointForErrorBudget(br.Value)
			default:
				pt, err = c.PointForPriceBudget(br.Value)
			}
		}
		tr.close(id)
		if err != nil {
			return fmt.Errorf("stage pass quote %d: %w", i, err)
		}

		id = tr.open(i, root, "rng.split")
		child := src.Split()
		tr.close(id)

		id = tr.open(i, root, "noise.perturb")
		weights := o.Mechanism.Perturb(o.Optimal, 1/pt.X, child)
		tr.close(id)

		fee := seedCommission * pt.Price
		p := market.Purchase{
			Offering: o.Name, Loss: br.Loss, X: pt.X, NCP: 1 / pt.X, Price: pt.Price,
			BrokerFee: fee, SellerProceeds: pt.Price - fee, ExpectedError: pt.Error, Weights: weights,
		}
		id = tr.open(i, root, "market.marshal")
		rec, err := market.MarshalSale(p)
		tr.close(id)
		if err != nil {
			return err
		}
		recBytes += len(rec)

		id = tr.open(i, root, "journal.append")
		err = jnl.AppendMany([][]byte{rec})
		tr.close(id)
		if err != nil {
			return err
		}

		id = tr.open(i, root, "server.encode")
		out.Reset()
		err = json.NewEncoder(&out).Encode(&p)
		tr.close(id)
		if err != nil {
			return err
		}
		tr.close(root)
		if err := checkPurchase(r, &p); err != nil {
			b.violations = append(b.violations, fmt.Sprintf("stage pass buy %d: %v", i, err))
		}
		n++
		if time.Since(start) > budget {
			break
		}
	}
	b.set("market.record_bytes", float64(recBytes)/float64(n))
	return nil
}

// replay reopens copies of the crashed daemon's data dir: the whole
// registry (relisting every market and replaying every journal), and each
// traded tenant's journal alone, whose records are then decoded one by
// one. The reopened registry must show the statement the daemon showed
// before the crash.
func (b *bench) replay(tr *tracer, crashed server.DatasetsResponse) error {
	regCopy := filepath.Join(b.out, "replay-registry")
	if err := copyDir(b.dataDir, regCopy); err != nil {
		return err
	}
	openSpan := tr.open(0, 0, "registry.open")
	reg, err := registry.Open(registry.Config{Root: regCopy, Commission: seedCommission, Sync: journal.SyncGroup})
	tr.close(openSpan)
	if err != nil {
		return err
	}
	st := reg.Stats()
	if err := reg.Close(); err != nil {
		return err
	}
	if st.Sales != crashed.Sales || st.Gross != crashed.Gross {
		b.violations = append(b.violations, fmt.Sprintf("registry reopened from the crashed dir shows %d sales, gross %v; the daemon showed %d, %v before the crash",
			st.Sales, st.Gross, crashed.Sales, crashed.Gross))
	}

	var replayed int
	var replayTime time.Duration
	for i, id := range b.w.markets {
		dir := filepath.Join(b.out, "replay-journal", id)
		if err := copyDir(filepath.Join(b.dataDir, id, "journal"), dir); err != nil {
			return err
		}
		sid := tr.open(i, 0, "journal.replay")
		t := time.Now()
		n, err := replayJournal(dir, nil)
		replayTime += time.Since(t)
		tr.close(sid)
		if err != nil {
			return err
		}
		replayed += n
		var recs [][]byte
		if _, err := replayJournal(dir, &recs); err != nil {
			return err
		}
		for k, rec := range recs {
			sid := tr.open(k, 0, "market.unmarshal")
			_, err := market.UnmarshalSale(rec)
			tr.close(sid)
			if err != nil {
				return err
			}
		}
	}
	if replayed != crashed.Sales {
		b.violations = append(b.violations, fmt.Sprintf("journals of the crashed dir replay %d sales, the daemon acknowledged %d", replayed, crashed.Sales))
	}
	b.set("journal.replay_us_per_sale", us(replayTime)/float64(replayed))
	s := tr.spans[openSpan-1]
	b.set("registry.open_s", float64(s.End-s.Start)/1e9)
	return nil
}

// replayJournal opens the journal in dir, replays it, and closes it,
// returning the record count; with keep set it also collects copies of
// the records.
func replayJournal(dir string, keep *[][]byte) (int, error) {
	j, err := journal.Open(dir, journal.Options{Sync: journal.SyncGroup})
	if err != nil {
		return 0, err
	}
	n := 0
	err = j.Replay(func(rec []byte) error {
		n++
		if keep != nil {
			*keep = append(*keep, bytes.Clone(rec))
		}
		return nil
	})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// copyDir copies the regular files of the tree at src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		//lint:ignore no-dropped-error the source is only read
		defer in.Close()
		out, err := os.Create(to)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			//lint:ignore no-dropped-error the copy failure is what gets reported
			out.Close()
			return err
		}
		return out.Close()
	})
}

// layerMetrics reduces the spans to the per-layer metrics: p50 of each
// timed layer (its p99 and sample count go to the notes), listing stages
// as totals over the seeded specs, and self times as differences of
// medians.
func (b *bench) layerMetrics(tr *tracer) {
	p50, iqr := map[string]float64{}, map[string]float64{}
	for _, l := range []struct{ span, metric string }{
		{"rng.split", "rng.split_us"},
		{"noise.perturb", "noise.perturb_us"},
		{"pricing.quote", "pricing.quote_us"},
		{"market.marshal", "market.marshal_us"},
		{"market.unmarshal", "market.unmarshal_us"},
		{"journal.append", "journal.append_us"},
		{"registry.buy", "registry.buy_us"},
		{"server.handle", "server.handle_us"},
		{"server.decode", "server.decode_us"},
		{"server.encode", "server.encode_us"},
		{"server.browse", "server.browse_us"},
	} {
		d := tr.durations(l.span)
		q := quartiles(d)
		s := summarize(d, 0.99)
		p50[l.span], iqr[l.span] = s.P50, q[2]-q[0]
		b.set(l.metric, s.P50)
		b.set(l.metric[:len(l.metric)-len("_us")]+"_p99_us", s.Tail)
		b.note("%-18s us: %v", l.span, s)
	}
	for _, l := range []struct{ span, metric string }{
		{"dataset.generate", "dataset.generate_ms"},
		{"ml.fit", "ml.fit_ms"},
		{"pricing.transform", "pricing.transform_ms"},
		{"opt.dp", "opt.dp_ms"},
		{"registry.list", "registry.list_ms"},
	} {
		b.set(l.metric, tr.total(l.span))
		b.note("%-18s ms per seeded spec: %.4v", l.span, msEach(tr.durations(l.span)))
	}
	// Each self time is a difference of medians taken from different
	// calls, so the interquartile ranges of its terms are printed with it:
	// a self time smaller than their spread is not resolved.
	var stages, stagesIQR float64
	for _, s := range []string{"pricing.quote", "rng.split", "noise.perturb", "market.marshal", "journal.append"} {
		stages += p50[s]
		stagesIQR += iqr[s]
	}
	b.set("market.self_us", p50["registry.buy"]-stages)
	b.note("market.self_us %.4g = registry.buy p50 %.4g (IQR %.4g) - stage p50s %.4g (IQRs summed %.4g)",
		b.values["market.self_us"], p50["registry.buy"], iqr["registry.buy"], stages, stagesIQR)
	b.set("server.self_us", p50["server.handle"]-p50["registry.buy"])
	b.note("server.self_us %.4g = server.handle p50 %.4g (IQR %.4g) - registry.buy p50 %.4g (IQR %.4g)",
		b.values["server.self_us"], p50["server.handle"], iqr["server.handle"], p50["registry.buy"], iqr["registry.buy"])
}

func msEach(usecs []float64) []float64 {
	out := make([]float64, len(usecs))
	for i, u := range usecs {
		out[i] = u / 1e3
	}
	return out
}
