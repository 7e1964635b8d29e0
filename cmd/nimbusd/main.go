// Command nimbusd runs the Nimbus broker as an HTTP service: it generates
// the Table 3 datasets (at a configurable scale), lists an offering for
// each, and serves the marketplace API documented in internal/server.
//
//	nimbusd -addr :8080 -scale 0.001 -seed 42
//
// The sale ledger — the broker's only irreplaceable state — can be made
// durable two ways:
//
//   - -journal-dir: a write-ahead journal (internal/journal). Every sale
//     is appended and (depending on -journal-sync) fsynced before the
//     buyer sees it, startup recovers snapshot + record tail, and
//     graceful shutdown compacts the journal into a fresh snapshot.
//     Survives kill -9.
//   - -ledger: a whole-file JSON snapshot, restored at startup and
//     written atomically on graceful shutdown only. Survives restarts,
//     not crashes.
//
// -data-dir switches the daemon into multi-tenant registry mode instead:
// many datasets, each its own market with its own journal under the data
// directory, served through the /api/v1/datasets routes (the legacy
// single-market API remains live as the union of every tenant). Startup
// recovers every listed dataset's manifest and journal; a registry that
// recovers empty is seeded with the six Table 3 datasets. Mutually
// exclusive with -journal-dir and -ledger — the registry owns durability
// per tenant.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nimbus/internal/dataset"
	"nimbus/internal/journal"
	"nimbus/internal/market"
	"nimbus/internal/ml"
	"nimbus/internal/pricing"
	"nimbus/internal/registry"
	"nimbus/internal/server"
	"nimbus/internal/telemetry"
)

// config collects nimbusd's knobs; see the flag declarations in main for
// the semantics.
type config struct {
	addr       string
	scale      float64
	seed       int64
	samples    int
	gridN      int
	rate       float64
	commission float64

	ledger string

	journalDir      string
	journalSync     string
	journalSyncEvry time.Duration
	journalSegBytes int64

	dataDir    string
	tenantRate float64
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.Float64Var(&cfg.scale, "scale", 1e-3, "Table 3 row-count scale (1.0 = paper size)")
	flag.Int64Var(&cfg.seed, "seed", 42, "random seed")
	flag.IntVar(&cfg.samples, "samples", 200, "Monte-Carlo models per NCP when building curves")
	flag.IntVar(&cfg.gridN, "grid", 50, "offered quality grid size")
	flag.StringVar(&cfg.ledger, "ledger", "", "optional ledger snapshot file: restored at startup, saved atomically on graceful shutdown")
	flag.Float64Var(&cfg.rate, "rate", 50, "per-client request rate limit (requests/second; 0 disables)")
	flag.Float64Var(&cfg.commission, "commission", 0.1, "broker's cut of each sale, in [0, 1)")
	flag.StringVar(&cfg.journalDir, "journal-dir", "", "optional write-ahead journal directory: sales survive kill -9 (mutually exclusive with -ledger)")
	flag.StringVar(&cfg.journalSync, "journal-sync", "interval", "journal fsync policy: always, group, interval or never")
	flag.DurationVar(&cfg.journalSyncEvry, "journal-sync-every", journal.DefaultSyncEvery, "flush interval under -journal-sync=interval")
	flag.Int64Var(&cfg.journalSegBytes, "journal-segment-bytes", journal.DefaultSegmentBytes, "journal segment rotation threshold")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "multi-tenant registry mode: dataset markets live under this directory, each with its own journal (mutually exclusive with -journal-dir and -ledger)")
	flag.Float64Var(&cfg.tenantRate, "tenant-rate", 0, "per-dataset-market purchase rate limit in registry mode (requests/second; 0 disables)")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "nimbusd:", err)
		os.Exit(1)
	}
}

// restoreLedger loads a previous ledger snapshot file if one exists.
func restoreLedger(broker *market.Broker, path string) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil // first run
	}
	if err != nil {
		return fmt.Errorf("opening ledger: %w", err)
	}
	//lint:ignore no-dropped-error the ledger is only read here; a close failure cannot lose data
	defer f.Close()
	if err := broker.RestoreLedger(f); err != nil {
		return err
	}
	log.Printf("nimbusd: restored %d sales (revenue %.2f) from %s",
		len(broker.Sales()), broker.TotalRevenue(), path)
	return nil
}

// saveLedger writes the ledger snapshot so a crash mid-save leaves either
// the old file or the new one, never a torn mix: temp file, fsync,
// rename, directory fsync.
func saveLedger(broker *market.Broker, path string) error {
	return journal.WriteFileAtomic(journal.OSFS{}, path, broker.SaveLedger)
}

// openJournal opens (and recovers) the write-ahead journal, replays the
// recovered ledger into the broker, and switches the broker's sale path
// onto it.
func openJournal(broker *market.Broker, cfg config, reg *telemetry.Registry, logf func(format string, args ...any)) (*journal.Journal, error) {
	policy, err := journal.ParseSyncPolicy(cfg.journalSync)
	if err != nil {
		return nil, err
	}
	j, err := journal.Open(cfg.journalDir, journal.Options{
		SegmentBytes: cfg.journalSegBytes,
		Sync:         policy,
		SyncEvery:    cfg.journalSyncEvry,
		Telemetry:    reg,
	})
	if err != nil {
		return nil, err
	}
	closeOnErr := func(err error) (*journal.Journal, error) {
		//lint:ignore no-dropped-error best-effort cleanup; the recovery failure is what gets reported
		j.Close()
		return nil, err
	}
	replayed, err := market.RecoverFromJournal(broker, j)
	if err != nil {
		return closeOnErr(err)
	}
	logf("nimbusd: journal %s recovered: %d sales in ledger (%d replayed from tail), revenue %.2f",
		cfg.journalDir, len(broker.Sales()), replayed, broker.TotalRevenue())
	broker.SetJournal(j)
	return j, nil
}

// closeJournal compacts the journal into a fresh snapshot (folding the
// whole ledger, so the next startup replays nothing) and closes it. Call
// only after the HTTP server has drained: Compact assumes no concurrent
// sales.
func closeJournal(broker *market.Broker, j *journal.Journal, logf func(format string, args ...any)) error {
	if err := j.Compact(broker.SaveLedger); err != nil {
		// Compaction is an optimization; the appended records are already
		// durable. Flush and close so nothing in the tail is lost.
		logf("nimbusd: journal compaction failed (sales remain in segments): %v", err)
	} else {
		logf("nimbusd: journal compacted: %d sales snapshotted", len(broker.Sales()))
	}
	return j.Close()
}

// buildBroker generates the Table 3 suite and lists one offering per
// dataset on a fresh broker.
func buildBroker(scale float64, seed int64, samples, gridN int, logf func(format string, args ...any)) (*market.Broker, error) {
	logf("nimbusd: generating datasets (scale %g)...", scale)
	pairs, err := dataset.Suite(scale, seed)
	if err != nil {
		return nil, err
	}
	broker := market.NewBroker(seed + 1)
	research := market.Research{
		Value:  func(e float64) float64 { return 100 / (1 + e) },
		Demand: func(e float64) float64 { return 1 },
	}
	grid := pricing.DefaultGrid(gridN)
	for _, pair := range pairs {
		seller, err := market.NewSeller(pair, research)
		if err != nil {
			return nil, err
		}
		var model ml.Model
		switch pair.Train.Task {
		case dataset.Regression:
			model = ml.LinearRegression{Ridge: 1e-4}
		case dataset.Classification:
			model = ml.LogisticRegression{Ridge: 1e-4}
		}
		start := time.Now()
		o, err := broker.List(market.OfferingConfig{
			Seller:  seller,
			Model:   model,
			Grid:    grid,
			Samples: samples,
			Seed:    seed,
		})
		if err != nil {
			return nil, fmt.Errorf("listing %s: %w", pair.Name, err)
		}
		logf("nimbusd: listed %s (expected revenue %.2f) in %v", o.Name, o.ExpectedRevenue, time.Since(start).Round(time.Millisecond))
	}
	return broker, nil
}

// serveUntilSignal runs the HTTP server until SIGINT/SIGTERM or a
// listener failure, draining in-flight requests on signal. It returns the
// listener error, if any; persisting the books belongs to the caller,
// after the drain.
func serveUntilSignal(addr string, handler http.Handler, ready func()) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		ready()
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case <-ctx.Done():
		log.Printf("nimbusd: signal received, draining...")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("nimbusd: shutdown: %v", err)
		}
	}
	return nil
}

// seedSuite lists the six Table 3 datasets as tenants of a freshly
// initialized registry, one market per dataset, IDs matching the paper's
// names. Row counts follow -scale exactly as the single-market mode does.
func seedSuite(r *registry.Registry, cfg config, logf func(format string, args ...any)) error {
	logf("nimbusd: empty registry, seeding the Table 3 suite (scale %g)...", cfg.scale)
	for i, name := range registry.GeneratorNames() {
		spec := registry.Spec{
			ID:        name,
			Owner:     "nimbus",
			Generator: name,
			Rows:      dataset.Table3Rows(name, cfg.scale),
			Grid:      cfg.gridN,
			Samples:   cfg.samples,
			Seed:      cfg.seed + int64(i),
		}
		start := time.Now()
		if _, err := r.List(spec, nil); err != nil {
			return fmt.Errorf("seeding market %s: %w", name, err)
		}
		logf("nimbusd: listed dataset %s (%d rows) in %v", name, spec.Rows, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// runMulti is the -data-dir serving mode: a registry of per-dataset
// markets, recovered from (and journaled under) the data directory.
func runMulti(cfg config) error {
	policy, err := journal.ParseSyncPolicy(cfg.journalSync)
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)
	r, err := registry.Open(registry.Config{
		Root:         cfg.dataDir,
		Commission:   cfg.commission,
		Sync:         policy,
		SyncEvery:    cfg.journalSyncEvry,
		SegmentBytes: cfg.journalSegBytes,
		Telemetry:    reg,
		Logf:         log.Printf,
	})
	if err != nil {
		return err
	}
	if r.Count() > 0 {
		log.Printf("nimbusd: registry %s recovered %d dataset market(s)", cfg.dataDir, r.Count())
	} else if err := seedSuite(r, cfg, log.Printf); err != nil {
		if cerr := r.Close(); cerr != nil {
			log.Printf("nimbusd: closing registry: %v", cerr)
		}
		return err
	}
	opts := []server.Option{server.WithTelemetry(reg)}
	if cfg.tenantRate > 0 {
		opts = append(opts, server.WithTenantRate(cfg.tenantRate, int(2*cfg.tenantRate)))
	}
	var handler http.Handler = server.NewMulti(r, opts...)
	if cfg.rate > 0 {
		rl := server.NewRateLimiter(cfg.rate, int(2*cfg.rate))
		rl.SetTelemetry(reg)
		handler = rl.Wrap(handler)
	}
	serveErr := serveUntilSignal(cfg.addr, server.WithMiddleware(handler, log.Printf, reg), func() {
		log.Printf("nimbusd: marketplace open on %s (%d dataset markets, %d offerings)",
			cfg.addr, r.Count(), len(r.Menu()))
	})
	// Close drains every market and compacts each tenant journal; the books
	// must be persisted even when the listener failed.
	st := r.Stats()
	if err := r.Close(); err != nil {
		if serveErr == nil {
			serveErr = err
		} else {
			log.Printf("nimbusd: closing registry: %v", err)
		}
	} else {
		log.Printf("nimbusd: registry closed: %d markets, %d sales, revenue %.2f",
			st.Markets, st.Sales, st.Gross)
	}
	return serveErr
}

func run(cfg config) error {
	if cfg.dataDir != "" {
		if cfg.ledger != "" || cfg.journalDir != "" {
			return errors.New("-data-dir is mutually exclusive with -ledger and -journal-dir (the registry journals each tenant under the data directory)")
		}
		return runMulti(cfg)
	}
	if cfg.ledger != "" && cfg.journalDir != "" {
		return errors.New("-ledger and -journal-dir are mutually exclusive (the journal subsumes the snapshot file)")
	}
	broker, err := buildBroker(cfg.scale, cfg.seed, cfg.samples, cfg.gridN, log.Printf)
	if err != nil {
		return err
	}
	if err := broker.SetCommission(cfg.commission); err != nil {
		return err
	}
	// One registry covers the whole serving stack: HTTP middleware, rate
	// limiter, broker sale path, journal, and Go runtime gauges. Scrape
	// it at GET /metrics (Prometheus) or GET /api/v1/metrics (JSON).
	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)
	broker.SetTelemetry(reg)
	if cfg.ledger != "" {
		if err := restoreLedger(broker, cfg.ledger); err != nil {
			return err
		}
	}
	var wal *journal.Journal
	if cfg.journalDir != "" {
		if wal, err = openJournal(broker, cfg, reg, log.Printf); err != nil {
			return err
		}
	}
	var handler http.Handler = server.New(broker, server.WithTelemetry(reg))
	if cfg.rate > 0 {
		rl := server.NewRateLimiter(cfg.rate, int(2*cfg.rate))
		rl.SetTelemetry(reg)
		handler = rl.Wrap(handler)
	}
	// Graceful shutdown on SIGINT/SIGTERM: stop accepting requests, drain
	// in-flight sales, then persist the books (journal compaction or the
	// atomic snapshot) before exiting.
	serveErr := serveUntilSignal(cfg.addr, server.WithMiddleware(handler, log.Printf, reg), func() {
		log.Printf("nimbusd: marketplace open on %s (%d offerings)", cfg.addr, len(broker.Menu()))
	})
	// Persist the books even when the listener failed: sales may have
	// completed before the failure.
	if wal != nil {
		if err := closeJournal(broker, wal, log.Printf); err != nil {
			if serveErr == nil {
				serveErr = err
			} else {
				log.Printf("nimbusd: closing journal: %v", err)
			}
		}
	}
	if cfg.ledger != "" {
		if err := saveLedger(broker, cfg.ledger); err != nil {
			if serveErr == nil {
				serveErr = err
			} else {
				log.Printf("nimbusd: saving ledger: %v", err)
			}
		} else {
			log.Printf("nimbusd: saved %d sales to %s", len(broker.Sales()), cfg.ledger)
		}
	}
	return serveErr
}
