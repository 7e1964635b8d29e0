package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"nimbus/internal/server"
)

// rounds is how many rounds an untraced run interleaves. Each round takes
// one sample of set-up and restart time and a third of the traffic, so
// every metric samples the machine across the whole run rather than in one
// stretch of it.
const rounds = 3

// slices is how many alternating open-loop and saturation slices a round
// is cut into.
const slices = 3

// rateWindow is the width of the windows a saturation phase's throughput
// is the median of.
const rateWindow = 100 * time.Millisecond

// bench is one benchmark run.
type bench struct {
	opts  options
	w     workload
	conns int
	out   string // the run's directory: data dirs, logs, report, spans
	prov  provenance
	// lastCPU is the stolen and total CPU time at the last host probe.
	lastCPU [2]uint64

	port    int
	dataDir string
	live    *daemon
	books   *books
	load    load

	values     map[string]float64
	notes      []string
	violations []string
	attempted  int
	failed     int
}

// load accumulates a run's traffic measurements over its rounds.
type load struct {
	buyLat, browseLat []float64 // open loop, ms from due time, in arrival order; +Inf for failures
	late              []float64 // open-loop generator lateness, us
	openCPU           time.Duration
	openSales         int
	rates             []float64 // saturation throughput per rateWindow, sales/s
	satSales          int
	satElapsed        time.Duration
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// daemonArgs is nimbusd's command line: registry mode on dataDir plus the
// flags that differ from the shipped defaults.
func (b *bench) daemonArgs(dataDir string) []string {
	args := []string{"-data-dir", dataDir}
	for _, f := range b.opts.daemonFlags {
		args = append(args, strings.ReplaceAll(f, "{port}", strconv.Itoa(b.port)))
	}
	return args
}

// start launches nimbusd on dataDir (empty, or a crashed daemon's) and
// makes it the live daemon, returning its time from exec to ready.
func (b *bench) start(ctx context.Context, dataDir, logName string) (time.Duration, error) {
	if b.port == 0 {
		port, err := freePort()
		if err != nil {
			return 0, err
		}
		b.port = port
		b.prov.NimbusdFlags = b.daemonArgs("<data-dir>")
	}
	base := "http://127.0.0.1:" + strconv.Itoa(b.port)
	d, took, err := startDaemon(ctx, b.opts.nimbusd, b.daemonArgs(dataDir), base, filepath.Join(b.out, logName))
	if err != nil {
		return 0, err
	}
	b.live, b.dataDir = d, dataDir
	return took, nil
}

// stopDaemon kills the live daemon with SIGKILL, if there is one, and
// waits for it to exit.
func (b *bench) stopDaemon() {
	if b.live != nil {
		b.live.kill()
		b.live = nil
	}
}

// removeData deletes the run's data dirs and their copies, which are
// large; logs, spans and the report stay.
func (b *bench) removeData() {
	for _, pattern := range []string{"data*", "inprocess", "replay-*", "stage-journal"} {
		matches, err := filepath.Glob(filepath.Join(b.out, pattern))
		if err != nil {
			b.note("removing %s: %v", pattern, err)
		}
		for _, m := range matches {
			if err := os.RemoveAll(m); err != nil {
				b.note("removing %s: %v", m, err)
			}
		}
	}
}

// tenants reads the workload's markets from the live daemon.
func (b *bench) tenants(ctx context.Context) ([]*tenant, error) {
	var ts []*tenant
	for _, id := range b.w.markets {
		t, err := fetchTenant(ctx, http.DefaultClient, b.live.base, id)
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// endToEnd is the untraced run: every end-to-end metric, out of process.
// The first round starts the daemon on an empty data dir; each later
// round first times a throwaway daemon on another empty dir, then restarts
// the main daemon on its data dir after the previous round's kill -9. A
// last restart follows the last round.
func (b *bench) endToEnd(ctx context.Context) error {
	main := filepath.Join(b.out, "data")
	var setups, restarts, rss []float64
	var ts []*tenant
	var before server.DatasetsResponse
	b.probe("start")
	for r := 0; r < rounds; r++ {
		if r == 0 {
			took, err := b.start(ctx, main, "nimbusd-0.log")
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, took.Seconds())
			if ts, err = b.tenants(ctx); err != nil {
				return err
			}
		} else {
			took, err := b.freshSetup(ctx, r)
			if err != nil {
				return err
			}
			setups = append(setups, took.Seconds())
			restart, mb, err := b.restart(ctx, main, before, r)
			if err != nil {
				return err
			}
			restarts, rss = append(restarts, restart), append(rss, mb)
		}
		if err := b.round(ctx, ts, r, rounds); err != nil {
			return err
		}
		var err error
		if before, err = b.books.audit(ctx, b.live.base); err != nil {
			return err
		}
		b.stopDaemon()
		b.probe(fmt.Sprintf("after round %d", r))
	}
	jb, err := journalBytes(main)
	if err != nil {
		return err
	}
	restart, mb, err := b.restart(ctx, main, before, rounds)
	if err != nil {
		return err
	}
	restarts, rss = append(restarts, restart), append(rss, mb)

	if err := b.reportLoad(); err != nil {
		return err
	}
	sales := b.load.openSales + b.load.satSales
	b.set("journal_bytes_per_sale", float64(jb)/float64(sales))
	b.note("setup_s samples, s: %.4v", setups)
	b.note("restart after kill -9, one per round: %.4v s, RSS %.4v MB (%d sales at the end)", restarts, rss, sales)
	b.set("setup_s", median(setups))
	b.set("restart_s", median(restarts))
	b.set("restart_rss_mb", median(rss))
	return nil
}

// freshSetup times one nimbusd start on an empty data dir and removes the
// daemon and the dir again.
func (b *bench) freshSetup(ctx context.Context, r int) (time.Duration, error) {
	dir := filepath.Join(b.out, fmt.Sprintf("data-setup-%d", r))
	took, err := b.start(ctx, dir, fmt.Sprintf("nimbusd-setup-%d.log", r))
	if err != nil {
		return 0, fmt.Errorf("setup %d: %w", r, err)
	}
	b.stopDaemon()
	return took, os.RemoveAll(dir)
}

// restart starts the main daemon again on its data dir after a kill -9
// and returns the time to ready in seconds and the resident memory right
// after in MB. The daemon must show exactly the statement it showed
// before the crash.
func (b *bench) restart(ctx context.Context, dir string, before server.DatasetsResponse, r int) (float64, float64, error) {
	took, err := b.start(ctx, dir, fmt.Sprintf("nimbusd-%d.log", r))
	if err != nil {
		return 0, 0, fmt.Errorf("restart %d: %w", r, err)
	}
	rss, err := procRSS(b.live.pid())
	if err != nil {
		return 0, 0, err
	}
	var after server.DatasetsResponse
	if err := getJSON(ctx, http.DefaultClient, b.live.base+"/api/v1/datasets", &after); err != nil {
		return 0, 0, err
	}
	if err := sameStatement(before, after); err != nil {
		b.violations = append(b.violations, fmt.Sprintf("restart %d: %v", r, err))
	}
	return took.Seconds(), float64(rss) / 1e6, nil
}

// round runs round r of n against the live daemon: its share of the open
// loop and of the saturation phase, cut into slices that alternate, so
// both phases sample the machine across the whole round.
func (b *bench) round(ctx context.Context, ts []*tenant, r, n int) error {
	client := newLoadClient(b.live.base, b.conns)
	span := time.Duration(float64(b.opts.seconds) * float64(time.Second) * b.w.openShare / float64(n*slices))
	l := &b.load
	for k := 0; k < slices; k++ {
		id := int64(2 * (r*slices + k))
		reqs, due := openSchedule(b.stream(id+1), b.w, ts, span)
		open, err := b.measure(ctx, fmt.Sprintf("open-loop %d.%d", r, k), reqs, func() ([]outcome, []time.Duration, time.Duration, error) {
			start := time.Now()
			outs, late, err := client.openLoop(ctx, reqs, due)
			return outs, late, time.Since(start), err
		})
		if err != nil {
			return err
		}
		for i := range reqs {
			if reqs[i].isBuy() {
				l.buyLat = append(l.buyLat, open.lat[i])
			} else {
				l.browseLat = append(l.browseLat, open.lat[i])
			}
		}
		l.late = append(l.late, open.late...)
		l.openCPU += open.cpu
		l.openSales += open.sales

		reqs = buySequence(b.stream(id+2), ts, b.w.sales/(n*slices))
		sat, err := b.measure(ctx, fmt.Sprintf("saturation %d.%d", r, k), reqs, func() ([]outcome, []time.Duration, time.Duration, error) {
			outs, el := client.closedLoop(ctx, reqs)
			return outs, nil, el, ctx.Err()
		})
		if err != nil {
			return err
		}
		l.rates = append(l.rates, windowRates(sat.saleDone, rateWindow)...)
		l.satSales += sat.sales
		l.satElapsed += sat.elapsed
	}
	return nil
}

// phase is one traffic phase's measurements.
type phase struct {
	lat      []float64 // per request, ms from due time; +Inf for failures
	late     []float64 // generator lateness, us
	saleDone []time.Duration
	sales    int
	cpu      time.Duration // daemon CPU over the phase
	elapsed  time.Duration
}

// measure executes one phase, measuring the daemon's CPU around it, then
// checks every outcome and audits the daemon's books.
func (b *bench) measure(ctx context.Context, name string, reqs []request,
	send func() ([]outcome, []time.Duration, time.Duration, error)) (phase, error) {
	var p phase
	cpu0, err := procCPU(b.live.pid())
	if err != nil {
		return p, err
	}
	outs, late, elapsed, err := send()
	if err != nil {
		return p, fmt.Errorf("%s phase: %w", name, err)
	}
	cpu1, err := procCPU(b.live.pid())
	if err != nil {
		return p, err
	}
	p.cpu, p.elapsed = cpu1-cpu0, elapsed
	t := b.books.record(reqs, outs)
	b.attempted += t.attempted
	b.failed += t.failed
	b.violations = append(b.violations, t.violations...)
	p.sales = t.sales
	if t.sales == 0 {
		return p, fmt.Errorf("%s phase: no sale acknowledged", name)
	}
	if _, err := b.books.audit(ctx, b.live.base); err != nil {
		b.violations = append(b.violations, name+" phase: "+err.Error())
	}
	for i := range outs {
		o := &outs[i]
		lat := ms(o.latency())
		if !o.ok() {
			lat = math.Inf(1)
		} else if reqs[i].isBuy() {
			p.saleDone = append(p.saleDone, o.done)
		}
		p.lat = append(p.lat, lat)
	}
	for _, l := range late {
		p.late = append(p.late, us(l))
	}
	b.note("%s phase: %d requests, %d failed, %d sales, %.3fs, daemon CPU %.3fs", name, t.attempted, t.failed, t.sales, elapsed.Seconds(), p.cpu.Seconds())
	return p, nil
}

// reportLoad sets the traffic metrics: buy and browse latency from due
// time over the open loop, daemon CPU per sale acknowledged in it, and the
// saturation throughput.
func (b *bench) reportLoad() error {
	l := &b.load
	for _, m := range []struct {
		prefix string
		lat    []float64
	}{{"buy", l.buyLat}, {"browse", l.browseLat}} {
		s := summarize(append([]float64(nil), m.lat...), 0.99)
		if s.N == 0 {
			return fmt.Errorf("the open loop sent no %s request", m.prefix)
		}
		b.set(m.prefix+"_p50_ms", s.P50)
		b.set(m.prefix+"_p99_ms", s.Tail)
		b.note("%s latency from due time, ms: %v", m.prefix, s)
	}
	b.set("cpu_us_per_sale", us(l.openCPU)/float64(l.openSales))
	late := summarize(l.late, 0.99)
	b.note("generator lateness, us: %v", late)
	b.set("loadgen.late_p99_us", late.Tail)
	if len(l.rates) == 0 {
		return fmt.Errorf("saturation lasted %v, less than one %v window", l.satElapsed, rateWindow)
	}
	b.set("buy_max_rps", median(append([]float64(nil), l.rates...)))
	b.note("buy_max_rps: %d sales in %.3fs over %d connections: %.0f/s overall, median of %d windows of %v %.0f/s",
		l.satSales, l.satElapsed.Seconds(), b.conns, float64(l.satSales)/l.satElapsed.Seconds(), len(l.rates), rateWindow, b.values["buy_max_rps"])
	return nil
}
