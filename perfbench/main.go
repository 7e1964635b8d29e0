// Command perfbench is nimbus's benchmark. It drives a real nimbusd, built
// from the checkout by run.sh, out of process: it starts the daemon in
// registry mode on an empty data dir, sends one seeded workload over HTTP
// (an open-loop Poisson phase timed from each request's due time, then a
// closed-loop saturation phase), reads the daemon's CPU and memory from
// /proc, kills it with SIGKILL and restarts it on the same dir. Every
// purchase and the daemon's books are checked along the way. With
// -trace 1 it instead times the buy path layer by layer in-process, by
// calling each module's public functions.
//
//	bash perfbench/run.sh --daemon-flags='-rate=0 -journal-sync=group -addr=127.0.0.1:{port}' \
//	    --workload buy-narrow --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics BENCHMARK.json declares, each with its unit.
// README.md lists the workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"

	"nimbus/internal/rng"
)

// options are the command line.
type options struct {
	root, nimbusd string
	daemonFlags   []string
	workload      workload
	seed          int64
	seconds       int
	trace         bool
}

func parseFlags(args []string) (options, error) {
	var o options
	var name, daemonFlags string
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.root, "root", ".", "root of the nimbus checkout")
	fs.StringVar(&o.nimbusd, "nimbusd", "", "nimbusd binary built from the checkout")
	fs.StringVar(&daemonFlags, "daemon-flags", "", "nimbusd flags that differ from the shipped defaults, space separated; {port} is replaced by a free loopback port")
	fs.StringVar(&name, "workload", "", "workload to run")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the workload's inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured traffic phases, in seconds")
	fs.IntVar(&trace, "trace", 0, "1: report per-layer metrics from the traced in-process run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	var err error
	if o.workload, err = workloadByName(name); err != nil {
		return o, err
	}
	switch {
	case o.nimbusd == "":
		return o, errors.New("-nimbusd is required (run through run.sh)")
	case !strings.Contains(daemonFlags, "{port}"):
		return o, errors.New("-daemon-flags must set -addr to a loopback address with {port}")
	case o.seconds < 1 || o.seconds > 60:
		return o, fmt.Errorf("-seconds %d outside [1, 60]", o.seconds)
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("-trace %d, want 0 or 1", trace)
	}
	o.daemonFlags, o.trace = strings.Fields(daemonFlags), trace == 1
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, o)
	stop()
	os.Exit(code)
}

// run executes one benchmark run and prints its result; it returns the
// process exit code.
func run(ctx context.Context, o options) int {
	declared, err := readDeclared(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// The load generator gets no more threads than it has connections, and
	// no more connections than the machine has CPUs.
	conns := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > conns {
		runtime.GOMAXPROCS(conns)
	}
	// The generator keeps every response until its phase is checked; fewer,
	// larger GC cycles steal less of the CPUs it shares with the daemon.
	debug.SetGCPercent(400)
	out := filepath.Join(o.root, ".bench_build", "runs", o.workload.name)
	if err := os.RemoveAll(out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{
		opts:       o,
		w:          o.workload,
		conns:      conns,
		out:        out,
		books:      newBooks(),
		values:     map[string]float64{},
		violations: []string{},
	}
	b.prov = captureProvenance(o, conns, out)
	defer b.stopDaemon()
	if o.trace {
		err = b.traced(ctx)
	} else {
		err = b.endToEnd(ctx)
	}
	b.stopDaemon()
	b.removeData()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload.name, err)
		return 1
	}
	want, other := declared.endToEnd, declared.perLayer
	if o.trace {
		want, other = declared.perLayer, declared.endToEnd
	}
	line, err := b.result(want)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload.name, err)
		return 1
	}
	if err := b.writeReport(line, other); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(enc))
	if !line.Correct {
		return 1
	}
	return 0
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// declared is the metric set BENCHMARK.json promises, name to unit.
type declared struct {
	endToEnd, perLayer map[string]string
}

// readDeclared loads the metric names and units from BENCHMARK.json, so the
// result carries exactly the declared set with the declared units.
func readDeclared(path string) (declared, error) {
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return declared{}, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return declared{}, fmt.Errorf("%s: %w", path, err)
	}
	d := declared{endToEnd: map[string]string{}, perLayer: map[string]string{}}
	for _, m := range spec.EndToEnd {
		d.endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		d.perLayer[m.Name] = m.Unit
	}
	for _, set := range []map[string]string{d.endToEnd, d.perLayer} {
		for name, unit := range set {
			if !validName(name) || !validUnit(unit) {
				return declared{}, fmt.Errorf("%s: bad metric name %q or unit %q", path, name, unit)
			}
		}
	}
	return d, nil
}

// result assembles the result line from the measured values, which must
// be exactly the declared metrics, each a finite number.
func (b *bench) result(want map[string]string) (resultLine, error) {
	line := resultLine{
		Correct:   len(b.violations) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	if line.Attempted < 1 {
		return line, errors.New("no request was attempted")
	}
	var missing []string
	for name, unit := range want {
		v, ok := b.values[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return line, fmt.Errorf("metric %s is %v", name, v)
		}
		line.Metrics[name] = metricValue{Value: v, Unit: unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return line, fmt.Errorf("metrics not measured: %v", missing)
	}
	return line, nil
}

// writeReport prints the human-readable lines and writes the full report
// (provenance, notes, violations, result) next to the run's logs. Metrics
// of the other declared set that the run also measured — the open loop's
// latencies and the saturation throughput in an untraced run — are
// printed and kept in the report too, though not in the result line.
func (b *bench) writeReport(line resultLine, other map[string]string) error {
	names := make([]string, 0, len(line.Metrics))
	for name := range line.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("perfbench %s seed %d, %ds, trace %v: %d attempted, %d failed, correct %v\n",
		b.w.name, b.opts.seed, b.opts.seconds, b.opts.trace, line.Attempted, line.Failed, line.Correct)
	for _, name := range names {
		m := line.Metrics[name]
		fmt.Printf("  %-30s %14.6g %s\n", name, m.Value, m.Unit)
	}
	also := map[string]metricValue{}
	names = names[:0]
	for name, unit := range other {
		if v, ok := b.values[name]; ok {
			also[name] = metricValue{Value: v, Unit: unit}
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-30s %14.6g %s (also measured, not in the result line)\n", name, also[name].Value, also[name].Unit)
	}
	for _, n := range b.notes {
		fmt.Println("  " + n)
	}
	for _, v := range b.violations {
		fmt.Println("  VIOLATION: " + v)
	}
	rep := struct {
		Provenance provenance             `json:"provenance"`
		Notes      []string               `json:"notes"`
		Violations []string               `json:"violations"`
		Result     resultLine             `json:"result"`
		Also       map[string]metricValue `json:"also_measured"`
	}{b.prov, b.notes, b.violations, line, also}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(b.out, "report.json"), append(raw, '\n'), 0o644)
}

// stream derives the seeded random stream of one phase, so phases draw
// independent inputs and a phase's inputs do not depend on how long an
// earlier phase ran.
func (b *bench) stream(phase int64) *rng.Source {
	return rng.New(b.opts.seed<<8 | phase)
}
