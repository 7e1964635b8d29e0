package main

import (
	"debug/buildinfo"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nimbus/internal/perf"
)

// provenance records where a result came from: numbers compare only
// between runs with the same fingerprint.
type provenance struct {
	perf.Env
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	// RunDirFS is the filesystem of the run directory, which holds the
	// daemon's journals: fsync cost depends on it.
	RunDirFS string `json:"run_dir_fs"`
	// NimbusdRevision is the VCS stamp of the nimbusd binary, empty when it
	// was built outside a git checkout.
	NimbusdRevision string   `json:"nimbusd_revision,omitempty"`
	NimbusdFlags    []string `json:"nimbusd_flags"`
	Workload        string   `json:"workload"`
	Seed            int64    `json:"seed"`
	Seconds         int      `json:"seconds"`
	Trace           bool     `json:"trace"`
	Connections     int      `json:"connections"`
	// HostProbes sample the host's fsync speed at the start of the run and
	// between its rounds (with no daemon running), and the CPU time the
	// hypervisor stole since the previous probe, since both move the
	// latency and throughput figures.
	HostProbes []hostProbe `json:"host_probes"`
}

func captureProvenance(o options, conns int, runDir string) provenance {
	p := provenance{
		Env:          perf.CaptureEnv(),
		Nproc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     cpuModel(),
		Kernel:       readTrimmed("/proc/sys/kernel/osrelease"),
		RunDirFS:     fsType(runDir),
		NimbusdFlags: o.daemonFlags,
		Workload:     o.workload.name,
		Seed:         o.seed,
		Seconds:      o.seconds,
		Trace:        o.trace,
		Connections:  conns,
	}
	if bi, err := buildinfo.ReadFile(o.nimbusd); err == nil {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.NimbusdRevision = s.Value + p.NimbusdRevision
			case "vcs.modified":
				if s.Value == "true" {
					p.NimbusdRevision += "+modified"
				}
			}
		}
	}
	return p
}

func readTrimmed(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	for _, line := range strings.Split(readTrimmed("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// hostProbe is the host's fsync speed at one moment of a run, and the
// share of CPU time stolen by the hypervisor since the previous probe.
type hostProbe struct {
	At      string  `json:"at"`
	PerSec  float64 `json:"fsyncs_per_s"`
	P50us   float64 `json:"p50_us"`
	P99us   float64 `json:"p99_us"`
	Samples int     `json:"samples"`
	// StealPct is nil at the first probe of a run, which has no earlier
	// reading to count from.
	StealPct *float64 `json:"steal_pct,omitempty"`
}

// probeSpan is how long one fsync probe writes.
const probeSpan = 250 * time.Millisecond

// probeFsync appends a sale-sized record to a fresh file in dir and
// fsyncs it, over and over for probeSpan, and reports the rate and the
// fsync latencies.
func probeFsync(dir, at string) (hostProbe, error) {
	p := hostProbe{At: at}
	path := filepath.Join(dir, "fsync-probe")
	f, err := os.Create(path)
	if err != nil {
		return p, err
	}
	rec := make([]byte, 400)
	var lat []float64
	start := time.Now()
	for time.Since(start) < probeSpan {
		if _, err = f.Write(rec); err != nil {
			break
		}
		t := time.Now()
		if err = f.Sync(); err != nil {
			break
		}
		lat = append(lat, us(time.Since(t)))
	}
	elapsed := time.Since(start)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if rerr := os.Remove(path); err == nil {
		err = rerr
	}
	s := summarize(lat, 0.99)
	p.PerSec, p.P50us, p.P99us, p.Samples = float64(s.N)/elapsed.Seconds(), s.P50, s.Tail, s.N
	return p, err
}

// probe records one host probe in the provenance and the notes.
func (b *bench) probe(at string) {
	p, err := probeFsync(b.out, at)
	if err != nil {
		b.note("fsync probe %s: %v", at, err)
		return
	}
	steal, total, err := cpuStat()
	if err != nil {
		b.note("reading /proc/stat: %v", err)
	} else if len(b.prov.HostProbes) > 0 && total > b.lastCPU[1] {
		pct := 100 * float64(steal-b.lastCPU[0]) / float64(total-b.lastCPU[1])
		p.StealPct = &pct
	}
	b.lastCPU = [2]uint64{steal, total}
	b.prov.HostProbes = append(b.prov.HostProbes, p)
	stolen := "no earlier reading of stolen CPU time"
	if p.StealPct != nil {
		stolen = fmt.Sprintf("%.2f%% of CPU time stolen since the last probe", *p.StealPct)
	}
	b.note("host probe %s: fsync %.0f/s, p50 %.4g us, p99 %.4g us (n=%d); %s",
		at, p.PerSec, p.P50us, p.P99us, p.Samples, stolen)
}

// cpuStat reads the machine's stolen and total CPU time, in clock ticks,
// from the first line of /proc/stat.
func cpuStat() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseCPULine(line)
}

// parseCPULine sums the fields of the aggregate "cpu" line of /proc/stat
// (user nice system idle iowait irq softirq steal ...) and picks out the
// eighth, steal. Guest time is already counted in user and nice, so the
// fields after steal are left out of the total.
func parseCPULine(line string) (steal, total uint64, err error) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("proc stat: unexpected cpu line %q", line)
	}
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}
