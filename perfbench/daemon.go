package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nimbus/internal/server"
	"nimbus/internal/telemetry"
)

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat. It
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// seededMarkets is how many markets nimbusd lists on an empty data dir:
// the Table 3 suite.
const seededMarkets = 6

// daemon is one running nimbusd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	exited chan struct{} // closed once the process has been waited for
	log    *os.File
}

// startDaemon execs nimbusd and blocks until its /healthz answers 200 and
// every Table 3 market is listed, returning the time from exec to ready.
// stderr (nimbusd's access log) and stdout go to logPath.
func startDaemon(ctx context.Context, bin string, args []string, base, logPath string) (*daemon, time.Duration, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	if err := cmd.Start(); err != nil {
		//lint:ignore no-dropped-error nothing was written to the log; the start failure is what gets reported
		logf.Close()
		return nil, 0, fmt.Errorf("starting nimbusd: %w", err)
	}
	d := &daemon{cmd: cmd, base: base, exited: make(chan struct{}), log: logf}
	go func() {
		//lint:ignore no-dropped-error a SIGKILLed daemon always exits non-zero; exited only marks that it is gone
		cmd.Wait()
		close(d.exited)
	}()
	ready, err := d.awaitHealthy(ctx, start.Add(2*time.Minute))
	if err != nil {
		d.kill()
		return nil, 0, err
	}
	took := ready.Sub(start)
	var ds server.DatasetsResponse
	if err := getJSON(ctx, http.DefaultClient, base+"/api/v1/datasets", &ds); err != nil {
		d.kill()
		return nil, 0, err
	}
	if ds.Markets != seededMarkets {
		d.kill()
		return nil, 0, fmt.Errorf("nimbusd is healthy with %d markets listed, want %d", ds.Markets, seededMarkets)
	}
	return d, took, nil
}

// awaitHealthy polls /healthz every 2 ms until it answers 200, returning
// the time of the first 200.
func (d *daemon) awaitHealthy(ctx context.Context, deadline time.Time) (time.Time, error) {
	client := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	defer client.CloseIdleConnections()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if err != nil {
			return time.Time{}, err
		}
		if resp, err := client.Do(req); err == nil {
			//lint:ignore no-dropped-error the probe body is discarded
			io.Copy(io.Discard, resp.Body)
			//lint:ignore no-dropped-error the probe's body is only read
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Now(), nil
			}
		}
		select {
		case <-d.exited:
			return time.Time{}, fmt.Errorf("nimbusd exited before becoming healthy (see %s)", d.log.Name())
		case <-ctx.Done():
			return time.Time{}, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return time.Time{}, errors.New("nimbusd not healthy after 2m")
		}
	}
}

// kill sends SIGKILL and waits until the process is gone. Idempotent.
func (d *daemon) kill() {
	select {
	case <-d.exited:
	default:
		//lint:ignore no-dropped-error the process may have exited on its own; the wait below is what matters
		d.cmd.Process.Kill()
		<-d.exited
	}
	//lint:ignore no-dropped-error the daemon wrote the log through its own descriptor; this one only handed it over
	d.log.Close()
}

// pid is the daemon's process ID.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// freePort asks the kernel for an unused loopback TCP port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	//lint:ignore no-dropped-error the listener only reserved a port number
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// procCPU is a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(b)
}

// parseProcStat extracts utime+stime (fields 14 and 15, in clock ticks)
// from a /proc/<pid>/stat line. The command name (field 2) is wrapped in
// parentheses and may itself contain spaces and parentheses, so fields
// are counted from the last ')'.
func parseProcStat(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command name")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state), so field n is f[n-3].
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name, want at least 13", len(f))
	}
	var ticks uint64
	for _, s := range f[11:13] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: %w", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// procRSS is a process's resident set size in bytes, from VmRSS in
// /proc/<pid>/status.
func procRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("proc status: unexpected VmRSS line %q", line)
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("proc status: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("proc status: no VmRSS line")
}

// journalBytes sums the sizes of every file under the tenants' journal
// directories of a registry data dir.
func journalBytes(dataDir string) (int64, error) {
	tenants, err := os.ReadDir(dataDir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tenants {
		if !t.IsDir() || strings.HasPrefix(t.Name(), ".") {
			continue
		}
		err := filepath.WalkDir(filepath.Join(dataDir, t.Name(), "journal"), func(_ string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// getJSON fetches url and decodes a 200 response into out.
func getJSON(ctx context.Context, client *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	//lint:ignore no-dropped-error the body is only read
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// scrape reads the daemon's telemetry snapshot.
func scrape(ctx context.Context, base string) (telemetry.Snapshot, error) {
	var s telemetry.Snapshot
	err := getJSON(ctx, http.DefaultClient, base+"/api/v1/metrics", &s)
	return s, err
}

// fsType names the filesystem holding path, since fsync cost depends on
// it. Unknown magic numbers are printed in hex.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	names := map[int64]string{
		0xEF53: "ext2/3/4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x2FC12FC1: "zfs", 0x6969: "nfs", 0x65735546: "fuse",
		0x01021997: "9p", 0xF2F52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
