package main

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// outcome is what one request came back with. Times are offsets from the
// phase start: due is when the schedule wanted it sent (0 in a closed
// loop), done when its response body was read.
type outcome struct {
	due, done time.Duration
	status    int // 0 when the request failed before a response
	body      []byte
	err       error
}

// latency is the request's time from its due time to its response: a
// request the generator or a busy connection held back is charged the
// wait, as a buyer arriving on schedule would feel it.
func (o *outcome) latency() time.Duration { return o.done - o.due }

// ok reports whether the request was answered with a 2xx.
func (o *outcome) ok() bool { return o.err == nil && o.status/100 == 2 }

// loadClient sends the benchmark's requests over at most conns keep-alive
// connections to one daemon. Each buyer owns one connection and writes
// the request's prebuilt HTTP/1.1 bytes directly, so the load generator
// spends as little CPU as possible on the CPUs it shares with the daemon.
type loadClient struct {
	addr  string // host:port
	conns int
}

func newLoadClient(base string, conns int) *loadClient {
	return &loadClient{addr: strings.TrimPrefix(base, "http://"), conns: conns}
}

// conn is one buyer's connection; nil until first use and after a failure.
type conn struct {
	c  net.Conn
	br *bufio.Reader
}

func (cn *conn) close() {
	if cn.c != nil {
		//lint:ignore no-dropped-error a dropped connection has nothing left to deliver
		cn.c.Close()
		cn.c = nil
	}
}

// do sends r on cn, dialing first if cn has no live connection, and reads
// the whole response. A failed request drops the connection.
func (c *loadClient) do(cn *conn, r *request) (int, []byte, error) {
	if cn.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return 0, nil, err
		}
		cn.c, cn.br = nc, bufio.NewReader(nc)
	}
	// A hung daemon fails the request instead of the whole run.
	if err := cn.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		cn.close()
		return 0, nil, err
	}
	status, body, err := roundTrip(cn.c, cn.br, r.wire(c.addr))
	if err != nil {
		cn.close()
	}
	return status, body, err
}

// roundTrip writes one request and reads its response.
func roundTrip(w io.Writer, br *bufio.Reader, wire []byte) (int, []byte, error) {
	if _, err := w.Write(wire); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	//lint:ignore no-dropped-error the body is only read, and the read error is returned
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// openLoop sends reqs[i] at due[i] after the phase start whatever the
// daemon's state — independent buyers do not wait for each other — over
// c.conns connections, and returns one outcome per request plus each
// request's generator lateness. Each connection takes the next unsent
// request, sleeps until it is due and sends it, so no hand-over between
// goroutines sits between the wake-up and the write. A request that comes
// due while every connection is busy waits for the first free one and is
// still timed from its due time; its lateness counts from that moment, so
// lateness measures only the generator's own wake-ups.
func (c *loadClient) openLoop(ctx context.Context, reqs []request, due []time.Duration) ([]outcome, []time.Duration, error) {
	out := make([]outcome, len(reqs))
	late := make([]time.Duration, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cn conn
			defer cn.close()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				free := time.Since(start)
				sleepUntil(start, due[i])
				o := &out[i]
				o.due = due[i]
				late[i] = time.Since(start) - max(due[i], free)
				o.status, o.body, o.err = c.do(&cn, &reqs[i])
				o.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return out, late, ctx.Err()
}

// sleepUntil blocks the calling thread until offset at after start. Go's
// timers wake up to a millisecond late for short waits, which would be
// charged to every request timed from its due time; nanosleep(2) wakes
// within about 0.1 ms. Interrupted sleeps (the runtime signals its threads)
// resume with what is left.
func sleepUntil(start time.Time, at time.Duration) {
	for {
		wait := at - time.Since(start)
		if wait <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(wait))
		//lint:ignore no-dropped-error EINTR only cuts the sleep short, and the loop sleeps again
		syscall.Nanosleep(&ts, nil)
	}
}

// closedLoop runs c.conns buyers that each send their next purchase as
// soon as the previous one is answered, drawing from reqs in order until
// every request is sent. It returns the outcomes in the order the
// purchases were drawn and the phase's wall time.
func (c *loadClient) closedLoop(ctx context.Context, reqs []request) ([]outcome, time.Duration) {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cn conn
			defer cn.close()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				o := &out[i]
				o.status, o.body, o.err = c.do(&cn, &reqs[i])
				o.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	// Every claimed index was sent; a cancelled phase claims fewer.
	return out[:min(int(next.Load()), len(reqs))], time.Since(start)
}
