package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"nimbus/internal/registry"
	"nimbus/internal/server"
)

// TestServerTimeoutsSet checks every timeout of nimbusd's server is set,
// and that the write allowance outlasts the read allowance it includes.
func TestServerTimeoutsSet(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("unset timeout: header %v, read %v, write %v, idle %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.WriteTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout <= srv.ReadTimeout {
		t.Fatalf("write timeout %v does not outlast the read timeout %v", srv.WriteTimeout, srv.ReadTimeout)
	}
}

// TestStalledListingBodyIsCutOff sends a listing whose body stops after a
// few bytes of its declared length. The server must give up on it once
// the read allowance (shortened here from readTimeout) runs out and close
// the connection, leaving no tenant behind.
func TestStalledListingBodyIsCutOff(t *testing.T) {
	reg, err := registry.Open(registry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	srv := newHTTPServer("127.0.0.1:0", server.NewMulti(reg, server.WithLogger(func(string, ...any) {})))
	srv.ReadTimeout = 300 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Error(err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := fmt.Fprintf(conn, "POST /api/v1/datasets HTTP/1.1\r\nHost: nimbusd\r\n"+
		"Content-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"id\":\"stalled\","); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server either answers the truncated body with a client error or
	// just closes; a 2xx or a read that runs into our own deadline fails.
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Fatalf("stalled listing answered %s", resp.Status)
		}
		_, err = io.Copy(io.Discard, br)
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("the server held the stalled connection open for %v", time.Since(start))
	}
	if reg.Count() != 0 {
		t.Fatalf("a stalled listing left %d markets", reg.Count())
	}
}
