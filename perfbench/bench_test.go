package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"nimbus/internal/market"
	"nimbus/internal/pricing"
	"nimbus/internal/rng"
)

func TestSummarizeTailHasTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		tailQ  float64
		beyond int
	}{
		{1000, 0.99, 10},    // p99 exactly supported
		{5000, 0.99, 50},    // p99 with room to spare
		{500, 0.98, 10},     // too few for p99: p98 is the highest with 10 beyond
		{1209, 0.99007, 12}, // nearest rank: ceil(0.99*1209) = 1197
		{11, 1 / 11.0, 10},  // tiny samples fall back to the lowest rank
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // reversed, so summarize must sort
		}
		s := summarize(xs, 0.99)
		if s.N != tc.n || s.Beyond != tc.beyond || !approx(s.TailQ, tc.tailQ, 1e-4) {
			t.Errorf("n=%d: got n=%d tail_q=%v beyond=%d, want tail_q=%v beyond=%d", tc.n, s.N, s.TailQ, s.Beyond, tc.tailQ, tc.beyond)
		}
		// Values are 1..n, so the value at rank k is k itself.
		if want := float64(tc.n - s.Beyond); s.Tail != want {
			t.Errorf("n=%d: tail %v, want %v", tc.n, s.Tail, want)
		}
		if want := float64(rank(tc.n, 0.5)); s.P50 != want {
			t.Errorf("n=%d: p50 %v, want %v", tc.n, s.P50, want)
		}
	}
	if s := summarize(nil, 0.99); s.N != 0 {
		t.Errorf("empty sample summarized to %+v", s)
	}
}

func TestQuartilesAreNearestRankAndLeaveInputAlone(t *testing.T) {
	xs := []float64{8, 7, 6, 5, 4, 3, 2, 1}
	if q := quartiles(xs); q != [3]float64{2, 4, 6} {
		t.Errorf("quartiles %v, want [2 4 6]", q)
	}
	if xs[0] != 8 {
		t.Error("quartiles sorted its input")
	}
	if q := quartiles(nil); q != [3]float64{} {
		t.Errorf("empty sample gave %v", q)
	}
}

func TestWindowRatesDropThePartialWindow(t *testing.T) {
	var done []time.Duration
	for i := 0; i < 250; i++ {
		done = append(done, time.Duration(i)*2*time.Millisecond) // 500/s for 0.5 s
	}
	rates := windowRates(done, 100*time.Millisecond)
	if len(rates) != 4 {
		t.Fatalf("got %d windows, want 4 full ones", len(rates))
	}
	for _, r := range rates {
		if r != 500 {
			t.Errorf("rate %v, want 500", r)
		}
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name may hold spaces and parentheses; utime (field 14)
	// is 250 ticks and stime (field 15) 50.
	line := "4242 (nim bus) (d)) S 1 4242 4242 0 -1 4194560 1500 0 0 0 250 50 0 0 20 0 9 0 100 0 0"
	got, err := parseProcStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want {
		t.Errorf("cpu %v, want %v", got, want)
	}
	if _, err := parseProcStat([]byte("4242 (short) S 1 2")); err == nil {
		t.Error("truncated stat line parsed")
	}
	self, err := procCPU(os.Getpid())
	if err != nil || self < 0 {
		t.Errorf("own CPU time %v, %v", self, err)
	}
}

func TestParseCPULineTakesStealFromTheEighthField(t *testing.T) {
	steal, total, err := parseCPULine("cpu  100 1 20 300 4 0 5 70 9 9")
	if err != nil || steal != 70 || total != 500 {
		t.Errorf("got steal %d, total %d, %v; want 70, 500", steal, total, err)
	}
	for _, bad := range []string{"cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu 1 2 3 4 5 6 7 x"} {
		if _, _, err := parseCPULine(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	if _, _, err := cpuStat(); err != nil {
		t.Errorf("this machine's /proc/stat: %v", err)
	}
}

func TestLatencyIsChargedFromDueTime(t *testing.T) {
	// Due at 10 ms, held back by a busy connection until 25 ms, answered at
	// 26 ms: the buyer waited 16 ms, not the 1 ms the server took.
	o := outcome{due: 10 * time.Millisecond, done: 26 * time.Millisecond, status: 200}
	if got := o.latency(); got != 16*time.Millisecond {
		t.Errorf("latency %v, want 16ms", got)
	}
	if !o.ok() {
		t.Error("200 not ok")
	}
	if (&outcome{status: 429}).ok() {
		t.Error("429 counted as acknowledged")
	}
}

func TestOpenLoopChargesQueueingToLatencyNotLateness(t *testing.T) {
	// One connection, a server that takes 30 ms, and two requests due
	// 1 ms apart: the second waits for the connection until about 30 ms.
	// Its latency counts from its due time and includes that wait; the
	// generator's lateness counts from when the connection came free.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(30 * time.Millisecond)
	}))
	defer srv.Close()
	reqs := []request{{path: "/a"}, {path: "/b"}}
	due := []time.Duration{0, time.Millisecond}
	outs, late, err := newLoadClient(srv.URL, 1).openLoop(context.Background(), reqs, due)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if !o.ok() || o.due != due[i] {
			t.Fatalf("request %d: status %d, err %v, due %v", i, o.status, o.err, o.due)
		}
	}
	if lat := outs[1].latency(); lat < 55*time.Millisecond {
		t.Errorf("queued request's latency %v, want at least the two 30 ms services less 1 ms", lat)
	}
	if late[1] > 20*time.Millisecond {
		t.Errorf("queued request's lateness %v: the connection's wait was charged to the generator", late[1])
	}
}

func TestOpenScheduleIsSeededPoisson(t *testing.T) {
	ts := []*tenant{{id: "CASP", offering: "CASP/linear-regression", dim: 9, curves: []curve{{
		offering: "CASP/linear-regression", loss: "squared", points: testPoints(),
	}}}}
	w := workload{rate: 2000, browse: 0.25}
	draw := func(seed int64) ([]request, []time.Duration) {
		return openSchedule(rng.New(seed), w, ts, 5*time.Second)
	}
	a, due := draw(1)
	b, _ := draw(1)
	c, _ := draw(2)
	if len(a) != len(b) || string(a[len(a)/2].body) != string(b[len(b)/2].body) {
		t.Error("the same seed drew different schedules")
	}
	if len(a) == len(c) && string(a[len(a)/2].body) == string(c[len(c)/2].body) {
		t.Error("different seeds drew the same schedule")
	}
	if n := float64(len(a)); n < 0.95*10000 || n > 1.05*10000 {
		t.Errorf("%v arrivals in 5s at 2000/s", n)
	}
	reads := 0
	for i, r := range a {
		if i > 0 && due[i] < due[i-1] {
			t.Fatal("due times not increasing")
		}
		if !r.isBuy() {
			reads++
		}
	}
	if share := float64(reads) / float64(len(a)); share < 0.22 || share > 0.28 {
		t.Errorf("read share %v, want about 0.25", share)
	}
}

func TestWireIsValidHTTP(t *testing.T) {
	ts := &tenant{id: "CASP", offering: "CASP/linear-regression", dim: 9, curves: []curve{{offering: "CASP/linear-regression", loss: "squared", points: testPoints()}}}
	r := newBuy(rng.New(1), ts)
	req, err := readRequest(r.wire("127.0.0.1:1"))
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if err := json.NewDecoder(req.Body).Decode(&body); err != nil || body["offering"] != "CASP/linear-regression" {
		t.Errorf("body %v, %v", body, err)
	}
	if req.Method != "POST" || req.URL.Path != "/api/v1/datasets/CASP/buy" {
		t.Errorf("request %s %s", req.Method, req.URL)
	}
}

func TestCheckPurchase(t *testing.T) {
	ts := &tenant{id: "CASP", offering: "CASP/linear-regression", dim: 2, curves: []curve{{offering: "CASP/linear-regression", loss: "squared", points: testPoints()}}}
	r := newBuy(rng.New(1), ts)
	r.buy.Option, r.buy.Value = "price-budget", 15
	p := purchaseAt(1.5, 15)
	if err := checkPurchase(&r, &p); err != nil {
		t.Errorf("good purchase refused: %v", err)
	}
	for name, bad := range map[string]func(){
		"over budget":       func() { p.Price = 15.5 },
		"off the curve":     func() { p.X, p.Price = 1.5, 9 },
		"wrong dimension":   func() { p.Weights = p.Weights[:1] },
		"outside the range": func() { p.X = 3.5 },
	} {
		p = purchaseAt(1.5, 15)
		bad()
		if err := checkPurchase(&r, &p); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestNamesAndUnits(t *testing.T) {
	for _, ok := range []string{"setup_s", "rng.split_us", "journal.fsyncs_per_sale", "9lives", "a-b"} {
		if !validName(ok) {
			t.Errorf("%q refused", ok)
		}
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "µs", "a/b", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	for _, ok := range []string{"ms", "sales/s", "%", "1/s", "count"} {
		if !validUnit(ok) {
			t.Errorf("unit %q refused", ok)
		}
	}
	for _, bad := range []string{"", "µs", "too-long-unit-name", "a b"} {
		if validUnit(bad) {
			t.Errorf("unit %q accepted", bad)
		}
	}
}

func TestDeclaredMetricsAreValid(t *testing.T) {
	d, err := readDeclared("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if d.endToEnd["setup_s"] != "s" || len(d.perLayer) == 0 {
		t.Errorf("declared %v", d)
	}
	for _, w := range workloads {
		if !validName(w.name) {
			t.Errorf("workload name %q", w.name)
		}
	}
}

func approx(a, b, tol float64) bool { return a-b <= tol && b-a <= tol }

// readRequest parses raw HTTP/1.1 request bytes.
func readRequest(raw []byte) (*http.Request, error) {
	return http.ReadRequest(bufio.NewReader(bytes.NewReader(raw)))
}

// testPoints is a three-knot curve: quality 1, 2, 3 at prices 10, 20, 30.
func testPoints() []pricing.PriceErrorPoint {
	return []pricing.PriceErrorPoint{{X: 1, Error: 3, Price: 10}, {X: 2, Error: 2, Price: 20}, {X: 3, Error: 1, Price: 30}}
}

// purchaseAt is a two-weight purchase on the test curve.
func purchaseAt(x, price float64) market.Purchase {
	return market.Purchase{Offering: "CASP/linear-regression", Loss: "squared", X: x, Price: price, ExpectedError: 2.5, Weights: []float64{1, 2}}
}
