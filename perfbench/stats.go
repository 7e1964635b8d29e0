package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a p99 of 200 samples rests on two values and is not reported as a p99.
const minBeyond = 10

// summary is one distribution reduced to what the benchmark reports: the
// median and the highest percentile, up to the one asked for, that leaves
// at least minBeyond samples beyond it.
type summary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	Tail   float64 `json:"tail"`
	TailQ  float64 `json:"tail_q"` // the percentile Tail is, as a fraction
	Beyond int     `json:"beyond"` // samples strictly above Tail's rank
}

// summarize sorts xs in place and reports its median and the tail
// percentile nearest to want that the sample supports. An empty sample
// summarizes to zeros with N 0.
func summarize(xs []float64, want float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	sort.Float64s(xs)
	n := len(xs)
	s := summary{N: n, P50: xs[rank(n, 0.5)-1]}
	k := tailRank(n, want)
	s.Tail, s.TailQ, s.Beyond = xs[k-1], float64(k)/float64(n), n-k
	return s
}

// windowRates counts the completion times (offsets from the phase start)
// in consecutive windows of width w, dropping the last, partial window,
// and returns each window's rate per second.
func windowRates(done []time.Duration, w time.Duration) []float64 {
	var counts []float64
	for _, d := range done {
		i := int(d / w)
		for len(counts) <= i {
			counts = append(counts, 0)
		}
		counts[i]++
	}
	if len(counts) > 0 {
		counts = counts[:len(counts)-1]
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return counts
}

// rank is the 1-based nearest-rank position of quantile q in n samples.
// The epsilon keeps 0.99*1000 at rank 990 despite binary rounding.
func rank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	return max(1, min(n, k))
}

// tailRank is the rank of the highest quantile up to want that leaves at
// least minBeyond samples above it. Samples too small for any such rank
// fall back to the largest value, with fewer than minBeyond beyond.
func tailRank(n int, want float64) int {
	k := rank(n, want)
	if n-k < minBeyond {
		k = max(1, n-minBeyond)
	}
	return k
}

// String renders the summary the way the result lines print it.
func (s summary) String() string {
	return fmt.Sprintf("p50 %.4g, p%.4g %.4g (n=%d, %d beyond)", s.P50, 100*s.TailQ, s.Tail, s.N, s.Beyond)
}

// ms and us convert durations to the float units the metrics report.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the middle value of xs (the mean of the two middle values
// for an even count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// by the nearest-rank rule, leaving xs unchanged. An empty sample gives
// zeros.
func quartiles(xs []float64) [3]float64 {
	var q [3]float64
	if len(xs) == 0 {
		return q
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, p := range []float64{0.25, 0.5, 0.75} {
		q[i] = s[rank(len(s), p)-1]
	}
	return q
}

// validName reports whether s is usable as a metric or workload name: a
// letter or digit first, then up to 63 more letters, digits, '_', '.' or
// '-'.
func validName(s string) bool {
	if s == "" || len(s) > 64 || !alnum(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if c := s[i]; !alnum(c) && c != '_' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}

// validUnit reports whether s is usable as a metric unit: 1 to 16 letters,
// digits, '_', '/', '%', '.' or '-'.
func validUnit(s string) bool {
	if s == "" || len(s) > 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case alnum(c), c == '_', c == '/', c == '%', c == '.', c == '-':
		default:
			return false
		}
	}
	return true
}

func alnum(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}
