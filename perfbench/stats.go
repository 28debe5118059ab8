package main

// stats.go holds the benchmark's pure measurement arithmetic: nearest-rank
// percentiles, the open-loop generator's lateness, and the rate ladder
// that searches for the highest rate meeting the latency limit. The
// package tests pin all three.

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, sorting a copy. An empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// windowLatencies splits the successful requests that keep accepts into
// consecutive windows of the given width by due time and returns each
// window's latencies (ms); a window with no sample is empty.
func windowLatencies(recs []record, keep func(record) bool, width time.Duration) [][]float64 {
	var out [][]float64
	for _, r := range recs {
		if !r.ok || !keep(r) {
			continue
		}
		w := int(r.due / width)
		for len(out) <= w {
			out = append(out, nil)
		}
		out[w] = append(out[w], ms(r.latency()))
	}
	return out
}

// minCleanWindows is how many windows within the steal limit
// cleanWindowMedian needs before it leaves the others out.
const minCleanWindows = 3

// cleanWindowMedian is the median of the windows' medians, leaving out
// the windows whose host CPU steal share exceeded maxSteal, as long as at
// least minCleanWindows remain; otherwise it takes every window. It also
// returns how many windows it took, of how many had samples.
func cleanWindowMedian(windows [][]float64, steal []float64, maxSteal float64) (v float64, used, total int) {
	var all, clean []float64
	for i, lat := range windows {
		if len(lat) == 0 {
			continue
		}
		m := median(lat)
		all = append(all, m)
		if i >= len(steal) || steal[i] <= maxSteal {
			clean = append(clean, m)
		}
	}
	if len(clean) < minCleanWindows {
		clean = all
	}
	return median(clean), len(clean), len(all)
}

// mean is the arithmetic mean (0 for an empty sample).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// record is one open-loop request. Offsets are from the phase start: due
// is when the schedule wanted it sent, sent when the pacer released it,
// done when it completed.
type record struct {
	kind opKind
	due  time.Duration
	sent time.Duration
	done time.Duration
	ok   bool
	// retried marks a write whose first attempt failed (a failover).
	retried bool
}

// latency is the request's latency as its user sees it: from when it was
// due, so a stalled generator or a full in-flight cap counts against the
// system rather than hiding the stall (coordinated omission).
func (r record) latency() time.Duration { return r.done - r.due }

// lateness is how far behind schedule the pacer released the request.
func (r record) lateness() time.Duration {
	if r.sent < r.due {
		return 0
	}
	return r.sent - r.due
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencies returns the latencies (ms) of the successful requests of one
// kind, and how many requests of that kind failed.
func latencies(recs []record, kind opKind) (lat []float64, failed int) {
	for _, r := range recs {
		if r.kind != kind {
			continue
		}
		if !r.ok {
			failed++
			continue
		}
		lat = append(lat, ms(r.latency()))
	}
	return lat, failed
}

// p99WithFailures is the 99th-percentile latency (ms) of one kind, with
// every failed request counted as missing any limit (+Inf).
func p99WithFailures(recs []record, kind opKind) float64 {
	lat, failed := latencies(recs, kind)
	for i := 0; i < failed; i++ {
		lat = append(lat, math.Inf(1))
	}
	return percentile(lat, 99)
}

// rateLadder searches for the highest offered rate whose step meets the
// latency limit. It climbs geometrically by grow from start until a step
// fails, then bisects (geometrically) between the best passing and the
// lowest failing rate until they are within resolution of each other.
// If even the start fails it descends by grow.
type rateLadder struct {
	start, grow, resolution float64
	best                    float64 // highest passing rate (0 = none yet)
	fail                    float64 // lowest failing rate (0 = none yet)
}

func newRateLadder(start, grow, resolution float64) *rateLadder {
	return &rateLadder{start: start, grow: grow, resolution: resolution}
}

// next returns the rate to try, or false once the search has converged.
func (l *rateLadder) next() (float64, bool) {
	switch {
	case l.best == 0 && l.fail == 0:
		return l.start, true
	case l.fail == 0:
		return l.best * l.grow, true
	case l.best == 0:
		r := l.fail / l.grow
		return r, r >= 1
	case l.fail/l.best <= 1+l.resolution:
		return 0, false
	default:
		return math.Sqrt(l.best * l.fail), true
	}
}

// record folds one step's outcome into the search.
func (l *rateLadder) record(rate float64, pass bool) {
	if pass {
		if rate > l.best {
			l.best = rate
		}
		return
	}
	if l.fail == 0 || rate < l.fail {
		l.fail = rate
	}
}
