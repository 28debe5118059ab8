package main

import (
	"math"
	"testing"
	"time"

	"myraft/internal/opid"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {99, 10}, {100, 10},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place: %v", xs)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile(single) = %v, want 7", got)
	}
}

func TestP99CountsFailuresAsMisses(t *testing.T) {
	var recs []record
	for i := 0; i < 98; i++ {
		recs = append(recs, record{kind: opWrite, due: 0, done: time.Millisecond, ok: true})
	}
	// Two failures in a hundred: the 99th percentile must be a miss.
	recs = append(recs, record{kind: opWrite}, record{kind: opWrite})
	if got := p99WithFailures(recs, opWrite); !math.IsInf(got, 1) {
		t.Fatalf("p99 with 2%% failures = %v, want +Inf", got)
	}
	// One failure in a hundred: the 99th percentile is the slowest success.
	recs[98] = recs[0]
	if got := p99WithFailures(recs, opWrite); got != 1 {
		t.Fatalf("p99 with 1%% failures = %v, want 1", got)
	}
}

func TestLatencyIsTimedFromDue(t *testing.T) {
	// The pacer released the request 30ms late and it then took 5ms: the
	// user waited 35ms from when it was due.
	r := record{due: 100 * time.Millisecond, sent: 130 * time.Millisecond, done: 135 * time.Millisecond, ok: true}
	if got := r.latency(); got != 35*time.Millisecond {
		t.Errorf("latency = %v, want 35ms", got)
	}
	if got := r.lateness(); got != 30*time.Millisecond {
		t.Errorf("lateness = %v, want 30ms", got)
	}
	early := record{due: 100 * time.Millisecond, sent: 99 * time.Millisecond}
	if got := early.lateness(); got != 0 {
		t.Errorf("lateness of an early release = %v, want 0", got)
	}
}

// ladderSearch runs the ladder against a system that meets the limit up
// to capacity, and returns the result and the rates tried.
func ladderSearch(start, capacity float64, maxSteps int) (float64, []float64) {
	l := newRateLadder(start, 1.5, 0.08)
	var tried []float64
	for i := 0; i < maxSteps; i++ {
		r, ok := l.next()
		if !ok {
			break
		}
		tried = append(tried, r)
		l.record(r, r <= capacity)
	}
	return l.best, tried
}

func TestRateLadderClimbsThenBisects(t *testing.T) {
	best, tried := ladderSearch(1000, 2600, 20)
	if best > 2600 || best < 2600/1.08 {
		t.Fatalf("ladder found %v for capacity 2600 (tried %v)", best, tried)
	}
	if tried[0] != 1000 || tried[1] != 1500 || tried[2] != 2250 {
		t.Fatalf("ladder should climb geometrically from its start: %v", tried)
	}
	if len(tried) > 8 {
		t.Fatalf("ladder took %d steps: %v", len(tried), tried)
	}
}

func TestRateLadderDescendsWhenStartFails(t *testing.T) {
	best, tried := ladderSearch(1000, 500, 20)
	if best > 500 || best < 500/1.08 {
		t.Fatalf("ladder found %v for capacity 500 (tried %v)", best, tried)
	}
	if tried[1] >= tried[0] {
		t.Fatalf("ladder should descend after a failed start: %v", tried)
	}
}

func TestRateLadderStopsWithinBudget(t *testing.T) {
	// Capacity beyond reach: the search keeps climbing until the caller's
	// step budget runs out, reporting the best rate it proved.
	best, tried := ladderSearch(1000, math.Inf(1), 3)
	if best != 2250 || len(tried) != 3 {
		t.Fatalf("best=%v tried=%v, want 2250 after 3 steps", best, tried)
	}
}

func TestValueRoundTrip(t *testing.T) {
	v := makeValue(123456)
	if len(v) != valueBytes {
		t.Fatalf("value is %d bytes, want %d", len(v), valueBytes)
	}
	if seq, ok := valueSeq(v); !ok || seq != 123456 {
		t.Fatalf("valueSeq = %d, %v", seq, ok)
	}
	if _, ok := valueSeq([]byte("garbage")); ok {
		t.Fatal("valueSeq accepted a foreign value")
	}
}

func TestOpGenIsSeeded(t *testing.T) {
	a := newOpGen(7, readMix).next(1000)
	b := newOpGen(7, readMix).next(1000)
	c := newOpGen(8, readMix).next(1000)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced the same ops")
	}
	var writes int
	for _, o := range a {
		if o.kind == opWrite {
			writes++
		}
	}
	if writes < 60 || writes > 140 {
		t.Fatalf("%d writes in 1000 read-mix ops, want about 100", writes)
	}
}

func TestGateExpectations(t *testing.T) {
	ws := []write{
		{key: "a", seq: 1, op: opAt(1, 5), ok: true},
		{key: "a", seq: 2, op: opAt(1, 9), ok: true},
		{key: "a", seq: 3, ok: false}, // outcome unknown
		{key: "b", seq: 4, ok: false}, // never acked: nothing owed
	}
	exp := expectations(ws)
	if _, ok := exp["b"]; ok {
		t.Fatal("a never-acked key must not be checked")
	}
	a := exp["a"]
	if err := a.check(makeValue(2), true); err != nil {
		t.Errorf("last acked value rejected: %v", err)
	}
	if err := a.check(makeValue(3), true); err != nil {
		t.Errorf("value of an unknown-outcome write rejected: %v", err)
	}
	if err := a.check(makeValue(1), true); err == nil {
		t.Error("an overwritten acked value was accepted: the last acked write is lost")
	}
	if err := a.check(nil, false); err == nil {
		t.Error("a missing key was accepted")
	}
}

func TestUnavailabilityPerCrash(t *testing.T) {
	ms := time.Millisecond
	recs := []record{
		{kind: opWrite, due: 0, done: 5 * ms, ok: true},
		{kind: opWrite, due: 100 * ms, done: 360 * ms, ok: true, retried: true},
		{kind: opWrite, due: 105 * ms, done: 361 * ms, ok: true, retried: true},
		{kind: opWrite, due: 400 * ms, done: 405 * ms, ok: true},
	}
	got := unavailability(recs, []time.Duration{95 * ms})
	if len(got) != 1 || got[0] != 260 {
		t.Fatalf("unavailability = %v, want [260]", got)
	}
}

func TestSelfTimeMergesOverlaps(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }
	parent := span{Start: at(0), End: at(100)}
	kids := []span{
		{Start: at(10), End: at(30)},
		{Start: at(20), End: at(40)},  // overlaps the first
		{Start: at(90), End: at(120)}, // runs past the parent
	}
	if got := selfTime(parent, kids); got != 60*time.Millisecond {
		t.Fatalf("self time = %v, want 60ms", got)
	}
}

func opAt(term, index uint64) opid.OpID { return opid.OpID{Term: term, Index: index} }

func TestWindowLatenciesGroupByDueTime(t *testing.T) {
	ms := time.Millisecond
	recs := []record{
		{kind: opWrite, due: 100 * ms, done: 105 * ms, ok: true},
		{kind: opWrite, due: 900 * ms, done: 910 * ms, ok: true},
		{kind: opWrite, due: 950 * ms, done: 952 * ms, ok: false},  // failed: left out
		{kind: opLease, due: 1100 * ms, done: 1101 * ms, ok: true}, // not kept
		{kind: opWrite, due: 2500 * ms, done: 2507 * ms, ok: true},
	}
	got := windowLatencies(recs, func(r record) bool { return r.kind == opWrite }, time.Second)
	if len(got) != 3 || len(got[0]) != 2 || len(got[1]) != 0 || len(got[2]) != 1 {
		t.Fatalf("windows = %v, want [[5 10] [] [7]]", got)
	}
	if got[0][0] != 5 || got[0][1] != 10 || got[2][0] != 7 {
		t.Fatalf("windows = %v, want [[5 10] [] [7]]", got)
	}
}

func TestCleanWindowMedianLeavesOutStolenWindows(t *testing.T) {
	windows := [][]float64{{5}, {9}, {5.2}, {9.5}, {5.1}, nil, {9.9}}
	steal := []float64{0, 0.3, 0.01, 0.25, 0.02, 0, 0.2}
	v, used, total := cleanWindowMedian(windows, steal, 0.05)
	if v != 5.1 || used != 3 || total != 6 {
		t.Fatalf("got %v from %d of %d windows, want 5.1 from 3 of 6", v, used, total)
	}
	// Fewer than minCleanWindows clean windows: every window counts.
	steal[4] = 0.3
	v, used, total = cleanWindowMedian(windows, steal, 0.05)
	if v != 5.2 || used != 6 || total != 6 {
		t.Fatalf("got %v from %d of %d windows, want 5.2 from 6 of 6", v, used, total)
	}
	// Windows past the last steal reading count as clean.
	v, used, _ = cleanWindowMedian(windows, nil, 0.05)
	if v != 5.2 || used != 6 {
		t.Fatalf("without steal readings got %v from %d windows, want 5.2 from 6", v, used)
	}
}

func TestRunDeadlineScalesWithInputs(t *testing.T) {
	one := runDeadline(1, 20)
	if one != fixedAllowance+40*time.Second {
		t.Fatalf("deadline for one 20 s workload = %v", one)
	}
	if all := runDeadline(4, 20); all != 4*one {
		t.Fatalf("deadline for four workloads = %v, want %v", all, 4*one)
	}
	if long := runDeadline(1, 60); long <= one {
		t.Fatalf("a longer run got no more time: %v", long)
	}
}
