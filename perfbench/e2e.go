package main

// e2e.go is the untraced run: set up (three times, median reported),
// offer the nominal load, climb the rate ladder, run the correctness
// gate, and report end-to-end metrics. Program tracing is off.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"myraft/internal/multiraft"
)

const (
	// setupRounds is how many times a run builds, bootstraps and warms
	// the ring; setup_s is their median. The last ring is measured.
	setupRounds = 3
	// warmup is the untimed load at the nominal rate that ends set-up.
	warmup = 300 * time.Millisecond
	// nominalShare is the part of a ladder workload's measured time spent
	// at the nominal rate; the ladder gets the rest.
	nominalShare = 0.6
	// ladderStep is one ladder step's offered-load duration.
	ladderStep = 500 * time.Millisecond
	// p99Limit is the ladder's latency limit on write p99.
	p99Limit = 50 * time.Millisecond
	// p50Window is the width of the nominal-phase windows whose median
	// write latencies write_p50_ms takes the median of.
	p50Window = time.Second
	// maxSteal is the host CPU steal share above which a window is left
	// out of write_p50_ms.
	maxSteal = 0.05
)

// servedWrite selects the writes whose latency is the served path's:
// writes that had to retry across a failover are the outage, which
// unavail_p50_ms reports.
func servedWrite(r record) bool { return r.kind == opWrite && !r.retried }

// Failover schedule: crash shard 0's primary host every crashEvery from
// firstCrash on, and restart it restartAfter later — long enough to
// catch up before the next crash.
const (
	firstCrash   = 500 * time.Millisecond
	crashEvery   = 1200 * time.Millisecond
	restartAfter = 700 * time.Millisecond
)

func runEndToEnd(ctx context.Context, cfg runConfig) (*result, error) {
	w := cfg.w
	gen := newOpGen(cfg.seed, w.mix)
	var rt *multiraft.Runtime
	var d *loader
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		dir := filepath.Join(cfg.dir, fmt.Sprintf("ring-%d", i))
		var err error
		rt, err = newRing(ctx, ringOpts{shards: w.shards, seed: cfg.seed, dir: dir})
		if err != nil {
			return nil, err
		}
		d = newLoader(rt, nClients(), false, nil)
		d.runPhase(ctx, gen.next(int(w.rate*warmup.Seconds())), w.rate, time.Now())
		setups = append(setups, (cfg.startup + time.Since(t0)).Seconds())
		if i < setupRounds-1 {
			rt.Close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	defer rt.Close()

	res := &result{metrics: metricSet{}}
	res.metrics.setN("setup_s", median(setups), "s", len(setups))

	nominal := cfg.measured()
	if w.ladder {
		nominal = time.Duration(float64(nominal) * nominalShare)
	}
	ops := gen.next(int(w.rate * nominal.Seconds()))
	// The peak resident set is this ring's, under the nominal load: the
	// set-up rounds' memory is returned and the process peak reset first.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	start := time.Now()
	crashes := make(chan []time.Duration, 1)
	if w.failover {
		go func() { crashes <- crashLoop(rt, start, nominal) }()
	}
	stopSteal := make(chan struct{})
	stealc := sampleSteal(start, p50Window, stopSteal)
	recs := d.runPhase(ctx, ops, w.rate, start)
	cpu := cpuTime() - cpu0
	close(stopSteal)
	steal := <-stealc
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	var crashAt []time.Duration
	if w.failover {
		crashAt = <-crashes
	}

	completed := 0
	var late []float64
	for _, r := range recs {
		late = append(late, ms(r.lateness()))
		res.attempted++
		if r.ok {
			completed++
		} else {
			res.failed++
		}
	}
	var lat []float64
	for _, r := range recs {
		if r.ok && servedWrite(r) {
			lat = append(lat, ms(r.latency()))
		}
	}
	// write_p50_ms is the median of per-window medians over the windows
	// the host did not steal CPU from, so neighbours' load moves it less.
	windows := windowLatencies(recs, servedWrite, p50Window)
	p50, used, total := cleanWindowMedian(windows, steal, maxSteal)
	var p50s []float64
	for _, win := range windows {
		p50s = append(p50s, median(win))
	}
	fmt.Printf("windows %s write_p50_ms used=%d of %d p50=%.2f steal=%.3f\n", w.name, used, total, p50s, steal)
	res.metrics.setN("write_p50_ms", p50, "ms", len(lat))
	res.metrics.setN("write_p99_ms", percentile(lat, 99), "ms", len(lat))
	res.metrics.setN("failed_frac", float64(res.failed)/float64(res.attempted), "ratio", res.attempted)
	res.metrics.setN("cpu_us_per_op", us(cpu)/float64(max(completed, 1)), "us", completed)
	if w.mix[opLease] > 0 {
		for _, k := range []struct {
			kind opKind
			name string
		}{{opLease, "lease_read"}, {opLin, "lin_read"}, {opSession, "session_read"}} {
			l, _ := latencies(recs, k.kind)
			res.metrics.setN(k.name+"_p50_ms", percentile(l, 50), "ms", len(l))
			res.metrics.setN(k.name+"_p99_ms", percentile(l, 99), "ms", len(l))
		}
	}
	if w.failover {
		u := unavailability(recs, crashAt)
		fmt.Printf("outages %s ms=%.0f\n", w.name, u)
		res.metrics.setN("unavail_p50_ms", median(u), "ms", len(u))
		if len(u) == 0 {
			res.violations = append(res.violations, "failover: no outage observed")
		}
	}
	if w.ladder {
		rate, steps := climbLadder(ctx, d, gen, w.rate, cfg.measured()-nominal)
		res.metrics.setN("max_rate_per_s", rate, "1/s", steps)
	}
	res.metrics.set("rss_peak_mb", rss, "MB")
	res.metrics.setN("harness.gen_late_p99_ms", percentile(late, 99), "ms", len(late))

	t0 := time.Now()
	res.violations = append(res.violations, gate(ctx, rt, d.writeLog())...)
	fmt.Printf("gate %s %.1fs\n", w.name, time.Since(t0).Seconds())
	res.correct = len(res.violations) == 0
	return res, nil
}

// climbLadder offers rising rates for ladderStep each, within budget,
// and returns the highest rate whose write p99 (failures counted as
// misses) stayed within p99Limit, with the number of steps run. Requests
// are timed from their due time, so a growing backlog fails the step.
func climbLadder(ctx context.Context, d *loader, gen *opGen, start float64, budget time.Duration) (float64, int) {
	l := newRateLadder(1.5*start, 1.5, 0.08)
	steps := 0
	for spent := time.Duration(0); spent+ladderStep <= budget; steps++ {
		rate, ok := l.next()
		if !ok {
			break
		}
		t0 := time.Now()
		recs := d.runPhase(ctx, gen.next(int(rate*ladderStep.Seconds())), rate, t0)
		l.record(rate, p99WithFailures(recs, opWrite) <= ms(p99Limit))
		spent += time.Since(t0)
	}
	return l.best, steps
}

// crashLoop crashes the host of shard 0's primary on the failover
// schedule within the phase, restarting each after restartAfter, and
// returns the crash offsets from start.
func crashLoop(rt *multiraft.Runtime, start time.Time, phase time.Duration) []time.Duration {
	var crashes []time.Duration
	for at := firstCrash; at+restartAfter < phase; at += crashEvery {
		time.Sleep(time.Until(start.Add(at)))
		id, ok := rt.Registry().Primary(rt.ShardName(0))
		if !ok {
			continue
		}
		crashes = append(crashes, time.Since(start))
		if err := rt.Crash(id); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: crash:", err)
			continue
		}
		time.Sleep(restartAfter)
		if err := rt.Restart(id); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: restart:", err)
		}
	}
	return crashes
}

// unavailability returns, per crash, the time (ms) from the due time of
// the first write after the crash whose attempt failed to the next write
// completion after it.
func unavailability(recs []record, crashes []time.Duration) []float64 {
	var out []float64
	for k, c := range crashes {
		end := time.Duration(1<<63 - 1)
		if k+1 < len(crashes) {
			end = crashes[k+1]
		}
		first := -1
		for i, r := range recs {
			if r.kind == opWrite && r.due >= c && r.due < end && r.retried {
				first = i
				break
			}
		}
		if first < 0 {
			continue
		}
		due := recs[first].due
		next := time.Duration(1<<63 - 1)
		for _, r := range recs[first:] {
			if r.kind == opWrite && r.ok && r.done < next {
				next = r.done
			}
		}
		if next < time.Duration(1<<63-1) {
			out = append(out, ms(next-due))
		}
	}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the kernel's peak resident set size for this
// process (VmHWM) to the current one.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM) since
// the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
