// Command perfbench is the repository's benchmark: it drives
// multiraft.Runtime, the process runtime, with an open-loop load in one
// of four workloads, checks the outcome, and prints end-to-end metrics
// (or, with --trace 1, per-layer metrics). The last line of standard
// output is one JSON object: correct, attempted, failed, metrics.
//
//	bash perfbench/run.sh --workload write-1shard --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads, the modeled delays and the
// metric → layer → end-to-end map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// procStart is as close to process start as Go code runs. The time from
// here to the first workload is the process's start-up, which every
// set-up round of every workload counts.
var procStart = time.Now()

// Run deadline allowances: per selected workload, fixedAllowance covers
// set-up, the layer microbenches, draining and the correctness gate, and
// the measured time counts twice for phases that overrun (ladder steps,
// requests finishing past the phase end).
const fixedAllowance = 60 * time.Second

// workload is one named traffic shape over the common ring.
type workload struct {
	name   string
	shards int
	rate   float64 // nominal offered ops/s
	mix    mix
	// ladder adds a rising-rate search for max_rate_per_s after the
	// nominal phase.
	ladder bool
	// failover crashes the node hosting shard 0's primary on a fixed
	// cadence and restarts it.
	failover bool
}

var (
	writesOnly = mix{opWrite: 1}
	readMix    = mix{opWrite: 0.10, opLease: 0.45, opLin: 0.30, opSession: 0.15}
)

var workloads = []workload{
	{name: "write-1shard", shards: 1, rate: 1000, mix: writesOnly, ladder: true},
	{name: "read-mix", shards: 1, rate: 2000, mix: readMix},
	{name: "write-16shard", shards: 16, rate: 100, mix: writesOnly, ladder: true},
	{name: "failover", shards: 1, rate: 200, mix: writesOnly, failover: true},
}

// endToEnd lists the metrics of the final line with --trace 0: the ones
// every workload reports and that hold steady run to run on a shared
// 2-vCPU host. The rest (write_p99_ms, the read levels, max_rate_per_s,
// unavail_p50_ms, failed_frac) are printed on the report lines above it.
var endToEnd = []string{"setup_s", "write_p50_ms", "cpu_us_per_op", "rss_peak_mb"}

func main() {
	name := flag.String("workload", "", "workload name, or \"all\"")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()

	var selected []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", *name, workloadNames())
		os.Exit(2)
	}
	deadline := runDeadline(len(selected), *seconds)
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded its %s deadline; goroutine dump follows\n", deadline)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	root, err := filepath.Abs(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	work := filepath.Join(root, ".bench_build", "run", fmt.Sprintf("%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	defer os.RemoveAll(work)
	printHost(root, work)
	startup := time.Since(procStart)

	final := result{correct: true, metrics: metricSet{}}
	for _, w := range selected {
		cfg := runConfig{w: w, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, root: root, dir: filepath.Join(work, w.name), startup: startup}
		t0 := time.Now()
		res, err := run(context.Background(), cfg)
		fmt.Printf("elapsed %s %.1fs\n", w.name, time.Since(t0).Seconds())
		printPressure(w.name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.RemoveAll(work)
			os.Exit(1)
		}
		res.report(w.name)
		if err := final.merge(res, w.name, len(selected) > 1, cfg.trace); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.RemoveAll(work)
			os.Exit(2)
		}
	}
	line, err := json.Marshal(final.summary())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !final.correct {
		os.RemoveAll(work)
		os.Exit(1)
	}
}

// runDeadline bounds a whole invocation of n workloads of the given
// measured seconds each.
func runDeadline(n int, seconds float64) time.Duration {
	per := fixedAllowance + 2*time.Duration(seconds*float64(time.Second))
	return time.Duration(n) * per
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// metric is one reported value. n is its sample count (0 when it is a
// single reading).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// metricSet maps metric names to values.
type metricSet map[string]*metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = &metric{Value: v, Unit: unit} }

func (m metricSet) setN(name string, v float64, unit string, n int) {
	m[name] = &metric{Value: v, Unit: unit, n: n}
}

// result is one workload run's outcome.
type result struct {
	correct           bool
	violations        []string
	attempted, failed int
	metrics           metricSet
}

// report prints every metric, one per line, with its unit and sample
// count, then any correctness violations.
func (r *result) report(workload string) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("metric %s %s %.6g %s n=%d\n", workload, n, m.Value, m.Unit, m.n)
	}
	fmt.Printf("ops %s attempted=%d failed=%d correct=%t\n", workload, r.attempted, r.failed, r.correct)
	for _, v := range r.violations {
		fmt.Printf("violation %s %s\n", workload, v)
	}
}

// merge folds one workload's result into the final line. A single
// workload reports its metrics by name; "all" prefixes them.
func (r *result) merge(o *result, workload string, prefix, trace bool) error {
	r.correct = r.correct && o.correct
	r.attempted += o.attempted
	r.failed += o.failed
	names := endToEnd
	if trace {
		names = perLayer
	}
	for _, n := range names {
		m, ok := o.metrics[n]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", workload, n)
		}
		key := n
		if prefix {
			key = workload + "/" + n
		}
		r.metrics[key] = m
	}
	return nil
}

// summary is the final line's shape.
func (r *result) summary() any {
	return struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
}

// runConfig is one workload run's parameters.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	root    string // checkout root
	dir     string // state directory for this run
	// startup is the process's own start-up time, added to each set-up
	// round so setup_s runs from process start.
	startup time.Duration
}

func (c runConfig) measured() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

func run(ctx context.Context, cfg runConfig) (*result, error) {
	fmt.Printf("run workload=%s seed=%d seconds=%g trace=%t shards=%d rate=%g\n",
		cfg.w.name, cfg.seed, cfg.seconds, cfg.trace, cfg.w.shards, cfg.w.rate)
	if cfg.trace {
		return runTraced(ctx, cfg)
	}
	return runEndToEnd(ctx, cfg)
}

// nClients is the number of multiraft.Clients the pacer drives: at most
// nproc.
func nClients() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}
