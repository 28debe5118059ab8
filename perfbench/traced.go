package main

// traced.go is the traced run: the layer microbenches, then one ring
// under the nominal load with the benchmark's spans on and the program's
// seven-stage tracing switched off and on in alternate quarters, then
// the correctness gate and the per-layer metrics.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"myraft/internal/multiraft"
	"myraft/internal/trace"
)

// perLayer lists the metrics of the final line with --trace 1.
var perLayer = []string{
	"wire.ae_roundtrip_ns", "wire.ae_roundtrip_allocs", "wire.ae_alloc_bytes_per_payload_byte", "wire.envelope_roundtrip_ns",
	"transport.hop_ns", "transport.hop_allocs", "transport.demux_hop_ns", "transport.demux_hop_allocs",
	"transport.msgs_per_write", "transport.bytes_per_write", "transport.dropped", "transport.demux_drops", "transport.hb_fanout",
	"binlog.append_ns", "binlog.append_allocs", "binlog.group_sync_us", "binlog.bytes_per_write",
	"logstore.append_p50_us", "logstore.sync_p50_us", "logstore.sync_p99_us", "logstore.entries_per_sync",
	"multiraft.route_ns", "multiraft.fsync_coalescing_x", "multiraft.syncs_per_write", "multiraft.reroutes",
	"cluster.resolve_primary_us", "cluster.client_self_us",
	"mysql.set_p50_us", "mysql.set_p99_us", "mysql.group_size_mean", "mysql.group_size_p95",
	"mysql.flush_busy_frac", "mysql.quorum_busy_frac", "mysql.engine_busy_frac",
	"mysql.inflight_mean", "mysql.queue_len_mean", "mysql.syncs_coalesced_per_group", "mysql.txns_aborted",
	"mysql.apply_lag_p99", "mysql.apply_fallback_rate", "mysql.apply_parallel_frac",
	"raft.fsync_batch_mean", "raft.append_durable_p99_us", "raft.loop_blocked_ms",
	"raft.propose_commit_us", "raft.propose_commit_allocs", "raft.terms_per_failover", "raft.failed_election_rounds",
	"readpath.lease_fallback_frac", "readpath.stale_rejections",
	"storage.txn_ns", "storage.txn_allocs", "storage.engine_syncs_per_write",
	"trace.propose_p50_us", "trace.propose_p99_us", "trace.append_p50_us", "trace.append_p99_us",
	"trace.fsync_p50_us", "trace.fsync_p99_us", "trace.replicate_p50_us", "trace.replicate_p99_us",
	"trace.commit_p50_us", "trace.commit_p99_us", "trace.apply_p50_us", "trace.apply_p99_us",
	"trace.engine_commit_p50_us", "trace.engine_commit_p99_us", "trace.overhead_pct",
	"process.alloc_kb_per_op", "process.gc_cpu_frac", "process.goroutines_peak",
	"harness.gen_late_p99_ms", "harness.inflight_peak",
}

// sampleEvery is the gauge sampler's cadence.
const sampleEvery = 100 * time.Millisecond

func runTraced(ctx context.Context, cfg runConfig) (*result, error) {
	w := cfg.w
	res := &result{metrics: metricSet{}}
	out := res.metrics

	keyGen := newOpGen(cfg.seed, w.mix)
	var keys []string
	for _, o := range keyGen.next(10_000) {
		keys = append(keys, o.key)
	}
	t0 := time.Now()
	if err := layerBenches(ctx, filepath.Join(cfg.dir, "layers"), keys, out); err != nil {
		return nil, fmt.Errorf("layer benches: %w", err)
	}
	fmt.Printf("layers %s %.1fs\n", w.name, time.Since(t0).Seconds())

	spans := newSpanLog()
	roles := newRoleLog()
	rt, err := newRing(ctx, ringOpts{shards: w.shards, seed: cfg.seed, dir: filepath.Join(cfg.dir, "ring"), traced: true, spans: spans, roles: roles})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	gen := newOpGen(cfg.seed, w.mix)
	d := newLoader(rt, nClients(), true, spans)
	d.runPhase(ctx, gen.next(int(w.rate*warmup.Seconds())), w.rate, time.Now())

	phase := cfg.measured()
	ops := gen.next(int(w.rate * phase.Seconds()))
	spans.enable(true)
	before := takeSnapshot(rt)
	proc0 := readProc()
	sampler := startGaugeSampler(rt, sampleEvery)
	start := time.Now()
	quarter := phase / 4
	toggled := make(chan struct{})
	go func() {
		defer close(toggled)
		for q := 1; q < 4; q++ {
			time.Sleep(time.Until(start.Add(time.Duration(q) * quarter)))
			setTracing(rt, q%2 == 1)
		}
	}()
	crashes := make(chan []time.Duration, 1)
	if w.failover {
		go func() { crashes <- crashLoop(rt, start, phase) }()
	}
	recs := d.runPhase(ctx, ops, w.rate, start)
	<-toggled
	setTracing(rt, false)
	var crashAt []time.Duration
	if w.failover {
		crashAt = <-crashes
	}
	sampler.halt()
	spans.enable(false)
	proc := readProc().minus(proc0)
	after := takeSnapshot(rt)

	writes, completed, lease := 0, 0, 0
	var late []float64
	var on, off []float64
	for _, r := range recs {
		res.attempted++
		late = append(late, ms(r.lateness()))
		if r.kind == opLease {
			lease++
		}
		if !r.ok {
			res.failed++
			continue
		}
		completed++
		if r.kind != opWrite {
			continue
		}
		writes++
		if (r.due/quarter)%2 == 1 {
			on = append(on, ms(r.latency()))
		} else {
			off = append(off, ms(r.latency()))
		}
	}

	layerMetrics(out, before, after, sampler, spans, w.shards, writes, lease, phase)
	stageMetrics(out, rt)
	overhead := 0.0
	if p := percentile(off, 50); p > 0 {
		overhead = (percentile(on, 50) - p) / p * 100
	}
	out.setN("trace.overhead_pct", overhead, "%", len(on)+len(off))

	termsPerFailover := 0.0
	if len(crashAt) > 0 {
		termsPerFailover = float64(after.maxTerm-before.maxTerm) / float64(len(crashAt))
	}
	out.setN("raft.terms_per_failover", termsPerFailover, "count", len(crashAt))
	out.set("raft.failed_election_rounds", float64(roles.failedRounds(before.maxTerm)), "count")

	out.set("process.alloc_kb_per_op", proc.allocBytes/1024/float64(max(completed, 1)), "KiB")
	gcFrac := 0.0
	if proc.cpu > 0 {
		gcFrac = proc.gcCPU / proc.cpu
	}
	out.set("process.gc_cpu_frac", gcFrac, "ratio")
	out.setN("process.goroutines_peak", maxOf(sampler.goroutines), "count", len(sampler.goroutines))
	out.setN("harness.gen_late_p99_ms", percentile(late, 99), "ms", len(late))
	out.set("harness.inflight_peak", float64(d.inflightPeak.Load()), "count")

	t0 = time.Now()
	res.violations = gate(ctx, rt, d.writeLog())
	res.correct = len(res.violations) == 0
	fmt.Printf("gate %s %.1fs\n", w.name, time.Since(t0).Seconds())

	spanDir := filepath.Join(cfg.root, ".bench_build", "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := spans.writeFile(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans %s %s kept=%d dropped=%d\n", w.name, path, len(spans.spans), spans.dropped)
	return res, nil
}

// layerMetrics turns the snapshot deltas, the sampled gauges and the
// benchmark's spans into per-layer metrics.
func layerMetrics(out metricSet, before, after snapshot, g *gaugeSampler, spans *spanLog, shards, writes, lease int, phase time.Duration) {
	per := func(n float64) float64 { return n / float64(max(writes, 1)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	out.setN("transport.msgs_per_write", per(float64(after.netMsgs-before.netMsgs)), "msg/write", writes)
	out.setN("transport.bytes_per_write", per(float64(after.netBytes-before.netBytes)), "B/write", writes)
	out.set("transport.dropped", float64(after.netDropped-before.netDropped), "count")
	out.set("transport.demux_drops", float64(after.demuxDrops-before.demuxDrops), "count")
	out.set("transport.hb_fanout", ratio(float64(after.hbItems-before.hbItems), float64(after.hbFlush-before.hbFlush)), "ratio")
	out.set("multiraft.fsync_coalescing_x", ratio(float64(after.syncRequests-before.syncRequests), float64(after.syncs-before.syncs)), "x")
	out.setN("multiraft.syncs_per_write", per(float64(after.syncs-before.syncs)), "1/write", writes)
	out.set("multiraft.reroutes", float64(after.reroutes-before.reroutes), "count")
	out.set("readpath.stale_rejections", float64(after.staleRejects-before.staleRejects), "count")
	out.setN("readpath.lease_fallback_frac", ratio(float64(after.leaseFallbacks-before.leaseFallbacks), float64(lease)), "ratio", lease)

	var sum memberCounters
	var leaderBytes, leaders, groupP95 float64
	var durableP99 []float64
	for _, c := range memberDeltas(before, after) {
		sum.groups += c.groups
		sum.txns += c.txns
		sum.aborted += c.aborted
		sum.flushNs += c.flushNs
		sum.quorumNs += c.quorumNs
		sum.engineNs += c.engineNs
		sum.coalesced += c.coalesced
		sum.engineSyncs += c.engineSyncs
		sum.fsyncs += c.fsyncs
		sum.appended += c.appended
		sum.loopBlocked += c.loopBlocked
		sum.tracked += c.tracked
		sum.fallbacks += c.fallbacks
		sum.parallel += c.parallel
		sum.serial += c.serial
		if c.leader {
			leaders++
			leaderBytes += float64(c.binlogBytes)
			groupP95 += float64(c.groupP95)
			durableP99 = append(durableP99, us(c.appendDurableP99))
		}
	}
	busy := func(ns int64) float64 { return ratio(float64(ns), float64(shards)*float64(phase.Nanoseconds())) }
	out.setN("binlog.bytes_per_write", per(leaderBytes), "B/write", writes)
	out.setN("storage.engine_syncs_per_write", per(float64(sum.engineSyncs)), "1/write", writes)
	out.set("mysql.group_size_mean", ratio(float64(sum.txns), float64(sum.groups)), "txn")
	out.set("mysql.group_size_p95", ratio(groupP95, leaders), "txn")
	out.set("mysql.flush_busy_frac", busy(sum.flushNs), "ratio")
	out.set("mysql.quorum_busy_frac", busy(sum.quorumNs), "ratio")
	out.set("mysql.engine_busy_frac", busy(sum.engineNs), "ratio")
	out.set("mysql.syncs_coalesced_per_group", ratio(float64(sum.coalesced), float64(sum.groups)), "ratio")
	out.set("mysql.txns_aborted", float64(sum.aborted), "count")
	out.set("mysql.apply_fallback_rate", ratio(float64(sum.fallbacks), float64(sum.tracked)), "ratio")
	out.set("mysql.apply_parallel_frac", ratio(float64(sum.parallel), float64(sum.parallel+sum.serial)), "ratio")
	out.set("raft.fsync_batch_mean", ratio(float64(sum.appended), float64(sum.fsyncs)), "entry")
	out.setN("raft.append_durable_p99_us", median(durableP99), "us", len(durableP99))
	out.set("raft.loop_blocked_ms", ms(sum.loopBlocked), "ms")

	g.mu.Lock()
	out.setN("mysql.inflight_mean", mean(g.inflight), "group", len(g.inflight))
	out.setN("mysql.queue_len_mean", mean(g.queue), "txn", len(g.queue))
	out.setN("mysql.apply_lag_p99", percentile(g.applyLag, 99), "entry", len(g.applyLag))
	g.mu.Unlock()

	durUS := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = us(d)
		}
		return out
	}
	appends := durUS(spans.durations("logstore.append"))
	syncs := durUS(spans.durations("logstore.sync"))
	out.setN("logstore.append_p50_us", percentile(appends, 50), "us", len(appends))
	out.setN("logstore.sync_p50_us", percentile(syncs, 50), "us", len(syncs))
	out.setN("logstore.sync_p99_us", percentile(syncs, 99), "us", len(syncs))
	out.set("logstore.entries_per_sync", ratio(float64(len(appends)), float64(len(syncs))), "entry")
	sets := durUS(spans.durations("mysql.set"))
	out.setN("mysql.set_p50_us", percentile(sets, 50), "us", len(sets))
	out.setN("mysql.set_p99_us", percentile(sets, 99), "us", len(sets))
	resolve := durUS(spans.durations("cluster.resolve_primary"))
	out.setN("cluster.resolve_primary_us", percentile(resolve, 50), "us", len(resolve))
	self := durUS(spans.selfTimes("client.write", "mysql.set"))
	out.setN("cluster.client_self_us", percentile(self, 50), "us", len(self))
}

// stageMetrics reads the program's seven write-path stage histograms
// from every member registry. Each stage reports the sample-count-weighted
// mean across members of the members' own p50 and p99.
func stageMetrics(out metricSet, rt *multiraft.Runtime) {
	type acc struct{ p50, p99, n float64 }
	stages := map[trace.Stage]*acc{}
	for _, mr := range rt.MemberRegistries() {
		for st, sum := range mr.Tracer.StageSummaries() {
			a := stages[st]
			if a == nil {
				a = &acc{}
				stages[st] = a
			}
			n := float64(sum.Count)
			a.p50 += us(sum.Median) * n
			a.p99 += us(sum.P99) * n
			a.n += n
		}
	}
	for _, st := range trace.Stages() {
		a := stages[st]
		if a == nil || a.n == 0 {
			// Unset, so the run fails with the stage named as missing.
			continue
		}
		out.setN("trace."+st.String()+"_p50_us", a.p50/a.n, "us", int(a.n))
		out.setN("trace."+st.String()+"_p99_us", a.p99/a.n, "us", int(a.n))
	}
}

// procStats is process-wide runtime accounting.
type procStats struct {
	allocBytes, gcCPU, cpu float64
}

func readProc() procStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return procStats{allocBytes: val(0), gcCPU: val(1), cpu: val(2)}
}

func (p procStats) minus(b procStats) procStats {
	return procStats{allocBytes: p.allocBytes - b.allocBytes, gcCPU: p.gcCPU - b.gcCPU, cpu: p.cpu - b.cpu}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
