package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"myraft/internal/trace"
)

// stageCounts sums per-stage write-path observations across every up
// member's registry.
func stageCounts(c *Cluster) map[trace.Stage]int {
	out := make(map[trace.Stage]int)
	for _, mr := range c.MemberRegistries() {
		hists := mr.Reg.Histograms()
		for _, s := range trace.Stages() {
			if h := hists[trace.HistogramName(s)]; h != nil {
				out[s] += h.Count()
			}
		}
	}
	return out
}

// TestWritePathTracesAllSevenStages is the acceptance check for the
// trace layer: a written transaction must produce nonzero observations
// in every stage of the taxonomy, aggregated cluster-wide. The primary
// contributes propose/append/fsync/replicate/commit/engine_commit; the
// replica's applier contributes apply (and its own engine_commit).
func TestWritePathTracesAllSevenStages(t *testing.T) {
	c := bootCluster(t, testOptions(t, nil), smallTopology())
	client := c.NewClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		if _, err := client.Write(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "replica convergence", func() bool {
		sums := c.EngineChecksums()
		return len(sums) == 2 && sums["mysql-0"] == sums["mysql-1"]
	})
	waitFor(t, "all seven stages observed", func() bool {
		counts := stageCounts(c)
		for _, s := range trace.Stages() {
			if counts[s] == 0 {
				return false
			}
		}
		return true
	})

	// The primary's slow-op journal recorded finished spans with full
	// stage breakdowns.
	var journaled int
	for _, mr := range c.MemberRegistries() {
		if mr.Tracer == nil {
			continue
		}
		for _, op := range mr.Tracer.Journal().Top() {
			journaled++
			if op.Total <= 0 {
				t.Fatalf("journal entry %q has non-positive total %v", op.Op, op.Total)
			}
		}
	}
	if journaled == 0 {
		t.Fatal("no slow ops journaled despite sampled writes")
	}
}

// TestMemberRegistriesRefreshGauges checks the scrape-time refresh:
// raft cursors, binlog I/O totals, and applier state land in each up
// member's registry.
func TestMemberRegistriesRefreshGauges(t *testing.T) {
	c := bootCluster(t, testOptions(t, nil), smallTopology())
	client := c.NewClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if _, err := client.Write(ctx, fmt.Sprintf("g%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	regs := c.MemberRegistries()
	if len(regs) != len(smallTopology()) {
		t.Fatalf("got %d registries, want %d", len(regs), len(smallTopology()))
	}
	var sawLeader, sawApplier bool
	for _, mr := range regs {
		snap := mr.Reg.Snapshot()
		if snap["raft_commit_index"] <= 0 {
			t.Fatalf("%s: raft_commit_index = %d, want > 0", mr.ID, snap["raft_commit_index"])
		}
		if snap["binlog_appends"] <= 0 {
			t.Fatalf("%s: binlog_appends = %d, want > 0", mr.ID, snap["binlog_appends"])
		}
		if snap["raft_is_leader"] == 1 {
			sawLeader = true
		}
		if strings.HasPrefix(string(mr.ID), "mysql-") {
			if _, ok := snap["apply_workers"]; !ok {
				t.Fatalf("%s: MySQL member registry missing apply_workers", mr.ID)
			}
			sawApplier = true
		}
	}
	if !sawLeader {
		t.Fatal("no member reports raft_is_leader=1")
	}
	if !sawApplier {
		t.Fatal("no MySQL member registry seen")
	}
}

// TestRegistriesSurviveCrashRestart: a member's registry and trace
// history are member-lifetime, not process-lifetime — crash/restart
// must not reset them.
func TestRegistriesSurviveCrashRestart(t *testing.T) {
	c := bootCluster(t, testOptions(t, nil), smallTopology())
	client := c.NewClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := client.Write(ctx, "pre", []byte("1")); err != nil {
		t.Fatal(err)
	}

	m := c.Member("mysql-1")
	before := m.Metrics()
	if before == nil {
		t.Fatal("member has no registry")
	}
	if err := c.Crash("mysql-1"); err != nil {
		t.Fatal(err)
	}
	// Crashed members are excluded from the scrape set.
	for _, mr := range c.MemberRegistries() {
		if mr.ID == "mysql-1" {
			t.Fatal("crashed member still listed in MemberRegistries")
		}
	}
	if err := c.Restart("mysql-1"); err != nil {
		t.Fatal(err)
	}
	if m.Metrics() != before {
		t.Fatal("restart replaced the member registry")
	}
	waitFor(t, "restarted member rejoins scrape set", func() bool {
		for _, mr := range c.MemberRegistries() {
			if mr.ID == "mysql-1" {
				return true
			}
		}
		return false
	})
}

// TestTraceSamplingDisabled: a negative TraceSampleEvery turns tracing
// off entirely — no tracer, no write-path histograms.
func TestTraceSamplingDisabled(t *testing.T) {
	opts := testOptions(t, nil)
	opts.TraceSampleEvery = -1
	c := bootCluster(t, opts, smallTopology())
	client := c.NewClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := client.Write(ctx, "x", []byte("y")); err != nil {
		t.Fatal(err)
	}
	for _, mr := range c.MemberRegistries() {
		if mr.Tracer != nil {
			t.Fatalf("%s: tracer present despite TraceSampleEvery=-1", mr.ID)
		}
		for name := range mr.Reg.Histograms() {
			if strings.HasPrefix(name, "writepath_") {
				t.Fatalf("%s: unexpected write-path histogram %q", mr.ID, name)
			}
		}
	}
}

// TestCacheGaugesTrackWindow: each member's entry-cache gauges follow the
// replication window, not the log: after a burst of writes settles, every
// member holds about one entry however many were written.
func TestCacheGaugesTrackWindow(t *testing.T) {
	c := bootCluster(t, testOptions(t, nil), PaperTopology(2, 0))
	client := c.NewClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 200; i++ {
		if _, err := client.Write(ctx, fmt.Sprintf("w%d", i), make([]byte, 500)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		settled := true
		var report []string
		for _, mr := range c.MemberRegistries() {
			snap := mr.Reg.Snapshot()
			entries, bytes := snap["raft_cache_entries"], snap["raft_cache_bytes"]
			report = append(report, fmt.Sprintf("%s=%d/%dB", mr.ID, entries, bytes))
			if entries < 1 || entries > 2 || bytes <= 0 || bytes > 4096 {
				settled = false
			}
		}
		if settled {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cache windows did not settle after 200 writes: %s", strings.Join(report, " "))
		}
		time.Sleep(20 * time.Millisecond)
	}
}
