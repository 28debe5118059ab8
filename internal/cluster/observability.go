package cluster

// observability.go publishes each member's operational state into its
// metrics registry at scrape time. The write-path stage histograms stream
// into the registry continuously (internal/trace); everything else — raft
// cursors, durability-pipeline counters, applier lag, binlog I/O totals —
// is point-in-time state refreshed here, so a scrape always reflects the
// member as it is now rather than as of some background tick.

import (
	"myraft/internal/binlog"
	"myraft/internal/metrics"
	"myraft/internal/raft"
	"myraft/internal/trace"
	"myraft/internal/wire"
)

// MemberRegistry is one up member's refreshed instrument registry, ready
// for a Prometheus render under a member label.
type MemberRegistry struct {
	ID     wire.NodeID
	Reg    *metrics.Registry
	Tracer *trace.Tracer
}

// MemberRegistries refreshes and returns the registries of every up
// member, in spec order. Crashed members are skipped: their registries
// (and trace histories) survive and reappear on restart.
func (c *Cluster) MemberRegistries() []MemberRegistry {
	c.mu.RLock()
	live := make([]*Member, 0, len(c.specs))
	for _, s := range c.specs {
		if m := c.members[s.ID]; m != nil && !m.down && m.node != nil && m.reg != nil {
			live = append(live, m)
		}
	}
	c.mu.RUnlock()

	out := make([]MemberRegistry, 0, len(live))
	for _, m := range live {
		m.refreshMetrics()
		out = append(out, MemberRegistry{ID: m.Spec.ID, Reg: m.reg, Tracer: m.tracer})
	}
	return out
}

// refreshMetrics publishes the member's current raft, durability, binlog,
// and applier state as registry gauges. Totals that are semantically
// counters are still exported as gauges: they are read off lower-layer
// snapshots rather than incremented here, and a gauge render is honest
// about that.
func (m *Member) refreshMetrics() {
	node, reg := m.node, m.reg
	if node == nil || reg == nil {
		return
	}
	st := node.Status()
	reg.Gauge("raft_term").Set(int64(st.Term))
	var leading int64
	if st.Role == raft.RoleLeader {
		leading = 1
	}
	reg.Gauge("raft_is_leader").Set(leading)
	reg.Gauge("raft_commit_index").Set(int64(st.CommitIndex))
	reg.Gauge("raft_last_index").Set(int64(st.LastOpID.Index))
	reg.Gauge("raft_first_index").Set(int64(st.FirstIndex))
	reg.Gauge("raft_cache_entries").Set(int64(st.Cache.Entries))
	reg.Gauge("raft_cache_bytes").Set(st.Cache.Bytes)
	reg.Gauge("raft_cache_store_reads").Set(int64(st.Cache.StoreReads))

	ds := node.DurabilityStats()
	reg.Gauge("raft_durable_index").Set(int64(ds.DurableIndex))
	reg.Gauge("raft_appended_index").Set(int64(ds.AppendedIndex))
	reg.Gauge("raft_unsynced_bytes").Set(ds.UnsyncedBytes)
	reg.Gauge("raft_fsyncs").Set(ds.Fsyncs)
	reg.Gauge("raft_loop_blocked_ns").Set(int64(ds.LoopBlocked))

	var log *binlog.Log
	switch {
	case m.server != nil:
		log = m.server.Log()
	case m.tailer != nil:
		log = m.tailer.Log()
	}
	if log != nil {
		ls := log.Stats()
		reg.Gauge("binlog_appends").Set(ls.Appends)
		reg.Gauge("binlog_append_bytes").Set(ls.AppendBytes)
		reg.Gauge("binlog_syncs").Set(ls.Syncs)
		reg.Gauge("binlog_noop_syncs").Set(ls.NoopSyncs)
	}

	if m.server != nil {
		as := m.server.ApplyStatus()
		var running int64
		if as.Running {
			running = 1
		}
		reg.Gauge("apply_running").Set(running)
		reg.Gauge("apply_workers").Set(int64(as.Workers))
		reg.Gauge("apply_busy_workers").Set(int64(as.BusyWorkers))
		reg.Gauge("apply_position").Set(int64(as.Position))
		reg.Gauge("apply_lag").Set(int64(as.Lag))
		reg.Gauge("apply_txns").Set(as.AppliedTxns)
		reg.Gauge("apply_conflict_fallbacks").Set(as.ConflictFallbacks)
		reg.Gauge("apply_parallel_batches").Set(as.ParallelBatches)

		ps := m.server.PipelineStatus()
		reg.Gauge("pipeline_depth").Set(int64(ps.Depth))
		reg.Gauge("pipeline_inflight_groups").Set(int64(ps.InFlight))
		reg.Gauge("pipeline_queue_len").Set(int64(ps.QueueLen))
		reg.Gauge("pipeline_groups_proposed").Set(ps.GroupsProposed)
		reg.Gauge("pipeline_txns_committed").Set(ps.TxnsCommitted)
		reg.Gauge("pipeline_txns_aborted").Set(ps.TxnsAborted)
		reg.Gauge("pipeline_group_size_mean").Set(ps.GroupSizeMean)
		reg.Gauge("pipeline_group_size_p95").Set(ps.GroupSizeP95)
		reg.Gauge("pipeline_group_size_max").Set(ps.GroupSizeMax)
		reg.Gauge("pipeline_flush_busy_ns").Set(ps.FlushBusyNs)
		reg.Gauge("pipeline_quorum_busy_ns").Set(ps.QuorumBusyNs)
		reg.Gauge("pipeline_engine_busy_ns").Set(ps.EngineBusyNs)
		reg.Gauge("pipeline_syncs_coalesced").Set(ps.SyncsCoalesced)
		reg.Gauge("engine_syncs").Set(ps.EngineSyncs)
		reg.Gauge("engine_noop_syncs").Set(ps.EngineNoopSyncs)
	}
}
