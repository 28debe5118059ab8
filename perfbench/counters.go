package main

// counters.go reads the layers' exported stats from outside: a snapshot
// of every counter at the start and end of the traced phase (deltas give
// per-write ratios), plus a sampler for the gauges that only mean
// something averaged over time.

import (
	"runtime"
	"sync"
	"time"

	"myraft/internal/multiraft"
	"myraft/internal/mysql"
	"myraft/internal/raft"
	"myraft/internal/wire"
)

// memberCounters is one live (shard, server instance)'s counters. A
// restarted member is a new instance: its counters start from zero, and
// a crashed instance's final counts are not seen.
type memberCounters struct {
	leader bool

	groups, txns, aborted       int64
	flushNs, quorumNs, engineNs int64
	coalesced, engineSyncs      int64
	binlogBytes                 int64

	fsyncs      int64
	appended    uint64
	loopBlocked time.Duration

	tracked, fallbacks, parallel, serial int64

	// Digests of capped histograms: point-in-time, not differenced.
	groupP95         int64
	appendDurableP99 time.Duration
}

func (c memberCounters) minus(b memberCounters) memberCounters {
	return memberCounters{
		leader:      c.leader,
		groups:      c.groups - b.groups,
		txns:        c.txns - b.txns,
		aborted:     c.aborted - b.aborted,
		flushNs:     c.flushNs - b.flushNs,
		quorumNs:    c.quorumNs - b.quorumNs,
		engineNs:    c.engineNs - b.engineNs,
		coalesced:   c.coalesced - b.coalesced,
		engineSyncs: c.engineSyncs - b.engineSyncs,
		binlogBytes: c.binlogBytes - b.binlogBytes,
		fsyncs:      c.fsyncs - b.fsyncs,
		appended:    c.appended - b.appended,
		loopBlocked: c.loopBlocked - b.loopBlocked,
		tracked:     c.tracked - b.tracked,
		fallbacks:   c.fallbacks - b.fallbacks,
		parallel:    c.parallel - b.parallel,
		serial:      c.serial - b.serial,

		groupP95:         c.groupP95,
		appendDurableP99: c.appendDurableP99,
	}
}

type memberKey struct {
	shard wire.ShardID
	srv   *mysql.Server
}

// snapshot is every counter the traced run turns into a ratio.
type snapshot struct {
	at      time.Time
	members map[memberKey]memberCounters

	netMsgs, netBytes, netDropped int64
	demuxDrops, hbItems, hbFlush  int64
	syncRequests, syncs           int64
	reroutes                      int64
	leaseFallbacks, staleRejects  int64
	maxTerm                       uint64
}

func takeSnapshot(rt *multiraft.Runtime) snapshot {
	s := snapshot{at: time.Now(), members: map[memberKey]memberCounters{}}
	for sh := 0; sh < rt.Shards(); sh++ {
		ring := rt.Shard(wire.ShardID(sh))
		rm := ring.ReadMetrics()
		s.leaseFallbacks += rm.LeaseFallbacks.Value()
		s.staleRejects += rm.StaleRejections.Value()
		for _, v := range voters {
			node, srv, ok := ring.MySQLStack(v.ID)
			if !ok {
				continue
			}
			st := node.Status()
			if st.Term > s.maxTerm {
				s.maxTerm = st.Term
			}
			ps, ds, as := srv.PipelineStatus(), node.DurabilityStats(), srv.ApplyStatus()
			s.members[memberKey{wire.ShardID(sh), srv}] = memberCounters{
				leader:      st.Role == raft.RoleLeader,
				groups:      ps.GroupsProposed,
				txns:        ps.TxnsCommitted,
				aborted:     ps.TxnsAborted,
				flushNs:     ps.FlushBusyNs,
				quorumNs:    ps.QuorumBusyNs,
				engineNs:    ps.EngineBusyNs,
				coalesced:   ps.SyncsCoalesced,
				engineSyncs: ps.EngineSyncs,
				binlogBytes: srv.Log().Stats().AppendBytes,
				fsyncs:      ds.Fsyncs,
				appended:    ds.AppendedIndex,
				loopBlocked: ds.LoopBlocked,
				tracked:     as.TrackedTxns,
				fallbacks:   as.ConflictFallbacks,
				parallel:    as.ParallelBatches,
				serial:      as.SerialBatches,

				groupP95:         ps.GroupSizeP95,
				appendDurableP99: ds.AppendDurable.P99,
			}
		}
	}
	ns := rt.Net().Stats()
	for _, ls := range ns.ByRegionPair {
		s.netMsgs += ls.Messages
		s.netBytes += ls.Bytes
	}
	s.netDropped = ns.Dropped
	for _, id := range rt.Nodes() {
		ds := rt.Demux(id).Stats()
		s.demuxDrops += ds.UnknownShardDrops + ds.DecodeDrops + ds.InboxDrops
		s.hbItems += ds.CoalescedItems
		for _, n := range ds.CoalescedFlushes {
			s.hbFlush += n
		}
		gs := rt.SyncGroup(id).Stats()
		s.syncRequests += gs.Requests
		s.syncs += gs.Syncs
	}
	s.reroutes = rt.StaleRejects() + rt.FenceWaits()
	return s
}

// memberDeltas returns each instance's change between two snapshots; an
// instance born in between counts from zero.
func memberDeltas(from, to snapshot) []memberCounters {
	var out []memberCounters
	for k, c := range to.members {
		out = append(out, c.minus(from.members[k]))
	}
	return out
}

// gaugeSampler samples time-averaged gauges every interval until stopped:
// commit-pipeline occupancy and queue on leaders, apply lag on followers,
// and the process's goroutine count.
type gaugeSampler struct {
	rt   *multiraft.Runtime
	stop chan struct{}
	done chan struct{}

	mu         sync.Mutex
	inflight   []float64
	queue      []float64
	applyLag   []float64
	goroutines []float64
}

func startGaugeSampler(rt *multiraft.Runtime, every time.Duration) *gaugeSampler {
	g := &gaugeSampler{rt: rt, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		tk := time.NewTicker(every)
		defer tk.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tk.C:
				g.sample()
			}
		}
	}()
	return g
}

func (g *gaugeSampler) sample() {
	var inflight, queue float64
	var lags []float64
	for sh := 0; sh < g.rt.Shards(); sh++ {
		ring := g.rt.Shard(wire.ShardID(sh))
		for _, v := range voters {
			node, srv, ok := ring.MySQLStack(v.ID)
			if !ok {
				continue
			}
			if node.Status().Role == raft.RoleLeader {
				ps := srv.PipelineStatus()
				inflight += float64(ps.InFlight)
				queue += float64(ps.QueueLen)
			} else {
				lags = append(lags, float64(srv.ApplyStatus().Lag))
			}
		}
	}
	g.mu.Lock()
	g.inflight = append(g.inflight, inflight)
	g.queue = append(g.queue, queue)
	g.applyLag = append(g.applyLag, lags...)
	g.goroutines = append(g.goroutines, float64(runtime.NumGoroutine()))
	g.mu.Unlock()
}

// halt stops the sampler and waits for it to exit.
func (g *gaugeSampler) halt() {
	close(g.stop)
	<-g.done
}
