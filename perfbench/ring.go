package main

// ring.go builds the one ring shape every workload shares: three MySQL
// voters in one region over the multi-shard runtime, with a modeled
// network and a modeled log device.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"myraft/internal/cluster"
	"myraft/internal/logstore"
	"myraft/internal/multiraft"
	"myraft/internal/raft"
	"myraft/internal/transport"
	"myraft/internal/wire"
)

const (
	// oneWayDelay is the modeled intra-region network delay per hop.
	oneWayDelay = 200 * time.Microsecond
	// fsyncDelay is the modeled log-device flush, paid on top of the real
	// fsync (logstore.Delayed). Without it a fast local filesystem hides
	// the stall the group-commit pipeline exists to amortize.
	fsyncDelay = time.Millisecond
	// heartbeat is the leader heartbeat; an election follows
	// electionTicks missed heartbeats.
	heartbeat     = 50 * time.Millisecond
	electionTicks = 3
	// valueBytes is the paper's mean binlog entry size (§4.2.2).
	valueBytes = 500
	// keySpace is the number of distinct rows the workloads draw from,
	// far more than requests in flight, so writes rarely collide.
	keySpace = 100_000
	// ringName prefixes the shard replicaset names in discovery.
	ringName = "perfbench"
)

// voters are the three MySQL voters every shard ring spans.
var voters = []cluster.MemberSpec{
	{ID: "n0", Region: "r0", Kind: cluster.KindMySQL, Voter: true},
	{ID: "n1", Region: "r0", Kind: cluster.KindMySQL, Voter: true},
	{ID: "n2", Region: "r0", Kind: cluster.KindMySQL, Voter: true},
}

// ringOpts describes one runtime build.
type ringOpts struct {
	shards int
	seed   int64
	dir    string
	// traced builds the ring with a tracer on every member (switched on
	// and off per phase) and installs the log-store timing wrapper.
	traced bool
	spans  *spanLog
	roles  *roleLog
}

// newRing builds and bootstraps the runtime.
func newRing(ctx context.Context, o ringOpts) (*multiraft.Runtime, error) {
	// TraceSampleEvery 0 would sample EVERY transaction: off is -1.
	sample := -1
	if o.traced {
		sample = 1
	}
	opts := multiraft.Options{
		Shards: o.shards,
		Specs:  voters,
		Name:   ringName,
		Dir:    o.dir,
		Raft: raft.Config{
			HeartbeatInterval:    heartbeat,
			ElectionTimeoutTicks: electionTicks,
		},
		NetConfig:        transport.Config{IntraRegion: oneWayDelay, Seed: o.seed},
		Seed:             o.seed,
		TraceSampleEvery: sample,
		WrapLogStore: func(id wire.NodeID, s raft.LogStore) raft.LogStore {
			d := logstore.Delayed{Inner: s, SyncDelay: fsyncDelay}
			if o.traced {
				return &timedStore{Delayed: d, node: id, spans: o.spans}
			}
			return d
		},
	}
	if o.roles != nil {
		opts.OnRoleChange = o.roles.observe
	}
	rt, err := multiraft.New(opts)
	if err != nil {
		return nil, err
	}
	if o.traced {
		setTracing(rt, false)
	}
	bctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := rt.Bootstrap(bctx); err != nil {
		rt.Close()
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	return rt, nil
}

// setTracing switches every member's write-path sampler on (every
// transaction) or off. Note the trap this avoids: on the tracer itself 0
// means off, while the runtime option TraceSampleEvery 0 means "sample
// every transaction".
func setTracing(rt *multiraft.Runtime, on bool) {
	var n uint64
	if on {
		n = 1
	}
	for s := 0; s < rt.Shards(); s++ {
		for _, m := range rt.Shard(wire.ShardID(s)).Members() {
			m.Tracer().SetSampleEvery(n)
		}
	}
}

// timedStore is the benchmark's log-store timing wrapper, installed
// through WrapLogStore under the modeled device delay: every Append and
// Sync becomes a span. Embedding Delayed keeps its forwarding of the
// optional SnapshotAnchor/ScanFrom fast paths.
type timedStore struct {
	logstore.Delayed
	node  wire.NodeID
	spans *spanLog
}

func (s *timedStore) Append(e *wire.LogEntry) error {
	start := time.Now()
	err := s.Delayed.Append(e)
	s.spans.add(span{Name: "logstore.append", Node: string(s.node), Start: start, End: time.Now()})
	return err
}

func (s *timedStore) Sync() error {
	start := time.Now()
	err := s.Delayed.Sync()
	s.spans.add(span{Name: "logstore.sync", Node: string(s.node), Start: start, End: time.Now()})
	return err
}

// roleLog observes every role transition on every shard, to count terms
// and elections that ended without a leader.
type roleLog struct {
	mu         sync.Mutex
	candidates map[[2]uint64]bool // (shard, term) that saw a candidate
	leaders    map[[2]uint64]bool // (shard, term) that elected a leader
}

func newRoleLog() *roleLog {
	return &roleLog{candidates: map[[2]uint64]bool{}, leaders: map[[2]uint64]bool{}}
}

func (l *roleLog) observe(shard wire.ShardID, rc raft.RoleChange) {
	k := [2]uint64{uint64(shard), rc.Term}
	l.mu.Lock()
	switch rc.Role {
	case raft.RoleCandidate:
		l.candidates[k] = true
	case raft.RoleLeader:
		l.leaders[k] = true
	}
	l.mu.Unlock()
}

// failedRounds counts (shard, term) pairs above the given term floor in
// which some member campaigned but nobody won.
func (l *roleLog) failedRounds(floor uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for k := range l.candidates {
		if k[1] > floor && !l.leaders[k] {
			n++
		}
	}
	return n
}
