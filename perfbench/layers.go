package main

// layers.go holds the isolated layer microbenches of the traced run. Each
// drives one module's public functions with no modeled latency and
// counts allocations, so CPU cost that modeled sleeps hide shows here.
// Inputs take the workloads' shapes: 500-byte values, 16-entry groups.

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"myraft/internal/binlog"
	"myraft/internal/clock"
	"myraft/internal/cluster"
	"myraft/internal/gtid"
	"myraft/internal/multiraft"
	"myraft/internal/opid"
	"myraft/internal/raft"
	"myraft/internal/storage"
	"myraft/internal/transport"
	"myraft/internal/wire"
)

// groupSize is the entries per replicated group in the microbenches.
const groupSize = 16

// cost is one microbench result per operation.
type cost struct {
	ns, allocs, bytes float64
}

// measure runs fn n times, three rounds, and returns the round with the
// median time. Allocations are counted process-wide, so background
// goroutines a bench starts are charged to it.
func measure(n int, fn func(i int)) cost {
	var rounds []cost
	for r := 0; r < 3; r++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(r*n + i)
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		rounds = append(rounds, cost{
			ns:     float64(el.Nanoseconds()) / float64(n),
			allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
			bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
		})
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i].ns < rounds[j].ns })
	return rounds[1]
}

// aeRequest is a 16 × 500 B AppendEntries, the replication message of a
// full commit group.
func aeRequest() *wire.AppendEntriesReq {
	req := &wire.AppendEntriesReq{Term: 3, LeaderID: "n0", PrevOpID: opid.OpID{Term: 3, Index: 100}, CommitIndex: 99, ReadSeq: 7}
	for i := 0; i < groupSize; i++ {
		req.Entries = append(req.Entries, wire.LogEntry{
			OpID:    opid.OpID{Term: 3, Index: uint64(101 + i)},
			Kind:    wire.EntryType(binlog.EntryNormal),
			HasGTID: true,
			GTID:    gtid.GTID{Source: "perfbench", ID: int64(101 + i)},
			Payload: makeValue(uint64(i + 1)),
		})
	}
	return req
}

// layerBenches runs every microbench and adds its metrics to out.
func layerBenches(ctx context.Context, dir string, keys []string, out metricSet) error {
	benchWire(out)
	if err := benchTransport(out); err != nil {
		return err
	}
	if err := benchBinlog(filepath.Join(dir, "binlog"), out); err != nil {
		return err
	}
	if err := benchStorage(filepath.Join(dir, "storage"), keys, out); err != nil {
		return err
	}
	if err := benchRaft(ctx, out); err != nil {
		return err
	}
	return benchRoute(keys, out)
}

// benchWire times a Marshal+Unmarshal round trip of the group message,
// bare and inside a ShardEnvelope.
func benchWire(out metricSet) {
	req := aeRequest()
	payload := float64(groupSize * valueBytes)
	c := measure(2000, func(int) {
		data, err := wire.Marshal(req)
		if err != nil {
			panic(err)
		}
		if _, err := wire.Unmarshal(data); err != nil {
			panic(err)
		}
	})
	out.set("wire.ae_roundtrip_ns", c.ns, "ns")
	out.set("wire.ae_roundtrip_allocs", c.allocs, "count")
	out.set("wire.ae_alloc_bytes_per_payload_byte", c.bytes/payload, "B/B")
	env := measure(2000, func(int) {
		inner, err := wire.Marshal(req)
		if err != nil {
			panic(err)
		}
		data, err := wire.Marshal(&wire.ShardEnvelope{Shard: 5, Inner: inner})
		if err != nil {
			panic(err)
		}
		m, err := wire.Unmarshal(data)
		if err != nil {
			panic(err)
		}
		if _, err := wire.Unmarshal(m.(*wire.ShardEnvelope).Inner); err != nil {
			panic(err)
		}
	})
	out.set("wire.envelope_roundtrip_ns", env.ns, "ns")
}

// benchTransport times one message hop, sender to receiver, over the
// in-process network with (effectively) zero modeled delay: once between
// bare endpoints and once between two demuxed shard ports.
func benchTransport(out metricSet) error {
	req := aeRequest()
	net := transport.New(transport.Config{IntraRegion: 1, Loopback: 1}, clock.Real())
	defer net.Close()
	a, b := net.Register("a", "r0"), net.Register("b", "r0")
	var sendErr error
	hop := measure(2000, func(int) {
		if err := a.Send("b", req); err != nil {
			sendErr = err
		}
		<-b.Recv()
	})
	if sendErr != nil {
		return sendErr
	}
	out.set("transport.hop_ns", hop.ns, "ns")
	out.set("transport.hop_allocs", hop.allocs, "count")

	dnet := transport.New(transport.Config{IntraRegion: 1, Loopback: 1}, clock.Real())
	defer dnet.Close()
	da := transport.NewDemux(dnet.Register("a", "r0"), clock.Real(), transport.DemuxConfig{})
	db := transport.NewDemux(dnet.Register("b", "r0"), clock.Real(), transport.DemuxConfig{})
	defer da.Close()
	defer db.Close()
	pa, pb := da.Shard(5), db.Shard(5)
	dhop := measure(2000, func(int) {
		if err := pa.Send("b", req); err != nil {
			sendErr = err
		}
		<-pb.Recv()
	})
	if sendErr != nil {
		return sendErr
	}
	out.set("transport.demux_hop_ns", dhop.ns, "ns")
	out.set("transport.demux_hop_allocs", dhop.allocs, "count")
	return nil
}

// benchBinlog times a 500 B Append (buffered, no sync) and a group of 16
// Appends plus one real fsync, with no modeled device delay.
func benchBinlog(dir string, out metricSet) error {
	log, err := binlog.Open(binlog.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer log.Close()
	// Entries are built up front so the timed loop is the Append alone.
	const appends = 3000
	entries := make([]*binlog.Entry, 3*appends+40*groupSize)
	for i := range entries {
		idx := uint64(i + 1)
		entries[i] = &binlog.Entry{
			OpID:    opid.OpID{Term: 1, Index: idx},
			Type:    binlog.EntryNormal,
			HasGTID: true,
			GTID:    gtid.GTID{Source: "perfbench", ID: int64(idx)},
			Payload: makeValue(idx),
		}
	}
	var appendErr error
	c := measure(appends, func(i int) {
		if err := log.Append(entries[i]); err != nil {
			appendErr = err
		}
	})
	if appendErr != nil {
		return appendErr
	}
	out.set("binlog.append_ns", c.ns, "ns")
	out.set("binlog.append_allocs", c.allocs, "count")
	if err := log.Sync(); err != nil {
		return err
	}
	var groups []float64
	next := 3 * appends
	for g := 0; g < 40; g++ {
		t0 := time.Now()
		for i := 0; i < groupSize; i++ {
			next++
			if err := log.Append(entries[next-1]); err != nil {
				return err
			}
		}
		if err := log.Sync(); err != nil {
			return err
		}
		groups = append(groups, us(time.Since(t0)))
	}
	out.set("binlog.group_sync_us", median(groups), "us")
	return nil
}

// benchStorage times one engine transaction: Begin, Set of a 500 B row,
// Prepare, Commit.
func benchStorage(dir string, keys []string, out metricSet) error {
	eng, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		return err
	}
	defer eng.Close()
	var txnErr error
	val := makeValue(1)
	c := measure(5000, func(i int) {
		t := eng.Begin()
		if err := t.Set(keys[i%len(keys)], val); err != nil {
			txnErr = err
			return
		}
		if err := t.Prepare(); err != nil {
			txnErr = err
			return
		}
		if err := t.Commit(opid.OpID{Term: 1, Index: uint64(i + 1)}); err != nil {
			txnErr = err
		}
	})
	if txnErr != nil {
		return txnErr
	}
	out.set("storage.txn_ns", c.ns, "ns")
	out.set("storage.txn_allocs", c.allocs, "count")
	return nil
}

// benchRaft times ProposeBatch of one 16 × 500 B group through
// WaitCommitted on a raft-only three-node ring: in-memory logs, no
// modeled network or device delay.
func benchRaft(ctx context.Context, out metricSet) error {
	net := transport.New(transport.Config{IntraRegion: 1, Loopback: 1}, clock.Real())
	defer net.Close()
	boot := cluster.BootConfig(voters)
	var nodes []*raft.Node
	defer func() {
		for _, n := range nodes {
			n.Stop()
		}
	}()
	for _, v := range voters {
		n, err := raft.NewNode(raft.Config{ID: v.ID, Region: v.Region, HeartbeatInterval: heartbeat},
			&memLog{}, nil, net.Register(v.ID, v.Region), clock.Real())
		if err != nil {
			return err
		}
		if err := n.Start(boot); err != nil {
			return err
		}
		nodes = append(nodes, n)
	}
	leader := nodes[0]
	deadline := time.Now().Add(10 * time.Second)
	for leader.Status().Role != raft.RoleLeader {
		if time.Now().After(deadline) {
			return fmt.Errorf("raft bench: no leader elected")
		}
		leader.CampaignNow()
		time.Sleep(20 * time.Millisecond)
	}
	reqs := make([]raft.ProposeReq, groupSize)
	for i := range reqs {
		reqs[i] = raft.ProposeReq{Payload: makeValue(uint64(i + 1))}
	}
	var benchErr error
	c := measure(300, func(int) {
		ops, err := leader.ProposeBatch(reqs)
		if err == nil {
			err = leader.WaitCommitted(ctx, ops[len(ops)-1].Index)
		}
		if err != nil {
			benchErr = err
		}
	})
	if benchErr != nil {
		return fmt.Errorf("raft bench: %w", benchErr)
	}
	out.set("raft.propose_commit_us", c.ns/1e3, "us")
	out.set("raft.propose_commit_allocs", c.allocs, "count")
	return nil
}

// benchRoute times Router.Route over the workload's key stream at the
// 16-shard table.
func benchRoute(keys []string, out metricSet) error {
	r, err := multiraft.NewRouter(multiraft.UniformTable(16), 16)
	if err != nil {
		return err
	}
	c := measure(200_000, func(i int) { r.Route(keys[i%len(keys)]) })
	out.set("multiraft.route_ns", c.ns, "ns")
	return nil
}
