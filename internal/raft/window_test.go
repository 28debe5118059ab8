package raft

import (
	"context"
	"testing"
	"time"

	"myraft/internal/gtid"
	"myraft/internal/wire"
)

// commitN commits count entries of the given payload size on leader.
func commitN(t *testing.T, leader *Node, count, size int) {
	t.Helper()
	payload := make([]byte, size)
	var last uint64
	for i := 0; i < count; i++ {
		op, err := leader.Propose(payload, gtid.GTID{Source: "s", ID: int64(i + 1)}, true)
		if err != nil {
			t.Fatal(err)
		}
		last = op.Index
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := leader.WaitCommitted(ctx, last); err != nil {
		t.Fatal(err)
	}
}

// waitCaughtUp waits until id's log reaches the leader's tail.
func (c *cluster) waitCaughtUp(leader *Node, id wire.NodeID) {
	c.t.Helper()
	c.waitCondition(string(id)+" caught up", func() bool {
		return c.nodes[id].Status().LastOpID == leader.Status().LastOpID
	})
}

// In steady state the leader's send path never reads the log store, and
// once every follower has acked, its cache shrinks to the one entry whose
// term answers the next consistency check.
func TestSteadyStateSendsFromCacheAlone(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	leader := c.elect("n0")
	commitN(t, leader, 300, 500)
	c.waitCaughtUp(leader, "n1")
	c.waitCaughtUp(leader, "n2")
	c.waitCondition("leader window collapses", func() bool {
		return leader.Status().Cache.Entries == 1
	})
	st := leader.Status()
	if st.Cache.StoreReads != 0 {
		t.Fatalf("leader made %d store reads in steady state", st.Cache.StoreReads)
	}
	if reads, scans := c.logs["n0"].counts(); reads != 0 || scans != 0 {
		t.Fatalf("leader log saw %d point reads and %d scans, want none", reads, scans)
	}
	if st.Cache.Bytes != cacheEntryOverhead+500 {
		t.Fatalf("leader cache holds %d bytes for one entry", st.Cache.Bytes)
	}
	// Followers keep their window at their commit index.
	c.waitCondition("follower windows collapse", func() bool {
		return c.nodes["n1"].Status().Cache.Entries <= 2 && c.nodes["n2"].Status().Cache.Entries <= 2
	})
}

// A follower that restarts while the entries it missed are still within
// the leader's window catches up from memory.
func TestRestartedFollowerCatchesUpFromCache(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	leader := c.elect("n0")
	commitN(t, leader, 20, 500)
	c.waitCaughtUp(leader, "n2")
	c.stopNode("n2")
	commitN(t, leader, 200, 500) // ~125 KiB: far inside the cap
	if got := leader.Status().Cache.Entries; got < 200 {
		t.Fatalf("leader cache holds %d entries while n2 is down, want the 200 it missed", got)
	}
	c.restartNode("n2")
	c.waitCaughtUp(leader, "n2")
	if n := leader.Status().Cache.StoreReads; n != 0 {
		t.Fatalf("leader made %d store reads to catch up a follower inside the window", n)
	}
}

// A follower that restarts after the leader's window passed its byte cap
// catches up through ranged store reads: one read per batch, not one per
// missing entry.
func TestRestartedFollowerPastCapCatchesUpFromStore(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	leader := c.elect("n0")
	commitN(t, leader, 20, 500)
	c.waitCaughtUp(leader, "n2")
	c.stopNode("n2")
	const size, count = 16 << 10, 400 // 6.4 MiB against the 4 MiB cap
	commitN(t, leader, count, size)
	st := leader.Status()
	if st.Cache.Bytes > cacheByteCap {
		t.Fatalf("leader cache holds %d bytes, over the %d cap", st.Cache.Bytes, cacheByteCap)
	}
	evicted := count - st.Cache.Entries
	if evicted < 100 {
		t.Fatalf("only %d of the missed entries left the window", evicted)
	}
	c.restartNode("n2")
	c.waitCaughtUp(leader, "n2")
	st = leader.Status()
	_, scans := c.logs["n0"].counts()
	batches := evicted/leader.cfg.BatchSize + 1
	if scans == 0 || st.Cache.StoreReads == 0 || st.Cache.StoreReads > uint64(2*batches+4) {
		t.Fatalf("catch-up of %d evicted entries took %d store reads (%d ranged); want about one per %d-entry batch",
			evicted, st.Cache.StoreReads, scans, leader.cfg.BatchSize)
	}
	t.Logf("caught up %d evicted entries with %d store reads, %d of them ranged", evicted, st.Cache.StoreReads, scans)
	c.waitCondition("n2 log written through", func() bool {
		return c.logs["n2"].len() == c.logs["n0"].len()
	})
}
