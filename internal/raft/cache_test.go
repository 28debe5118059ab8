package raft

import (
	"bytes"
	"testing"
	"testing/quick"

	"myraft/internal/opid"
	"myraft/internal/wire"
)

func cacheEntry(term, index uint64) *wire.LogEntry {
	return &wire.LogEntry{OpID: opid.OpID{Term: term, Index: index}}
}

// entriesCap sizes a cache to hold exactly n payload-free entries.
func entriesCap(n int) int64 { return int64(n) * cacheEntryOverhead }

func TestCacheAddAndGet(t *testing.T) {
	c := newEntryCache(entriesCap(10))
	for i := uint64(1); i <= 5; i++ {
		c.add(cacheEntry(1, i))
	}
	for i := uint64(1); i <= 5; i++ {
		e, ok := c.get(i)
		if !ok || e.OpID.Index != i {
			t.Fatalf("get(%d) = %v %v", i, e, ok)
		}
	}
	if _, ok := c.get(6); ok {
		t.Fatal("phantom entry")
	}
	if c.last() != 5 {
		t.Fatalf("last = %d", c.last())
	}
}

func TestCacheEvictsOldest(t *testing.T) {
	c := newEntryCache(entriesCap(3))
	for i := uint64(1); i <= 5; i++ {
		c.add(cacheEntry(1, i))
	}
	if _, ok := c.get(1); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := c.get(2); ok {
		t.Fatal("second entry not evicted")
	}
	for i := uint64(3); i <= 5; i++ {
		if _, ok := c.get(i); !ok {
			t.Fatalf("entry %d evicted prematurely", i)
		}
	}
	if c.bytes != entriesCap(3) {
		t.Fatalf("bytes = %d, want %d", c.bytes, entriesCap(3))
	}
}

func TestCacheNonContiguousResets(t *testing.T) {
	c := newEntryCache(entriesCap(10))
	c.add(cacheEntry(1, 1))
	c.add(cacheEntry(1, 2))
	c.add(cacheEntry(2, 10)) // gap: reset
	if _, ok := c.get(1); ok {
		t.Fatal("stale window survived reset")
	}
	if e, ok := c.get(10); !ok || e.OpID.Term != 2 {
		t.Fatal("new window missing")
	}
}

func TestCacheTruncateAfter(t *testing.T) {
	c := newEntryCache(entriesCap(10))
	for i := uint64(1); i <= 8; i++ {
		c.add(cacheEntry(1, i))
	}
	c.truncateAfter(5)
	if _, ok := c.get(6); ok {
		t.Fatal("truncated entry present")
	}
	if e, ok := c.get(5); !ok || e.OpID.Index != 5 {
		t.Fatal("kept entry missing")
	}
	if c.last() != 5 || c.bytes != entriesCap(5) {
		t.Fatalf("last = %d, bytes = %d", c.last(), c.bytes)
	}
	// Truncating below the window empties it.
	c.truncateAfter(0)
	if c.last() != 0 || c.bytes != 0 {
		t.Fatalf("after full truncate: last = %d, bytes = %d", c.last(), c.bytes)
	}
	// Appends restart cleanly.
	c.add(cacheEntry(3, 1))
	if e, ok := c.get(1); !ok || e.OpID.Term != 3 {
		t.Fatal("append after reset failed")
	}
}

func TestCacheTermAt(t *testing.T) {
	c := newEntryCache(entriesCap(10))
	c.add(cacheEntry(7, 1))
	if term, ok := c.termAt(1); !ok || term != 7 {
		t.Fatalf("termAt = %d %v", term, ok)
	}
	if _, ok := c.termAt(2); ok {
		t.Fatal("phantom term")
	}
}

// Property: the cache window is always contiguous, within its byte cap,
// and its byte count matches its contents.
func TestCacheWindowInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		c := newEntryCache(entriesCap(8))
		next := uint64(1)
		for _, op := range ops {
			switch op % 4 {
			case 0, 1:
				c.add(cacheEntry(1, next))
				next++
			case 2:
				cut := uint64(op) % (next + 1)
				c.truncateAfter(cut)
				if cut < next {
					next = cut + 1
				}
			case 3:
				c.trimBelow(uint64(op) % (next + 1))
			}
			if c.bytes > c.cap || c.bytes != entriesCap(c.ents.Len()) {
				return false
			}
			for i := 0; i < c.ents.Len(); i++ {
				if c.ents.At(i).OpID.Index != c.first+uint64(i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: payloads come back byte for byte, and the cache keeps its own
// copy (the proposer may reuse its buffer).
func TestCachePayloadRoundTripProperty(t *testing.T) {
	f := func(payload []byte) bool {
		c := newEntryCache(cacheByteCap)
		in := append([]byte(nil), payload...)
		c.add(&wire.LogEntry{OpID: opid.OpID{Term: 1, Index: 1}, Payload: in})
		for i := range in {
			in[i] ^= 0xff
		}
		got, ok := c.get(1)
		return ok && bytes.Equal(got.Payload, payload) &&
			c.bytes == cacheEntryOverhead+int64(len(payload))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// windowNode is a bare leader or follower holding only what trimCache
// reads: its role, commit index, peers and cache.
func windowNode(role Role, commit uint64, match map[wire.NodeID]uint64, capBytes int64) *Node {
	n := &Node{role: role, commitIndex: commit, cache: newEntryCache(capBytes), peers: map[wire.NodeID]*peerState{}}
	for id, m := range match {
		n.peers[id] = &peerState{match: m, next: m + 1}
	}
	return n
}

func TestCacheLeaderFloorAtLowestPeerMatch(t *testing.T) {
	n := windowNode(RoleLeader, 90, map[wire.NodeID]uint64{"a": 95, "b": 70}, cacheByteCap)
	for i := uint64(1); i <= 100; i++ {
		n.cache.add(cacheEntry(1, i))
	}
	n.trimCache()
	// b (match 70) still needs 71.. and its next consistency check reads
	// the term at 70; nothing below is kept.
	if n.cache.first != 70 || n.cache.last() != 100 {
		t.Fatalf("window [%d,%d], want [70,100]", n.cache.first, n.cache.last())
	}
	// b catches up past the commit index: commit now caps the floor.
	n.peers["b"].match = 99
	n.trimCache()
	if n.cache.first != 90 {
		t.Fatalf("floor %d, want commit 90", n.cache.first)
	}
	n.commitIndex = 99
	n.peers["a"].match = 100
	n.trimCache()
	if n.cache.first != 99 || n.cache.ents.Len() != 2 {
		t.Fatalf("caught-up window [%d,%d], want [99,100]", n.cache.first, n.cache.last())
	}
}

func TestCacheFollowerFloorAtCommit(t *testing.T) {
	n := windowNode(RoleFollower, 0, nil, cacheByteCap)
	for i := uint64(1); i <= 50; i++ {
		n.cache.add(cacheEntry(1, i))
	}
	n.trimCache()
	if n.cache.first != 1 {
		t.Fatalf("uncommitted follower trimmed to %d", n.cache.first)
	}
	n.commitIndex = 42
	n.trimCache()
	if n.cache.first != 42 || n.cache.last() != 50 {
		t.Fatalf("window [%d,%d], want [42,50]", n.cache.first, n.cache.last())
	}
	// A stale peer map (left from an earlier leadership) does not hold a
	// follower's floor down.
	n.peers["x"] = &peerState{}
	n.commitIndex = 48
	n.trimCache()
	if n.cache.first != 48 {
		t.Fatalf("floor %d, want 48", n.cache.first)
	}
}

// A peer that is down pins the leader's floor at its stale match, so only
// the byte cap bounds the window: the oldest entries go, the newest stay.
func TestCacheByteCapEvictsWithPeerDown(t *testing.T) {
	const payload = 1000
	capBytes := int64(20 * (cacheEntryOverhead + payload))
	n := windowNode(RoleLeader, 0, map[wire.NodeID]uint64{"up": 0, "down": 0}, capBytes)
	for i := uint64(1); i <= 100; i++ {
		n.cache.add(&wire.LogEntry{OpID: opid.OpID{Term: 1, Index: i}, Payload: make([]byte, payload)})
		n.peers["up"].match = i
		n.commitIndex = i
		n.trimCache()
		if n.cache.bytes > capBytes {
			t.Fatalf("after %d: %d bytes over cap %d", i, n.cache.bytes, capBytes)
		}
	}
	if n.cache.first != 81 || n.cache.last() != 100 {
		t.Fatalf("window [%d,%d], want the newest 20 [81,100]", n.cache.first, n.cache.last())
	}
	// The peer comes back and catches up: the window collapses to the tail.
	n.peers["down"].match = 100
	n.trimCache()
	if n.cache.ents.Len() != 1 || n.cache.bytes != cacheEntryOverhead+payload {
		t.Fatalf("caught-up window holds %d entries, %d bytes", n.cache.ents.Len(), n.cache.bytes)
	}
}
