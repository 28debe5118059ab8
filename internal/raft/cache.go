package raft

import (
	"myraft/internal/deque"
	"myraft/internal/wire"
)

// entryCache is a member's in-memory log window (§3.1, §3.4): replication
// and proxy reconstitution read recent entries from it instead of parsing
// binlog files. It keeps only entries some peer may still need from this
// member — on a leader everything from the lowest peer match up, on a
// follower everything from its commit index up (Node.trimCache moves the
// floor as match and commit advance) — so its size follows the
// replication window, not the write rate or the log length. A byte cap
// bounds the worst case (a peer down, a follower that stops learning
// commits) by evicting from the front; the send path reads evicted
// entries back from the log store in one ranged read.
//
// The paper also compresses cached payloads (§3.4). A window-sized cache
// holds a handful of entries in steady state, so there is nothing to win
// from compression and it is not done.
//
// The cache is owned by the node's event loop and needs no locking.
type entryCache struct {
	ents  deque.Deque[wire.LogEntry] // ents.At(i) holds index first+i
	first uint64                     // index of the oldest entry, 0 when empty
	bytes int64                      // sum of entryCost over the window
	cap   int64
}

// cacheByteCap bounds each member's cache. It is a constant, not an
// option: in steady state the window is a few groups deep, and the cap
// only decides how far a lagging follower may fall behind before its
// catch-up reads come from the log store instead of memory.
const cacheByteCap = 4 << 20

// cacheEntryOverhead approximates the bytes one cached entry costs beyond
// its payload: the LogEntry header in the window buffer plus the payload
// allocation's own overhead.
const cacheEntryOverhead = 128

func entryCost(e *wire.LogEntry) int64 { return cacheEntryOverhead + int64(len(e.Payload)) }

func newEntryCache(capBytes int64) *entryCache {
	return &entryCache{cap: capBytes}
}

// last returns the index of the newest cached entry, 0 when empty.
func (c *entryCache) last() uint64 {
	if c.first == 0 {
		return 0
	}
	return c.first + uint64(c.ents.Len()) - 1
}

// at returns the cached entry at index without copying it.
func (c *entryCache) at(index uint64) (*wire.LogEntry, bool) {
	if c.first == 0 || index < c.first || index > c.last() {
		return nil, false
	}
	return c.ents.At(int(index - c.first)), true
}

// add inserts an entry at the tail, keeping a private copy of its
// payload. A non-contiguous insert resets the cache to the new entry
// (the window must stay contiguous for indexed reads). Past the byte cap
// the oldest entries are evicted; the newest always stays.
func (c *entryCache) add(e *wire.LogEntry) {
	if c.first != 0 && e.OpID.Index != c.last()+1 {
		c.reset()
	}
	ce := *e
	ce.Payload = nil
	if len(e.Payload) > 0 {
		ce.Payload = append([]byte(nil), e.Payload...)
	}
	c.ents.PushBack(ce)
	if c.first == 0 {
		c.first = ce.OpID.Index
	}
	c.bytes += entryCost(&ce)
	for c.bytes > c.cap && c.ents.Len() > 1 {
		c.popFront()
	}
}

// get returns the cached entry at index, if present. The payload aliases
// the cache; callers must not modify it.
func (c *entryCache) get(index uint64) (wire.LogEntry, bool) {
	if e, ok := c.at(index); ok {
		return *e, true
	}
	return wire.LogEntry{}, false
}

// termAt returns the term of the cached entry at index, if present.
func (c *entryCache) termAt(index uint64) (uint64, bool) {
	if e, ok := c.at(index); ok {
		return e.OpID.Term, true
	}
	return 0, false
}

// truncateAfter drops cached entries with index > index.
func (c *entryCache) truncateAfter(index uint64) {
	if c.first == 0 || index >= c.last() {
		return
	}
	if index < c.first {
		c.reset()
		return
	}
	keep := int(index - c.first + 1)
	for i := keep; i < c.ents.Len(); i++ {
		c.bytes -= entryCost(c.ents.At(i))
	}
	c.ents.TruncateBack(keep)
}

// trimBelow evicts every cached entry with index < floor. The window
// floor (Node.trimCache) and the purge floor (Node.NotePurged) both land
// here: the cache never answers for entries the log no longer retains, so
// a lagging peer below the purge floor takes the snapshot path.
func (c *entryCache) trimBelow(floor uint64) {
	for c.first != 0 && c.first < floor {
		c.popFront()
	}
}

func (c *entryCache) popFront() {
	e := c.ents.PopFront()
	c.bytes -= entryCost(&e)
	c.first++
	if c.ents.Len() == 0 {
		c.first = 0
	}
}

func (c *entryCache) reset() {
	c.ents.Clear()
	c.first, c.bytes = 0, 0
}

// CacheStatus reports a member's entry cache: how much of the log it
// holds in memory, and how often the node had to read the log store
// instead (a lagging peer past the window, a term lookup below it).
type CacheStatus struct {
	Entries    int
	Bytes      int64
	StoreReads uint64
}
