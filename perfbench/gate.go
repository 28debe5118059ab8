package main

// gate.go is the correctness gate run after every measurement: once the
// appliers have caught up, every acked key must read back (linearizably)
// its last acked value, and every shard's members must agree on their
// engine checksum. A mismatch fails the run.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"myraft/internal/multiraft"
	"myraft/internal/wire"
)

// expectation is what one key must read back: the value of its acked
// write with the highest OpID, or the value of a write whose outcome is
// unknown (it failed or timed out at the client, but may still have
// committed after the last acked one).
type expectation struct {
	last    write
	unknown map[uint64]bool
}

// expectations folds the write log into one expectation per acked key.
// Writes to one key always land on one shard, so OpIDs order them.
func expectations(ws []write) map[string]*expectation {
	out := make(map[string]*expectation)
	for _, w := range ws {
		e := out[w.key]
		if e == nil {
			e = &expectation{unknown: map[uint64]bool{}}
			out[w.key] = e
		}
		if !w.ok {
			e.unknown[w.seq] = true
			continue
		}
		if e.last.seq == 0 || e.last.op.Less(w.op) {
			e.last = w
		}
	}
	for k, e := range out {
		if e.last.seq == 0 {
			delete(out, k) // never acked: nothing is owed
		}
	}
	return out
}

// check reports whether a read-back value satisfies the expectation.
func (e *expectation) check(v []byte, found bool) error {
	if found && bytes.Equal(v, makeValue(e.last.seq)) {
		return nil
	}
	if found {
		if seq, ok := valueSeq(v); ok && e.unknown[seq] && bytes.Equal(v, makeValue(seq)) {
			return nil
		}
		seq, _ := valueSeq(v)
		return fmt.Errorf("key %s: read seq %d, want acked seq %d (op %s)", e.last.key, seq, e.last.seq, e.last.op)
	}
	return fmt.Errorf("key %s: acked seq %d (op %s) lost", e.last.key, e.last.seq, e.last.op)
}

// gate runs the full check and returns the first few violations.
func gate(ctx context.Context, rt *multiraft.Runtime, ws []write) []string {
	var bad []string
	if err := waitConverged(ctx, rt); err != nil {
		bad = append(bad, err.Error())
	}
	exp := expectations(ws)
	keys := make(chan *expectation)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 256; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := rt.NewClient(0)
			for e := range keys {
				err := readBack(ctx, cl, e)
				if err != nil {
					mu.Lock()
					bad = append(bad, err.Error())
					mu.Unlock()
				}
			}
		}()
	}
	for _, e := range exp {
		keys <- e
	}
	close(keys)
	wg.Wait()
	if len(bad) > 10 {
		bad = append(bad[:10], fmt.Sprintf("... and %d more", len(bad)-10))
	}
	return bad
}

// readBack reads one key linearizably, retrying transient errors.
func readBack(ctx context.Context, cl *multiraft.Client, e *expectation) error {
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		res, rerr := cl.ReadLinearizable(rctx, e.last.key)
		cancel()
		if rerr == nil {
			return e.check(res.Value, res.Found)
		}
		err = rerr
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("key %s: linearizable read-back: %w", e.last.key, err)
}

// waitConverged waits until every member of every shard is up and the
// members' engine checksums agree and hold steady across two polls —
// the appliers have drained and nothing is still in flight.
func waitConverged(ctx context.Context, rt *multiraft.Runtime) error {
	deadline := time.Now().Add(15 * time.Second)
	var last string
	for {
		state, ok := checksums(rt)
		if ok && state == last {
			return nil
		}
		if ok {
			last = state
		} else {
			last = ""
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("engine checksums never converged: %s", state)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// checksums renders every shard's member checksums, and reports whether
// each shard has all its voters up and agreeing.
func checksums(rt *multiraft.Runtime) (string, bool) {
	var b bytes.Buffer
	ok := true
	for s := 0; s < rt.Shards(); s++ {
		sums := rt.Shard(wire.ShardID(s)).EngineChecksums()
		fmt.Fprintf(&b, "shard %d:", s)
		var first uint32
		for i, v := range voters {
			sum, up := sums[v.ID]
			fmt.Fprintf(&b, " %s=%08x", v.ID, sum)
			if !up {
				ok = false
			}
			if i == 0 {
				first = sum
			} else if sum != first {
				ok = false
			}
		}
		b.WriteString("; ")
	}
	return b.String(), ok
}
