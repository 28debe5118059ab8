package main

import (
	"fmt"
	"sync"

	"myraft/internal/opid"
	"myraft/internal/wire"
)

// memLog is an in-memory raft.LogStore for the raft-only microbench, so
// that bench times consensus alone, not the binlog or the device.
type memLog struct {
	mu      sync.Mutex
	entries []*wire.LogEntry // entries[i] has index i+1
}

func (l *memLog) Append(e *wire.LogEntry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if want := uint64(len(l.entries)) + 1; e.OpID.Index != want {
		return fmt.Errorf("memlog: append at %d, want %d", e.OpID.Index, want)
	}
	cp := *e
	cp.Payload = append([]byte(nil), e.Payload...)
	l.entries = append(l.entries, &cp)
	return nil
}

func (l *memLog) Entry(index uint64) (*wire.LogEntry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if index == 0 || index > uint64(len(l.entries)) {
		return nil, fmt.Errorf("memlog: no entry %d", index)
	}
	return l.entries[index-1], nil
}

func (l *memLog) LastOpID() opid.OpID {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) == 0 {
		return opid.Zero
	}
	return l.entries[len(l.entries)-1].OpID
}

func (l *memLog) FirstIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) == 0 {
		return 0
	}
	return 1
}

func (l *memLog) TruncateAfter(index uint64) ([]*wire.LogEntry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if index >= uint64(len(l.entries)) {
		return nil, nil
	}
	removed := append([]*wire.LogEntry(nil), l.entries[index:]...)
	l.entries = l.entries[:index]
	return removed, nil
}

func (l *memLog) Sync() error { return nil }
