package binlog

import (
	"errors"
	"fmt"
	"os"
	"testing"
)

func isClosed(f *os.File) bool {
	_, err := f.Stat()
	return errors.Is(err, os.ErrClosed)
}

// checkEntries reads [from, to] point by point, as a range and as a scan,
// and checks every entry against what was appended.
func checkEntries(t *testing.T, l *Log, from, to uint64) {
	t.Helper()
	want := func(e *Entry, idx uint64) {
		t.Helper()
		if e.OpID.Index != idx || string(e.Payload) != fmt.Sprintf("p%d", idx) {
			t.Fatalf("entry %d = %v %q", idx, e.OpID, e.Payload)
		}
	}
	for idx := from; idx <= to; idx++ {
		e, err := l.Entry(idx)
		if err != nil {
			t.Fatalf("Entry(%d): %v", idx, err)
		}
		want(e, idx)
	}
	got, err := l.Entries(from, to)
	if err != nil || len(got) != int(to-from+1) {
		t.Fatalf("Entries(%d,%d) = %d entries, %v", from, to, len(got), err)
	}
	for i, e := range got {
		want(e, from+uint64(i))
	}
	next := from
	if err := l.Scan(from, func(e *Entry) bool { want(e, next); next++; return true }); err != nil {
		t.Fatalf("Scan(%d): %v", from, err)
	}
	if next != to+1 {
		t.Fatalf("Scan(%d) stopped at %d, want %d", from, next, to+1)
	}
}

// handles returns the shared read handle of every file (nil when unopened).
func handles(l *Log) []*os.File {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*os.File, len(l.files))
	for i, f := range l.files {
		out[i] = f.rf
	}
	return out
}

// Reads share one handle per file, and every way a file leaves the log —
// purge, truncation, ResetTo — or the log itself closes or crashes,
// releases it, while entries stay correct throughout.
func TestReadHandlesFollowFileLifecycle(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for idx := uint64(1); idx <= 30; idx++ {
		if err := l.Append(normalEntry(1, idx, fmt.Sprintf("p%d", idx))); err != nil {
			t.Fatal(err)
		}
		if idx%10 == 0 {
			if err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkEntries(t, l, 1, 30)
	hs := handles(l)
	if len(hs) != 4 || hs[0] == nil || hs[1] == nil || hs[2] == nil || hs[3] != nil {
		t.Fatalf("handles after reads = %v, want three open, the empty active file unopened", hs)
	}
	checkEntries(t, l, 1, 30)
	for i, h := range handles(l) {
		if h != hs[i] {
			t.Fatalf("file %d reopened on a second read", i)
		}
	}

	// Purge the first file: its handle closes, the others stay shared.
	if err := l.PurgeTo(15); err != nil {
		t.Fatal(err)
	}
	if !isClosed(hs[0]) || isClosed(hs[1]) {
		t.Fatal("purge did not release exactly the purged file's handle")
	}
	if _, err := l.Entry(5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("purged Entry(5) err = %v", err)
	}
	checkEntries(t, l, 11, 30)

	// Truncate back into the third file: the emptied active file goes.
	if _, err := l.TruncateAfter(25); err != nil {
		t.Fatal(err)
	}
	if isClosed(hs[2]) {
		t.Fatal("truncation closed the kept tail file's handle")
	}
	checkEntries(t, l, 11, 25)
	if err := l.Append(normalEntry(1, 26, "p26")); err != nil {
		t.Fatal(err)
	}
	checkEntries(t, l, 11, 26)

	// A crash releases every handle; reads afterwards keep none.
	l.Crash()
	for i, h := range hs[1:3] {
		if !isClosed(h) {
			t.Fatalf("file %d handle open after crash", i+1)
		}
	}
	checkEntries(t, l, 11, 26)
	for _, h := range handles(l) {
		if h != nil {
			t.Fatal("a read after crash cached a handle")
		}
	}

	// Recovery reopens the log (entry 26 reached the file when the reads
	// flushed it); ResetTo and Close release handles.
	l, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	checkEntries(t, l, 11, 26)
	before := handles(l)
	if err := l.ResetTo(l.LastOpID(), nil); err != nil {
		t.Fatal(err)
	}
	for _, h := range before {
		if h != nil && !isClosed(h) {
			t.Fatal("ResetTo left a handle open")
		}
	}
	if err := l.Append(normalEntry(1, 27, "p27")); err != nil {
		t.Fatal(err)
	}
	checkEntries(t, l, 27, 27)
	open := handles(l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, h := range open {
		if h != nil && !isClosed(h) {
			t.Fatal("Close left a handle open")
		}
	}
}

// A scan starts at its from index and stops as soon as fn declines more.
func TestScanStopsEarly(t *testing.T) {
	l := openTestLog(t, Options{})
	for idx := uint64(1); idx <= 2000; idx++ {
		if err := l.Append(normalEntry(1, idx, fmt.Sprintf("p%d", idx))); err != nil {
			t.Fatal(err)
		}
	}
	var seen []uint64
	if err := l.Scan(1500, func(e *Entry) bool {
		seen = append(seen, e.OpID.Index)
		return len(seen) < 3
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != 1500 || seen[2] != 1502 {
		t.Fatalf("early-stopped scan saw %v", seen)
	}
	// Scanning from below the first entry starts at the first entry.
	var first uint64
	l.Scan(0, func(e *Entry) bool { first = e.OpID.Index; return false })
	if first != 1 {
		t.Fatalf("Scan(0) started at %d", first)
	}
}
