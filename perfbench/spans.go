package main

// spans.go is the benchmark's own tracing: spans recorded around the
// calls the benchmark makes into each layer (route → resolve primary →
// Server.Set, and the log-store wrapper), kept in memory and written out
// as JSON lines when the run ends. Spans inside the program are its own
// seven-stage histograms, read separately from MemberRegistries.

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// maxSpans bounds the in-memory span log; later spans are counted but
// not kept.
const maxSpans = 1 << 20

// span is one timed call. Spans of one request share Req; Parent names
// the causing span's ID (0 for a root).
type span struct {
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"`
	Req    uint64    `json:"req,omitempty"`
	Name   string    `json:"name"`
	Node   string    `json:"node,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// spanLog collects spans from every goroutine. A nil log drops spans.
type spanLog struct {
	mu      sync.Mutex
	spans   []span
	nextID  uint64
	dropped int
	on      bool
}

func newSpanLog() *spanLog { return &spanLog{} }

// enable starts or stops keeping spans (set-up and warm-up are not kept).
func (l *spanLog) enable(on bool) {
	l.mu.Lock()
	l.on = on
	l.mu.Unlock()
}

// id reserves a span ID, so a parent can be named before it ends.
func (l *spanLog) id() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	return l.nextID
}

// add keeps one finished span, assigning an ID if it has none.
func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.on {
		return
	}
	if s.ID == 0 {
		l.nextID++
		s.ID = l.nextID
	}
	if len(l.spans) >= maxSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, s)
}

// durations returns the durations of every kept span with the name.
func (l *spanLog) durations(name string) []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []time.Duration
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns, for every span with the name, its duration minus
// the part of its interval covered by its child spans with one of the
// given names (all children when none are given).
func (l *spanLog) selfTimes(name string, childNames ...string) []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	counts := func(s span) bool {
		if len(childNames) == 0 {
			return true
		}
		for _, n := range childNames {
			if s.Name == n {
				return true
			}
		}
		return false
	}
	children := make(map[uint64][]span)
	for _, s := range l.spans {
		if s.Parent != 0 && counts(s) {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []time.Duration
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, selfTime(s, children[s.ID]))
		}
	}
	return out
}

// selfTime is the span's duration minus the union of its children's
// intervals clipped to it. Children of one request run one after another
// here, but overlapping ones are merged rather than double-counted.
func selfTime(parent span, kids []span) time.Duration {
	covered := time.Duration(0)
	var curStart, curEnd time.Time
	sorted := append([]span(nil), kids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start.Before(sorted[j].Start) })
	for _, k := range sorted {
		s, e := k.Start, k.End
		if s.Before(parent.Start) {
			s = parent.Start
		}
		if e.After(parent.End) {
			e = parent.End
		}
		if !e.After(s) {
			continue
		}
		switch {
		case curEnd.IsZero():
			curStart, curEnd = s, e
		case s.After(curEnd):
			covered += curEnd.Sub(curStart)
			curStart, curEnd = s, e
		case e.After(curEnd):
			curEnd = e
		}
	}
	if !curEnd.IsZero() {
		covered += curEnd.Sub(curStart)
	}
	return parent.dur() - covered
}

// writeFile writes every kept span as one JSON object per line.
func (l *spanLog) writeFile(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
