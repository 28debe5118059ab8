package main

// load.go is the open-loop load generator: a single pacing goroutine
// releases each request at its due time regardless of how earlier ones
// fare, up to an in-flight cap, across at most nproc multiraft.Clients.
// Every request has a one-second deadline from its due time; one that
// errors or expires counts as failed.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"myraft/internal/cluster"
	"myraft/internal/multiraft"
	"myraft/internal/mysql"
	"myraft/internal/opid"
	"myraft/internal/readpath"
	"myraft/internal/wire"
)

// opKind is one request type of a workload mix.
type opKind uint8

const (
	opWrite opKind = iota
	opLease
	opLin
	opSession
	numKinds
)

// mix gives each request type's share of a workload.
type mix [numKinds]float64

const (
	// requestDeadline bounds each request from its due time.
	requestDeadline = time.Second
	// maxInflight caps requests in flight; at the cap the pacer waits and
	// the wait shows as lateness and as latency from due time.
	maxInflight = 1024
)

// op is one generated request. Writes carry a run-unique sequence number
// from which their value is derived.
type op struct {
	kind opKind
	key  string
	seq  uint64
}

// opGen draws requests from the seeded RNG, so a seed fixes every key,
// mix choice and value the program sees.
type opGen struct {
	rng *rand.Rand
	mix mix
	seq uint64
}

func newOpGen(seed int64, m mix) *opGen {
	return &opGen{rng: rand.New(rand.NewSource(seed)), mix: m}
}

// next draws n requests.
func (g *opGen) next(n int) []op {
	out := make([]op, n)
	for i := range out {
		x := g.rng.Float64()
		k := opWrite
		for kind := opKind(0); kind < numKinds; kind++ {
			if x < g.mix[kind] {
				k = kind
				break
			}
			x -= g.mix[kind]
		}
		out[i] = op{kind: k, key: fmt.Sprintf("k%05d", g.rng.Intn(keySpace))}
		if k == opWrite {
			g.seq++
			out[i].seq = g.seq
		}
	}
	return out
}

// makeValue derives a write's valueBytes-long value from its sequence
// number: a "v<seq>:" header the correctness gate parses back, then
// filler.
func makeValue(seq uint64) []byte {
	v := make([]byte, valueBytes)
	n := copy(v, "v"+strconv.FormatUint(seq, 10)+":")
	for i := n; i < len(v); i++ {
		v[i] = 'a' + byte((seq+uint64(i))%26)
	}
	return v
}

// valueSeq parses the sequence number back out of a value.
func valueSeq(v []byte) (uint64, bool) {
	if len(v) < 3 || v[0] != 'v' {
		return 0, false
	}
	for i := 1; i < len(v); i++ {
		if v[i] == ':' {
			n, err := strconv.ParseUint(string(v[1:i]), 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// write is one write's outcome, kept for the correctness gate.
type write struct {
	key string
	seq uint64
	op  opid.OpID
	ok  bool
}

// loader executes requests against the runtime.
type loader struct {
	rt      *multiraft.Runtime
	clients []*multiraft.Client
	// traced sends writes down the benchmark's own decomposed path
	// (route → resolve primary → Server.Set) with a span around each call,
	// and serves session reads with the tokens it tracks itself.
	traced bool
	spans  *spanLog
	tokens []tokenBox

	mu     sync.Mutex
	writes []write

	inflight     atomic.Int64
	inflightPeak atomic.Int64
}

// tokenBox is one client's session token in traced runs.
type tokenBox struct {
	mu  sync.Mutex
	tok readpath.Token
}

func newLoader(rt *multiraft.Runtime, nClients int, traced bool, spans *spanLog) *loader {
	d := &loader{rt: rt, traced: traced, spans: spans, tokens: make([]tokenBox, nClients)}
	for i := 0; i < nClients; i++ {
		d.clients = append(d.clients, rt.NewClient(0))
	}
	return d
}

// runPhase offers ops at the given rate (open loop), the first due at
// base, and returns one record per op, offsets from base, once every
// request has finished.
func (d *loader) runPhase(ctx context.Context, ops []op, rate float64, base time.Time) []record {
	recs := make([]record, len(ops))
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	for i := range ops {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if wait := due - time.Since(base); wait > 0 {
			time.Sleep(wait)
		}
		sem <- struct{}{}
		recs[i] = record{kind: ops[i].kind, due: due, sent: time.Since(base)}
		if n := d.inflight.Add(1); n > d.inflightPeak.Load() {
			d.inflightPeak.Store(n)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rctx, cancel := context.WithDeadline(ctx, base.Add(recs[i].due+requestDeadline))
			ok, retried := d.exec(rctx, i, ops[i])
			cancel()
			recs[i].done = time.Since(base)
			recs[i].retried = retried
			// A reply after the deadline is a miss even if it succeeded.
			recs[i].ok = ok && recs[i].latency() <= requestDeadline
			d.inflight.Add(-1)
			<-sem
		}(i)
	}
	wg.Wait()
	return recs
}

// exec runs one request on client i mod nClients. Writes retry across
// failovers until their deadline; retried reports that an attempt failed
// first.
func (d *loader) exec(ctx context.Context, i int, o op) (ok, retried bool) {
	c := i % len(d.clients)
	cl := d.clients[c]
	switch o.kind {
	case opWrite:
		val := makeValue(o.seq)
		var res cluster.WriteResult
		var err error
		if d.traced {
			res, err = d.tracedWrite(ctx, c, o.key, val)
		} else {
			res, err = cl.Write(ctx, o.key, val)
		}
		d.mu.Lock()
		d.writes = append(d.writes, write{key: o.key, seq: o.seq, op: res.OpID, ok: err == nil})
		d.mu.Unlock()
		return err == nil, res.Retries > 0 || err != nil
	case opLease:
		_, err := cl.ReadLease(ctx, o.key)
		return err == nil, false
	case opLin:
		_, err := cl.ReadLinearizable(ctx, o.key)
		return err == nil, false
	case opSession:
		at, ok := d.follower(o.key, i)
		if !ok {
			return false, false
		}
		var err error
		if d.traced {
			shard := d.rt.Router().ShardFor(o.key)
			d.tokens[c].mu.Lock()
			tok := d.tokens[c].tok
			d.tokens[c].mu.Unlock()
			_, err = d.rt.Shard(shard).ReadAtSession(ctx, at, tok, o.key)
		} else {
			_, err = cl.ReadSession(ctx, at, o.key)
		}
		return err == nil, false
	}
	return false, false
}

// follower picks a non-primary voter of the key's shard, rotating with
// the request index.
func (d *loader) follower(key string, i int) (wire.NodeID, bool) {
	shard := d.rt.Router().ShardFor(key)
	primary, _ := d.rt.Registry().Primary(d.rt.ShardName(shard))
	var cands []wire.NodeID
	for _, v := range voters {
		if v.ID != primary {
			cands = append(cands, v.ID)
		}
	}
	if len(cands) == 0 {
		return "", false
	}
	return cands[i%len(cands)], true
}

var errNoPrimary = errors.New("perfbench: no primary published")

// tracedWrite is one write down the decomposed path, retrying like
// multiraft.Client.Write: a span per layer call of each attempt, under a
// root span for the whole write.
func (d *loader) tracedWrite(ctx context.Context, c int, key string, val []byte) (cluster.WriteResult, error) {
	root := d.spans.id()
	start := time.Now()
	var res cluster.WriteResult
	var err error
	for {
		res.OpID, err = d.tracedAttempt(ctx, root, key, val)
		if err == nil || ctx.Err() != nil {
			break
		}
		res.Retries++
		time.Sleep(2 * time.Millisecond)
	}
	d.spans.add(span{ID: root, Req: root, Name: "client.write", Start: start, End: time.Now()})
	if err != nil {
		return res, err
	}
	d.tokens[c].mu.Lock()
	d.tokens[c].tok.Observe(res.OpID)
	d.tokens[c].mu.Unlock()
	return res, nil
}

// tracedAttempt is one route → resolve primary → Server.Set attempt.
func (d *loader) tracedAttempt(ctx context.Context, root uint64, key string, val []byte) (opid.OpID, error) {
	t0 := time.Now()
	ri := d.rt.Router().Route(key)
	t1 := time.Now()
	d.spans.add(span{Parent: root, Req: root, Name: "multiraft.route", Start: t0, End: t1})
	id, ok := d.rt.Registry().Primary(d.rt.ShardName(ri.Shard))
	var srv *mysql.Server
	if ok {
		_, srv, ok = d.rt.Shard(ri.Shard).MySQLStack(id)
	}
	t2 := time.Now()
	d.spans.add(span{Parent: root, Req: root, Name: "cluster.resolve_primary", Start: t1, End: t2})
	if !ok {
		return opid.OpID{}, errNoPrimary
	}
	op, err := srv.Set(ctx, key, val)
	d.spans.add(span{Parent: root, Req: root, Name: "mysql.set", Node: string(id), Start: t2, End: time.Now()})
	return op, err
}

// writeLog returns every write issued so far.
func (d *loader) writeLog() []write {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]write(nil), d.writes...)
}
