package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gpm"
	"gpm/client"
)

// Routes the benchmark sends, named after the semantics they serve.
const (
	routeMatch  = "match"
	routeSim    = "sim"
	routeDual   = "dual"
	routeStrong = "strong"
	routeCount  = "count"
	routeWatch  = "watch"  // GET /watch/{id}
	routeUpdate = "update" // POST /update
)

// relationRoutes are the four relation-valued semantics, in the order
// reports list them.
var relationRoutes = []string{routeMatch, routeSim, routeDual, routeStrong}

// query is one read the benchmark can send: a relation query or count
// on a pattern, or a watch-session read.
type query struct {
	route string
	pat   *gpm.Pattern
	text  string // the pattern in .pattern text, as the client sends it
	watch int    // index into the watch sessions, for routeWatch
	desc  string // names the input in failure messages
}

// outcome is what the benchmark keeps of one response: enough to compare
// it with the reference and to derive per-layer numbers.
type outcome struct {
	ok       bool
	pairs    int
	digest   uint64 // relationDigest of the rows
	count    int64
	complete bool
	steps    int64
	stats    client.Stats

	// update acknowledgements
	applied, watchers, deltaPairs, deltaLines, recomputed int
}

// sample is one request as sent: when it was due, sent and answered,
// and what came back.
type sample struct {
	id    int
	route string
	key   int // which input the request carried (workload-specific)
	due   time.Time
	sent  time.Time
	done  time.Time
	err   error
	out   outcome
	// On stream, the graph versions (update batches applied) the
	// response may describe: batches acknowledged before it was sent
	// through batches sent before it was answered.
	lo, hi int
}

// latency runs from when the request was sent to when its response was
// read to the end.
func (s *sample) latency() time.Duration { return s.done.Sub(s.sent) }

// sinceDue runs from when the request was due: on the open loop it adds
// the generator's lateness and the wait for a free connection.
func (s *sample) sinceDue() time.Duration { return s.done.Sub(s.due) }

// relationDigest folds a relation's OK flag and rows into 64 bits. Every
// step is a bijection of the running state, so two relations that
// differ in one pair always fold differently.
func relationDigest(ok bool, rows [][]int32) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	if ok {
		mix(1)
	} else {
		mix(2)
	}
	for _, row := range rows {
		mix(uint64(len(row)) | 1<<40)
		for _, x := range row {
			mix(uint64(uint32(x)))
		}
	}
	return h
}

// requestError is a request that failed or was refused. A run with one
// is incorrect, like a run with a response that differs.
type requestError struct {
	id    int
	route string
	desc  string
	err   error
}

func (e *requestError) Error() string {
	return fmt.Sprintf("request %d (%s %s) failed: %v", e.id, e.route, e.desc, e.err)
}

func (e *requestError) Unwrap() error { return e.err }

// fault is a defect the self-tests inject into one response, to show
// the correctness checks catch it.
type fault struct {
	kind faultKind
	id   int // the request it hits
}

type faultKind int

const (
	faultNone faultKind = iota
	faultFlip           // one relation pair flipped (see flipPair)
	faultFail           // the request fails
)

func (f fault) hits(kind faultKind, id int) bool { return f.kind == kind && f.id == id }

// errInjected is the error a faultFail request fails with.
var errInjected = errors.New("injected failure")

// flipPair removes one pair from a relation (or adds one to an empty
// relation): the corruption the correctness self-test injects.
func flipPair(rows [][]int32) {
	for u, row := range rows {
		if len(row) > 0 {
			rows[u] = row[1:]
			return
		}
	}
	if len(rows) > 0 {
		rows[0] = []int32{0}
	}
}

// caller sends queries through one typed client and records samples.
type caller struct {
	c        *client.Client
	watchIDs []int64 // watch session ids, indexed by query.watch
	maxSteps int64   // /count max_steps
	fault    fault   // a defect to inject (self-tests); zero for none
}

// send issues q as sample s, filling in sent, done, err and out.
func (k *caller) send(ctx context.Context, s *sample, q *query) {
	ctx = withRequestID(ctx, s.id)
	s.sent = time.Now()
	var (
		rel  *client.Relation
		cnt  *client.Count
		ws   *client.WatchState
		err  error
		rows [][]int32
		ok   bool
	)
	switch {
	case k.fault.hits(faultFail, s.id):
		err = errInjected
	case q.route == routeMatch:
		rel, err = k.c.Match(ctx, graphName, q.pat)
	case q.route == routeSim:
		rel, err = k.c.Simulate(ctx, graphName, q.pat)
	case q.route == routeDual:
		rel, err = k.c.DualSimulate(ctx, graphName, q.pat)
	case q.route == routeStrong:
		rel, err = k.c.StrongSimulate(ctx, graphName, q.pat)
	case q.route == routeCount:
		cnt, err = k.c.Count(ctx, graphName, q.pat, client.EnumerateOptions{MaxSteps: k.maxSteps})
	case q.route == routeWatch:
		ws, err = k.c.WatchSnapshot(ctx, k.watchIDs[q.watch])
	default:
		err = fmt.Errorf("unknown route %q", q.route)
	}
	s.done = time.Now()
	s.route = q.route
	if err != nil {
		s.err = &requestError{id: s.id, route: q.route, desc: q.desc, err: err}
		return
	}
	switch {
	case rel != nil:
		rows, ok = rel.Matches, rel.OK
		s.out.pairs, s.out.stats = rel.Pairs, rel.Stats
	case ws != nil:
		rows, ok = ws.Matches, ws.OK
		s.out.pairs = ws.Pairs
	case cnt != nil:
		s.out.count, s.out.complete, s.out.steps, s.out.stats = cnt.Count, cnt.Complete, cnt.Steps, cnt.Stats
		return
	}
	if k.fault.hits(faultFlip, s.id) {
		flipPair(rows)
	}
	s.out.ok = ok
	s.out.digest = relationDigest(ok, rows)
}

// update sends one /update batch as sample s.
func (k *caller) update(ctx context.Context, s *sample, ups []gpm.Update, desc string) {
	ctx = withRequestID(ctx, s.id)
	s.route = routeUpdate
	s.sent = time.Now()
	var (
		hdr    *client.UpdateHeader
		deltas []client.WatchDelta
		err    error
	)
	if k.fault.hits(faultFail, s.id) {
		err = errInjected
	} else {
		hdr, deltas, err = k.c.Update(ctx, graphName, ups)
	}
	s.done = time.Now()
	if err != nil {
		s.err = &requestError{id: s.id, route: routeUpdate, desc: desc, err: err}
		return
	}
	s.out.applied, s.out.watchers, s.out.deltaLines = hdr.Applied, hdr.Watchers, len(deltas)
	for _, d := range deltas {
		s.out.deltaPairs += len(d.Added) + len(d.Removed)
		if d.Recomputed {
			s.out.recomputed++
		}
	}
}
