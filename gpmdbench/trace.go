package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"
)

// tracer collects the server side of traced runs: a timing wrapper
// around (*server.Server).ServeHTTP records each request's handler
// interval under the request id the client sent. Client spans come from
// the samples and engine spans from the engine-reported times in each
// response, so every span is recorded from the benchmark's own files.
type tracer struct {
	mu     sync.Mutex
	server map[int]interval // by request id
}

type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

func newTracer() *tracer { return &tracer{server: map[int]interval{}} }

func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		id, err := strconv.Atoi(r.Header.Get(requestIDHeader))
		if err != nil {
			return // set-up and checking traffic carries no id
		}
		t.mu.Lock()
		t.server[id] = interval{start, end}
		t.mu.Unlock()
	})
}

// handler returns the server interval of request id.
func (t *tracer) handler(id int) (interval, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	iv, ok := t.server[id]
	return iv, ok
}

// span is one traced interval. Spans of one request share Req; Parent
// is the id of the span that caused this one (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"` // since the pass began
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the time children cover
}

// layerTimes are the times of one traced request's spans that the
// per-layer metrics use.
type layerTimes struct {
	client  time.Duration // round trip minus handler time: the wire
	handler time.Duration // whole handler interval
	server  time.Duration // handler minus engine-reported time
}

// spansOf builds the client → server → engine spans of each traced
// sample. The engine span's length is the time the response reports
// (fixpoint plus any oracle build); it is placed at the end of the
// handler interval, where the engine call returns.
func spansOf(t *tracer, samples []*sample, t0 time.Time) ([]span, map[int]layerTimes) {
	var spans []span
	times := map[int]layerTimes{}
	rel := func(x time.Time) int64 { return x.Sub(t0).Nanoseconds() }
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		srv, ok := t.handler(s.id)
		if !ok {
			continue
		}
		cli := interval{s.sent, s.done}
		engDur := time.Duration(s.out.stats.MatchTimeNS + s.out.stats.OracleBuildNS)
		if engDur > srv.dur() {
			engDur = srv.dur()
		}
		eng := interval{srv.end.Add(-engDur), srv.end}
		lt := layerTimes{
			client:  cli.dur() - overlap(cli, srv),
			handler: srv.dur(),
			server:  srv.dur() - overlap(srv, eng),
		}
		times[s.id] = lt
		base := 3 * s.id
		spans = append(spans,
			span{Name: "client." + s.route, ID: base + 1, Req: s.id, Start: rel(cli.start), End: rel(cli.end), Self: lt.client.Nanoseconds()},
			span{Name: "server." + s.route, ID: base + 2, Parent: base + 1, Req: s.id, Start: rel(srv.start), End: rel(srv.end), Self: lt.server.Nanoseconds()})
		if engDur > 0 {
			spans = append(spans, span{Name: "engine." + s.route, ID: base + 3, Parent: base + 2, Req: s.id,
				Start: rel(eng.start), End: rel(eng.end), Self: engDur.Nanoseconds()})
		}
	}
	return spans, times
}

// overlap is the part of a that b covers.
func overlap(a, b interval) time.Duration {
	start, end := a.start, a.end
	if b.start.After(start) {
		start = b.start
	}
	if b.end.Before(end) {
		end = b.end
	}
	if end.Before(start) {
		return 0
	}
	return end.Sub(start)
}

// writeSpans writes the spans of a traced pass as one JSON document.
func writeSpans(path, workload string, seed int64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
