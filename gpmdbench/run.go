package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gpm"
	"gpm/client"
	"gpm/internal/pattern"
)

// sizes fixes how much work one run does. Every run with the same seed
// and sizes sends the same operations, so only timing varies.
type sizes struct {
	adhocScale    float64 // YouTube stand-in scale for adhoc and dashboard
	streamScale   float64 // YouTube stand-in scale for stream
	adhocPerRoute int     // requests per route on adhoc
	countMaxSteps int64   // /count max_steps on adhoc

	dashPatterns int     // panel patterns; each is a panel under all four semantics
	panelPairs   [2]int  // bounds on a panel's relation size
	dashRate     float64 // dashboard arrivals per second
	dashRequests int
	drillShare   float64 // share of dashboard requests that drill down

	streamBatches       int
	streamReadsPerBatch int // reads the reader sends between two batches
	snapEvery           int // -snapshot-every on stream

	setups int // set-ups per run; setup_s is their median
}

// defaultSizes are the sizes for a run of about the given length on a
// 2-vCPU machine.
func defaultSizes(seconds int) sizes {
	return sizes{
		adhocScale:          0.35,
		streamScale:         0.25,
		adhocPerRoute:       30 * seconds,
		countMaxSteps:       1_000_000,
		dashPatterns:        16,
		panelPairs:          [2]int{20, 150},
		dashRate:            dashRate,
		dashRequests:        int(dashRate) * seconds,
		drillShare:          0.02,
		streamBatches:       20 * seconds,
		streamReadsPerBatch: 6,
		snapEvery:           16,
		setups:              5,
	}
}

// dashRate is the dashboard's offered load in requests per second: a
// quarter of what two closed-loop connections sustain on its request
// mix (9,400–11,100 req/s, median 10,100, on a 2-vCPU machine; measure
// it with --capacity). At half of it the connections queue behind
// drill-downs and p50 swings threefold with the host's speed.
const dashRate = 2500

// runConfig is one benchmark run.
type runConfig struct {
	workload string
	seed     int64
	trace    bool
	dir      string // scratch directory for generated inputs and WAL
	spanDir  string // where traced runs write their spans
	sz       sizes
	fault    fault     // a defect to inject into one response (self-tests)
	out      io.Writer // human-readable report
}

func (cfg runConfig) logf(format string, args ...interface{}) {
	fmt.Fprintf(cfg.out, format+"\n", args...)
}

// report is what a workload run hands back to main.
type report struct {
	e2e        *metricSet // end-to-end metrics of the untraced pass
	layer      *metricSet // per-layer metrics of the traced pass
	attempted  int
	failures   []error // requests that failed or were refused
	mismatches []error // responses that differ from their reference
	invalid    error   // the load generator fell behind: the run is not scored
}

func newReport() *report { return &report{e2e: newMetricSet(), layer: newMetricSet()} }

// correct reports whether every request succeeded and every response
// matched its reference.
func (r *report) correct() bool { return len(r.failures) == 0 && len(r.mismatches) == 0 }

// count adds a pass's requests to the attempted total and its failed
// requests to the failures.
func (r *report) count(p *pass) {
	for _, s := range p.samples {
		r.attempted++
		if s.err != nil {
			r.failures = append(r.failures, s.err)
		}
	}
}

// served is a deployment ready to measure, with what set-up learned.
type served struct {
	d           *deployment
	oracle      string
	oracleBuild time.Duration
	watchIDs    []int64
	walDir      string
	checks      []*sample // set-up responses, checked like measured ones
}

// close shuts the deployment down and removes its WAL directory.
func (sv *served) close() {
	sv.d.close()
	if sv.walDir != "" {
		os.RemoveAll(sv.walDir)
	}
}

// setUp runs fn n times, timing each, and keeps the last deployment; the
// earlier ones are closed as soon as they are timed.
func setUp(n int, fn func() (*served, error)) (*served, []float64, error) {
	var times []float64
	var last *served
	for i := 0; i < n; i++ {
		if last != nil {
			last.close()
		}
		start := time.Now()
		s, err := fn()
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		last = s
	}
	return last, times, nil
}

// workload is what one workload adds to the run every workload shares
// (runWorkload). X is what a measured pass hands back beside its
// samples.
type workload[X any] struct {
	// setUp deploys the program and readies it for a pass; tr is nil
	// on untraced passes.
	setUp   func(tr *tracer) (*served, error)
	measure func(sv *served, tr *tracer) (*pass, X, error)
	// report adds the workload's own numbers for a pass: end-to-end
	// metrics and log lines after the untraced pass, per-layer metrics
	// after the traced one.
	report func(r *report, p *pass, x X, traced bool) error
	// frontEnd names the inputs frontEndLayers times: the queries sent
	// and the (containing, contained) pattern pairs the cache probes.
	frontEnd func() ([]*query, [][2]*query)
	// verify checks every set-up and measured response against the
	// reference, returning the mismatches.
	verify func(checks []*sample, passes []*pass, xs []X) ([]error, error)
}

// runWorkload times the set-ups, runs the untraced pass and, with
// tracing, a traced pass on a fresh deployment, then checks every
// response of both.
func runWorkload[X any](cfg runConfig, w workload[X]) (*report, error) {
	sv, setups, err := setUp(cfg.sz.setups, func() (*served, error) { return w.setUp(nil) })
	if err != nil {
		return nil, err
	}
	r := newReport()
	r.e2e.set("setup_s", median(setups), "s")
	r.e2e.set("heap_mb", heapMiB(), "MiB")
	p, x, err := w.measure(sv, nil)
	sv.close()
	if err != nil {
		return nil, err
	}
	endToEnd(r.e2e, p)
	sampleCounts(cfg, p)
	hit, contain, cold := cacheShares(p)
	cfg.logf("%s cache service: exact hits %.4f, containment-seeded %.4f, cold %.4f of relation requests",
		cfg.workload, hit, contain, cold)
	if err := w.report(r, p, x, false); err != nil {
		return nil, err
	}
	checks, passes, xs := sv.checks, []*pass{p}, []X{x}

	if cfg.trace {
		tr := newTracer()
		sv, err := w.setUp(tr)
		if err != nil {
			return nil, err
		}
		tp, tx, err := w.measure(sv, tr)
		sv.close()
		if err != nil {
			return nil, err
		}
		checks, passes, xs = append(checks, sv.checks...), append(passes, tp), append(xs, tx)
		traced := newMetricSet()
		endToEnd(traced, tp)
		traceOverhead(cfg, r, traced)
		oracleLayers(r.layer, sv)
		layerMetrics(r.layer, tp)
		qs, pairs := w.frontEnd()
		if err := frontEndLayers(r.layer, qs, pairs); err != nil {
			return nil, err
		}
		if err := w.report(r, tp, tx, true); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.spanDir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
		if err := writeSpans(path, cfg.workload, cfg.seed, tp.spans); err != nil {
			return nil, err
		}
	}

	for _, p := range passes {
		r.count(p)
	}
	if r.mismatches, err = w.verify(checks, passes, xs); err != nil {
		return nil, err
	}
	return r, nil
}

// heapMiB is the live heap after a full collection. It reads HeapAlloc
// (live objects) rather than HeapInuse (spans holding any live object),
// which swings by megabytes with allocation placement between runs.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// pass is one measured phase: the samples plus the daemon's cache
// counters and the process's allocation counters at either end.
type pass struct {
	samples    []*sample
	start      time.Time
	wall       time.Duration
	cache0     client.CacheStats
	cache1     client.CacheStats
	mem0, mem1 runtime.MemStats
	tr         *tracer
	spans      []span
	layers     map[int]layerTimes
}

func (p *pass) begin(ctx context.Context, c *client.Client) error {
	st, err := c.Stats(ctx)
	if err != nil {
		return fmt.Errorf("read /stats: %w", err)
	}
	if st.Cache != nil {
		p.cache0 = *st.Cache
	}
	runtime.ReadMemStats(&p.mem0)
	p.start = time.Now()
	return nil
}

func (p *pass) end(ctx context.Context, c *client.Client) error {
	p.wall = time.Since(p.start)
	runtime.ReadMemStats(&p.mem1)
	st, err := c.Stats(ctx)
	if err != nil {
		return fmt.Errorf("read /stats: %w", err)
	}
	if st.Cache != nil {
		p.cache1 = *st.Cache
	}
	if p.tr != nil {
		p.spans, p.layers = spansOf(p.tr, p.samples, p.start)
	}
	return nil
}

// endToEnd derives the latency and throughput metrics of a pass.
func endToEnd(m *metricSet, p *pass) {
	byRoute := map[string][]float64{}
	var reads []float64
	completed := 0
	for _, s := range p.samples {
		if s.err != nil {
			continue
		}
		completed++
		l := ms(s.latency())
		byRoute[s.route] = append(byRoute[s.route], l)
		if s.route != routeUpdate {
			reads = append(reads, l)
		}
	}
	m.set("throughput_rps", float64(completed)/p.wall.Seconds(), "req/s")
	m.set("query_p50_ms", pct(reads, 0.5), "ms")
	m.set("query_p99_ms", pct(reads, 0.99), "ms")
	m.set("match_p50_ms", pct(byRoute[routeMatch], 0.5), "ms")
	m.set("match_p90_ms", pct(byRoute[routeMatch], 0.9), "ms")
	m.set("sim_p50_ms", pct(byRoute[routeSim], 0.5), "ms")
	m.set("dual_p50_ms", pct(byRoute[routeDual], 0.5), "ms")
	m.set("strong_p50_ms", pct(byRoute[routeStrong], 0.5), "ms")
	if c := byRoute[routeCount]; len(c) > 0 {
		m.set("count_p50_ms", pct(c, 0.5), "ms")
	}
	if u := byRoute[routeUpdate]; len(u) > 0 {
		m.set("update_p50_ms", pct(u, 0.5), "ms")
		m.set("update_p95_ms", pct(u, 0.95), "ms")
	}
}

// sampleCounts reports, per tail percentile, how many samples it rests
// on, flagging any with fewer than ten samples beyond it.
func sampleCounts(cfg runConfig, p *pass) {
	n := map[string]int{}
	reads := 0
	for _, s := range p.samples {
		if s.err == nil {
			n[s.route]++
			if s.route != routeUpdate {
				reads++
			}
		}
	}
	note := func(name string, n int, q float64) {
		flag := ""
		if !tailOK(n, q) {
			flag = "  (fewer than 10 samples beyond)"
		}
		cfg.logf("samples %-14s n=%d%s", name, n, flag)
	}
	note("query_p99_ms", reads, 0.99)
	note("match_p90_ms", n[routeMatch], 0.9)
	if n[routeUpdate] > 0 {
		note("update_p95_ms", n[routeUpdate], 0.95)
	}
}

// cacheShares reports how the daemon served a pass's relation requests:
// exact hits, containment-seeded fixpoints and cold computations.
func cacheShares(p *pass) (hit, contain, cold float64) {
	var n float64
	for _, s := range p.samples {
		if s.err != nil || !isRelation(s.route) {
			continue
		}
		n++
		switch s.out.stats.Cache {
		case "hit":
			hit++
		case "containment":
			contain++
		default:
			cold++
		}
	}
	return ratio(hit, n), ratio(contain, n), ratio(cold, n)
}

func isRelation(route string) bool {
	for _, r := range relationRoutes {
		if r == route {
			return true
		}
	}
	return false
}

// layerMetrics derives the per-layer numbers every workload reports
// from a traced pass: engine-reported work in the responses, the
// daemon's cache counters, handler and wire self times, and the
// process's allocation counters. Layers a workload does not exercise
// read 0.
func layerMetrics(m *metricSet, p *pass) {
	var coreMS, probes, initial, sim, dual, strong, countMS, steps []float64
	var keptPairs, keptInitial float64
	var hitUS, selfUS, wireUS []float64
	reads := 0
	for _, s := range p.samples {
		if s.err != nil {
			continue
		}
		st := s.out.stats
		engine := ms(time.Duration(st.MatchTimeNS))
		if st.Cache != "hit" {
			switch s.route {
			case routeMatch:
				coreMS = append(coreMS, engine)
				probes = append(probes, float64(st.OracleQueries))
				initial = append(initial, float64(st.InitialPairs))
				keptPairs += float64(s.out.pairs)
				keptInitial += float64(st.InitialPairs)
			case routeSim:
				sim = append(sim, engine)
			case routeDual:
				dual = append(dual, engine)
			case routeStrong:
				strong = append(strong, engine)
			case routeCount:
				countMS = append(countMS, engine)
				steps = append(steps, float64(s.out.steps))
			}
		}
		lt, ok := p.layers[s.id]
		if !ok || s.route == routeUpdate {
			continue
		}
		reads++
		if st.Cache == "hit" {
			hitUS = append(hitUS, us(lt.handler))
		}
		selfUS = append(selfUS, us(lt.server))
		wireUS = append(wireUS, us(lt.client))
	}
	m.set("core.match_ms_p50", median(coreMS), "ms")
	m.set("core.oracle_probes_per_match", mean(probes), "count")
	m.set("core.initial_pairs_per_query", mean(initial), "count")
	m.set("core.kept_ratio", ratio(keptPairs, keptInitial), "ratio")
	m.set("simulation.sim_ms_p50", median(sim), "ms")
	m.set("topo.dual_ms_p50", median(dual), "ms")
	m.set("topo.strong_ms_p50", median(strong), "ms")
	m.set("plan.count_ms_p50", median(countMS), "ms")
	m.set("plan.steps_per_count", mean(steps), "count")

	hits := float64(p.cache1.Hits - p.cache0.Hits)
	misses := float64(p.cache1.Misses - p.cache0.Misses)
	m.set("qcache.hit_ratio", ratio(hits, hits+misses), "ratio")
	m.set("qcache.containment_ratio", ratio(float64(p.cache1.ContainmentHits-p.cache0.ContainmentHits), misses), "ratio")
	m.set("qcache.evictions", float64(p.cache1.Evictions-p.cache0.Evictions), "count")
	m.set("qcache.mb", float64(p.cache1.Bytes)/(1<<20), "MiB")

	m.set("server.hit_us_p50", median(hitUS), "us")
	m.set("server.self_us_p50", median(selfUS), "us")
	m.set("client.wire_us_p50", median(wireUS), "us")

	m.set("runtime.alloc_kb_per_req", ratio(float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc)/1024, float64(len(p.samples))), "KiB")
	m.set("runtime.gc_pause_ms", float64(p.mem1.PauseTotalNs-p.mem0.PauseTotalNs)/1e6, "ms")
}

// oracleLayers reports the set-up's lazy oracle build under the layer
// that built it.
func oracleLayers(m *metricSet, s *served) {
	pllMS, matrixMS := 0.0, 0.0
	switch s.oracle {
	case "pll":
		pllMS = ms(s.oracleBuild)
	case "matrix":
		matrixMS = ms(s.oracleBuild)
	}
	m.set("pll.build_ms", pllMS, "ms")
	m.set("matrix.build_ms", matrixMS, "ms")
}

// frontEndLayers times the request path's parsing layers with direct
// calls on the same inputs the requests carried: gpm.ReadPattern on the
// wire text, (*Pattern).Canonical, and pattern.Containment on the
// (containing, contained) pattern pairs the workload produces.
func frontEndLayers(m *metricSet, qs []*query, pairs [][2]*query) error {
	const reps = 3
	var parse, canon, contain []float64
	for _, q := range qs {
		if q.text == "" {
			continue // a watch read carries no pattern
		}
		for i := 0; i < reps; i++ {
			start := time.Now()
			p, err := gpm.ReadPattern(strings.NewReader(q.text))
			parse = append(parse, us(time.Since(start)))
			if err != nil {
				return fmt.Errorf("parse %s: %w", q.desc, err)
			}
			start = time.Now()
			_, err = p.Canonical()
			canon = append(canon, us(time.Since(start)))
			if err != nil {
				return fmt.Errorf("canonicalise %s: %w", q.desc, err)
			}
		}
	}
	for _, pr := range pairs {
		mode := pattern.ContainChild
		if pr[1].route == routeDual {
			mode = pattern.ContainDual
		}
		for i := 0; i < reps; i++ {
			start := time.Now()
			pattern.Containment(pr[0].pat, pr[1].pat, mode)
			contain = append(contain, us(time.Since(start)))
		}
	}
	m.set("gio.parse_us_p50", median(parse), "us")
	m.set("pattern.canonical_us_p50", median(canon), "us")
	m.set("pattern.containment_us_p50", median(contain), "us")
	return nil
}

// traceOverhead compares the traced pass's end-to-end numbers with the
// untraced pass's and records the difference as the tracing overhead.
func traceOverhead(cfg runConfig, r *report, traced *metricSet) {
	cfg.logf("tracing overhead (traced vs untraced pass):")
	for _, name := range r.e2e.names {
		u, _ := r.e2e.get(name)
		t, ok := traced.get(name)
		if !ok {
			continue
		}
		cfg.logf("  %-16s untraced %10.4f  traced %10.4f %s", name, u.Value, t.Value, u.Unit)
	}
	q0, _ := r.e2e.get("query_p50_ms")
	q1, _ := traced.get("query_p50_ms")
	t0, _ := r.e2e.get("throughput_rps")
	t1, _ := traced.get("throughput_rps")
	r.layer.set("trace.query_p50_overhead_pct", 100*(ratio(q1.Value, q0.Value)-1), "%")
	r.layer.set("trace.throughput_overhead_pct", 100*(1-ratio(t1.Value, t0.Value)), "%")
}

// patternSource draws generated patterns that are pairwise distinct in
// canonical form across a whole run.
type patternSource struct {
	g    *gpm.Graph
	r    *rand.Rand
	seen map[string]bool
}

func newPatternSource(g *gpm.Graph, seed int64) *patternSource {
	return &patternSource{g: g, r: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

// next generates a pattern of shape cfg not seen before in this run.
func (ps *patternSource) next(cfg gpm.PatternGenConfig) (*gpm.Pattern, error) {
	for try := 0; try < 1000; try++ {
		cfg.Seed = ps.r.Int63()
		p := gpm.GeneratePattern(cfg, ps.g)
		if ps.claim(p) {
			return p, nil
		}
	}
	return nil, fmt.Errorf("no new canonically distinct %d-node pattern in 1000 tries", cfg.Nodes)
}

// claim records p's canonical form, reporting whether it was new.
func (ps *patternSource) claim(p *gpm.Pattern) bool {
	c, err := p.Canonical()
	if err != nil || ps.seen[c.Text] {
		return false
	}
	ps.seen[c.Text] = true
	return true
}

// newQuery wraps a pattern as a query on route.
func newQuery(route string, p *gpm.Pattern, desc string) (*query, error) {
	var b bytes.Buffer
	if err := gpm.WritePattern(&b, p); err != nil {
		return nil, fmt.Errorf("serialise %s: %w", desc, err)
	}
	return &query{route: route, pat: p, text: b.String(), desc: desc}, nil
}

// writeDataset generates the YouTube stand-in at scale and writes it to
// path; the program under test only ever sees the file. The dataset is
// fixed (its own seed), like a real one; the workload seed varies the
// queries and batches sent against it.
func writeDataset(path string, scale float64) (*gpm.Graph, error) {
	g, err := gpm.Dataset("youtube", datasetSeed, scale)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := gpm.WriteGraph(f, g); err != nil {
		f.Close()
		return nil, fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return g, nil
}

const datasetSeed = 7
