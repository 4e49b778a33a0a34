package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gpm"
	"gpm/internal/incremental"
	"gpm/internal/wal"
)

// streamBatchOps is the number of inserts and of deletes per batch.
const streamBatchOps = 8

// streamPoolPerRoute is how many patterns the reader's pool holds per
// relation semantics. Each batch orphans every cached answer, and the
// reader runs a few reads per batch, so most relation reads recompute
// on the new graph version; several patterns per semantics keep the
// per-route medians from resting on one pattern's cost.
const streamPoolPerRoute = 16

// streamInputs are stream's generated inputs.
type streamInputs struct {
	graphPath string
	warm      *query // pays the lazy oracle build during set-up
	watchPat  *gpm.Pattern
	// pool is what the reader repeats: relation queries, then one watch
	// read per session (query.watch indexes relationRoutes).
	pool     []*query
	reads    []int // pool index of each read, in order
	batches  [][]gpm.Update
	final    *gpm.Graph // the graph after every batch
	freezeMS []float64  // Freeze() of the mirror after each batch (traced runs)
}

// Stream pattern shapes: bounded match queries, bound-1 queries for the
// other semantics, and the 4-node bound-1 pattern every session watches.
var (
	streamMatchShape = gpm.PatternGenConfig{Nodes: 5, Edges: 6, K: 2, C: 1, PredAttrs: 2}
	streamRelShape   = gpm.PatternGenConfig{Nodes: 5, Edges: 6, K: 1, IsoBias: true}
	streamWatchShape = gpm.PatternGenConfig{Nodes: 4, Edges: 4, K: 1, IsoBias: true}
)

func genStream(cfg runConfig) (*streamInputs, error) {
	in := &streamInputs{graphPath: filepath.Join(cfg.dir, "stream.graph")}
	g, err := writeDataset(in.graphPath, cfg.sz.streamScale)
	if err != nil {
		return nil, err
	}
	src := newPatternSource(g, cfg.seed)
	add := func(route string, shape gpm.PatternGenConfig, desc string) (*query, error) {
		p, err := src.next(shape)
		if err != nil {
			return nil, err
		}
		return newQuery(route, p, desc)
	}
	if in.warm, err = add(routeMatch, streamMatchShape, "warm-up pattern"); err != nil {
		return nil, err
	}
	for i := 0; i < streamPoolPerRoute; i++ {
		for _, route := range relationRoutes {
			shape := streamRelShape
			if route == routeMatch {
				shape = streamMatchShape
			}
			q, err := add(route, shape, fmt.Sprintf("stream %s pool pattern %d", route, i))
			if err != nil {
				return nil, err
			}
			in.pool = append(in.pool, q)
		}
	}
	if in.watchPat, err = watchPattern(src, g); err != nil {
		return nil, err
	}
	for w, sem := range relationRoutes {
		in.pool = append(in.pool, &query{route: routeWatch, pat: in.watchPat, watch: w, desc: "watch session " + sem})
	}

	r := rand.New(rand.NewSource(cfg.seed + 1))
	n := cfg.sz.streamBatches * cfg.sz.streamReadsPerBatch
	for i := 0; i < n; i++ {
		in.reads = append(in.reads, r.Intn(len(in.pool)))
	}
	mirror := g.Clone()
	for i := 0; i < cfg.sz.streamBatches; i++ {
		ups := gpm.GenerateUpdates(gpm.UpdateGenConfig{Insertions: streamBatchOps, Deletions: streamBatchOps, Seed: r.Int63()}, mirror)
		if err := incremental.ApplyToGraph(mirror, ups); err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
		if cfg.trace {
			start := time.Now()
			mirror.Freeze()
			in.freezeMS = append(in.freezeMS, ms(time.Since(start)))
		}
		in.batches = append(in.batches, ups)
	}
	in.final = mirror
	return in, nil
}

// watchPattern draws the pattern the four sessions watch: one that
// matches the graph under strong simulation, the strictest of the four
// semantics, so every session maintains a live relation. Maintaining an
// empty strong relation costs about half as much per batch, which made
// the update cost swing with whether the seed's pattern happened to
// match.
func watchPattern(src *patternSource, g *gpm.Graph) (*gpm.Pattern, error) {
	for try := 0; try < 1000; try++ {
		p, err := src.next(streamWatchShape)
		if err != nil {
			return nil, err
		}
		if _, ok, err := gpm.StrongSimulate(p, g); err != nil {
			return nil, err
		} else if ok {
			return p, nil
		}
	}
	return nil, fmt.Errorf("no watch pattern matching under strong simulation in 1000 tries")
}

// watchQuery is the relation query a watch session maintains.
func (in *streamInputs) watchQuery(q *query) *query {
	return &query{route: relationRoutes[q.watch], pat: in.watchPat, desc: q.desc}
}

// setUpStream deploys the graph with a WAL in a fresh directory (the
// start-up snapshot included), pays the oracle build with a warm-up
// query and opens one watch session per semantics.
func setUpStream(cfg runConfig, in *streamInputs, tr *tracer) (*served, error) {
	walDir, err := os.MkdirTemp(cfg.dir, "wal-")
	if err != nil {
		return nil, err
	}
	d, err := deploy(in.graphPath, walDir, cfg.sz.snapEvery, tr)
	if err != nil {
		return nil, err
	}
	sv := &served{d: d, walDir: walDir}
	ctx := context.Background()
	c, t := d.client(1)
	defer t.CloseIdleConnections()
	s := &sample{id: -1, key: -1, due: time.Now()}
	(&caller{c: c}).send(ctx, s, in.warm)
	if s.err != nil {
		d.close()
		return nil, s.err
	}
	sv.oracle, sv.oracleBuild = s.out.stats.Oracle, time.Duration(s.out.stats.OracleBuildNS)
	sv.checks = append(sv.checks, s)
	for _, sem := range relationRoutes {
		st, err := c.Watch(ctx, graphName, in.watchPat, sem)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("open %s watch: %w", sem, err)
		}
		sv.watchIDs = append(sv.watchIDs, st.ID)
	}
	return sv, nil
}

// streamPass is one measured stream phase plus the crash that ends it.
type streamPass struct {
	*pass
	sent, acked []time.Time // per batch
	// final and recovered are the watch reads after the last batch and
	// after crash recovery; checked, not timed.
	final, recovered []*sample
	recovery         time.Duration
	replayMS         float64
	snapshotMS       []float64
}

// runStreamPass runs the writer and the reader side by side, reads every
// session once more, crashes the deployment and recovers it from its WAL.
func runStreamPass(cfg runConfig, in *streamInputs, sv *served, tr *tracer) (*streamPass, error) {
	ctx := context.Background()
	wc, wt := sv.d.client(1)
	defer wt.CloseIdleConnections()
	rc, rt := sv.d.client(1)
	defer rt.CloseIdleConnections()
	writer := &caller{c: wc, fault: cfg.fault}
	reader := &caller{c: rc, watchIDs: sv.watchIDs, fault: cfg.fault}

	nb, nr := len(in.batches), len(in.reads)
	sp := &streamPass{pass: &pass{tr: tr, samples: make([]*sample, nr+nb)}, sent: make([]time.Time, nb), acked: make([]time.Time, nb)}
	// The writer and the reader run side by side but neither gets more
	// than one batch ahead of the other, so every run interleaves the
	// same work: the reads of slot v (k reads) start once batch v-1 is
	// acknowledged, and batch v is sent once slot v-1 is read.
	// ackCh[v] closes when batch v is acknowledged and slotCh[v] when
	// slot v is read, or when their side stops.
	k := cfg.sz.streamReadsPerBatch
	ackCh, slotCh := make([]chan struct{}, nb), make([]chan struct{}, nb)
	for i := range ackCh {
		ackCh[i], slotCh[i] = make(chan struct{}), make(chan struct{})
	}
	if err := sp.begin(ctx, rc); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	var writeErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		stopped := nb
		defer func() {
			for i := stopped; i < nb; i++ {
				close(ackCh[i])
			}
		}()
		for i, b := range in.batches {
			if i > 0 {
				<-slotCh[i-1]
			}
			s := &sample{id: nr + i, key: -1, due: time.Now()}
			desc := fmt.Sprintf("batch %d", i)
			writer.update(ctx, s, b, desc)
			sp.samples[nr+i], sp.sent[i], sp.acked[i] = s, s.sent, s.done
			if s.err == nil && (s.out.applied != len(b) || s.out.watchers != len(relationRoutes)) {
				s.err = &requestError{id: s.id, route: routeUpdate, desc: desc, err: fmt.Errorf(
					"acknowledged %d ops and %d watchers, want %d and %d", s.out.applied, s.out.watchers, len(b), len(relationRoutes))}
			}
			if s.err != nil {
				// Later batches would not apply to the graph the
				// reference walks, so the pass stops here.
				writeErr = s.err
				stopped = i
				return
			}
			close(ackCh[i])
		}
	}()
	go func() {
		defer wg.Done()
		for v := 0; v < nb; v++ {
			if v > 0 {
				<-ackCh[v-1]
			}
			for j := v * k; j < (v+1)*k; j++ {
				s := &sample{id: j, key: in.reads[j], due: time.Now()}
				reader.send(ctx, s, in.pool[s.key])
				sp.samples[j] = s
			}
			close(slotCh[v])
		}
	}()
	wg.Wait()
	if writeErr != nil {
		return nil, writeErr
	}
	err := sp.end(ctx, rc)
	if err != nil {
		return nil, err
	}
	for _, s := range sp.samples[:nr] {
		s.lo = sort.Search(nb, func(i int) bool { return !sp.acked[i].Before(s.sent) })
		s.hi = sort.Search(nb, func(i int) bool { return !sp.sent[i].Before(s.done) })
	}
	if sp.final, err = watchReads(ctx, reader, in, nb); err != nil {
		return nil, err
	}

	sv.d.close() // a crash: no parting snapshot
	rd, err := deploy(in.graphPath, sv.walDir, cfg.sz.snapEvery, nil)
	if err != nil {
		return nil, fmt.Errorf("recover from WAL: %w", err)
	}
	defer rd.close()
	sp.recovery = rd.openBind
	c2, t2 := rd.client(1)
	defer t2.CloseIdleConnections()
	if sp.recovered, err = watchReads(ctx, &caller{c: c2, watchIDs: sv.watchIDs}, in, nb); err != nil {
		return nil, fmt.Errorf("after recovery: %w", err)
	}
	st, err := c2.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("read /stats after recovery: %w", err)
	}
	if st.WAL != nil {
		sp.replayMS = st.WAL.ReplayMS
	}
	if tr != nil {
		for i := 0; i < 5; i++ {
			start := time.Now()
			if err := rd.srv.Checkpoint(); err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
			sp.snapshotMS = append(sp.snapshotMS, ms(time.Since(start)))
		}
	}
	return sp, nil
}

// watchReads reads every watch session once at graph version v.
func watchReads(ctx context.Context, k *caller, in *streamInputs, v int) ([]*sample, error) {
	var out []*sample
	for key, q := range in.pool {
		if q.route != routeWatch {
			continue
		}
		s := &sample{id: -1, key: key, due: time.Now(), lo: v, hi: v}
		k.send(ctx, s, q)
		if s.err != nil {
			return nil, s.err
		}
		out = append(out, s)
	}
	return out, nil
}

func runStream(cfg runConfig) (*report, error) {
	in, err := genStream(cfg)
	if err != nil {
		return nil, err
	}
	return runWorkload(cfg, workload[*streamPass]{
		setUp: func(tr *tracer) (*served, error) { return setUpStream(cfg, in, tr) },
		measure: func(sv *served, tr *tracer) (*pass, *streamPass, error) {
			sp, err := runStreamPass(cfg, in, sv, tr)
			if err != nil {
				return nil, nil, err
			}
			return sp.pass, sp, nil
		},
		report: func(r *report, _ *pass, sp *streamPass, traced bool) error {
			if traced {
				return streamLayers(cfg, r, in, sp)
			}
			r.e2e.set("recovery_s", sp.recovery.Seconds(), "s")
			cfg.logf("stream: %d batches, %d reads; %.4f of reads sent while an update was in flight; recovery replayed in %.4f ms",
				len(in.batches), len(in.reads), readsInUpdate(sp), sp.replayMS)
			return nil
		},
		frontEnd: func() ([]*query, [][2]*query) { return in.pool, nil },
		verify: func(checks []*sample, _ []*pass, sps []*streamPass) ([]error, error) {
			return verifyStream(in, sps, checks)
		},
	})
}

// readsInUpdate is the share of reads sent while an /update was in
// flight (between its send and its acknowledgement), when the read can
// queue behind Engine.Update's write lock.
func readsInUpdate(sp *streamPass) float64 {
	in, n := 0, 0
	for _, s := range sp.samples {
		if s.route == routeUpdate {
			continue
		}
		n++
		i := sort.Search(len(sp.sent), func(i int) bool { return sp.sent[i].After(s.sent) }) - 1
		if i >= 0 && sp.acked[i].After(s.sent) {
			in++
		}
	}
	return ratio(float64(in), float64(n))
}

// streamLayers measures the write path's layers from outside: the
// update acknowledgements' delta lines, Engine.Update on a bench-owned
// engine with the same sessions and batches, (*WAL).AppendUpdate under
// the same sync policy, the daemon's own snapshot and replay times, and
// Freeze of the mirror graph after each batch.
func streamLayers(cfg runConfig, r *report, in *streamInputs, sp *streamPass) error {
	var deltaPairs, lines, recomputed float64
	for _, s := range sp.samples {
		if s.route == routeUpdate && s.err == nil {
			deltaPairs += float64(s.out.deltaPairs)
			lines += float64(s.out.deltaLines)
			recomputed += float64(s.out.recomputed)
		}
	}
	r.layer.set("incremental.delta_pairs_per_batch", ratio(deltaPairs, float64(len(in.batches))), "count")
	r.layer.set("incremental.recomputed_ratio", ratio(recomputed, lines), "ratio")

	g, err := gpm.LoadGraphFile(in.graphPath)
	if err != nil {
		return err
	}
	eng := gpm.NewEngine(g, gpm.WithOracle(gpm.OracleAuto))
	if _, err := eng.Match(context.Background(), in.warm.pat); err != nil {
		return fmt.Errorf("bench-owned engine: %w", err)
	}
	for _, watch := range []func(*gpm.Pattern) (*gpm.Watcher, error){eng.Watch, eng.WatchSim, eng.WatchDual, eng.WatchStrong} {
		if _, err := watch(in.watchPat); err != nil {
			return fmt.Errorf("bench-owned engine watch: %w", err)
		}
	}
	// A quarter of the batches gives the median plenty of samples.
	var updateMS []float64
	for _, b := range in.batches[:(len(in.batches)+3)/4] {
		start := time.Now()
		if _, err := eng.Update(b...); err != nil {
			return fmt.Errorf("bench-owned engine update: %w", err)
		}
		updateMS = append(updateMS, ms(time.Since(start)))
	}
	r.layer.set("incremental.update_ms_p50", median(updateMS), "ms")

	dir, err := os.MkdirTemp(cfg.dir, "wal-append-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	before, err := dirBytes(dir)
	if err != nil {
		w.Close()
		return err
	}
	var appendUS []float64
	for _, b := range in.batches {
		start := time.Now()
		if err := w.AppendUpdate(graphName, b); err != nil {
			w.Close()
			return fmt.Errorf("wal append: %w", err)
		}
		appendUS = append(appendUS, us(time.Since(start)))
	}
	if err := w.Close(); err != nil {
		return err
	}
	after, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.layer.set("wal.append_us_p50", median(appendUS), "us")
	r.layer.set("wal.bytes_per_batch", ratio(float64(after-before), float64(len(in.batches))), "B")
	r.layer.set("wal.snapshot_ms_p50", median(sp.snapshotMS), "ms")
	r.layer.set("wal.replay_ms", sp.replayMS, "ms")
	r.layer.set("graph.freeze_ms_p50", median(in.freezeMS), "ms")
	r.layer.set("stream.reads_in_update_share", readsInUpdate(sp), "ratio")
	return nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// verifyStream checks every stream response against the reference
// engine walked through the same batches. A read may equal the
// reference at any graph version in its window (see sample.lo); the
// watch reads after the last batch and after recovery must equal a
// fresh recompute on the final graph, and so must the walked reference
// itself, which proves its maintained distance matrix did not drift.
func verifyStream(in *streamInputs, passes []*streamPass, checks []*sample) ([]error, error) {
	g, err := gpm.LoadGraphFile(in.graphPath)
	if err != nil {
		return nil, err
	}
	ref := newReference(g)
	fresh := newReference(in.final.Clone())
	queryOf := func(key int) *query {
		if key < 0 {
			return in.warm
		}
		if q := in.pool[key]; q.route == routeWatch {
			return in.watchQuery(q)
		}
		return in.pool[key]
	}

	var errs []error
	var walk []*sample
	for _, s := range checks {
		if s.err == nil {
			walk = append(walk, s)
		}
	}
	for _, sp := range passes {
		for _, s := range sp.samples {
			if s.err == nil && s.route != routeUpdate {
				walk = append(walk, s)
			}
		}
		errs = append(errs, verifyStatic(fresh, append(append([]*sample(nil), sp.final...), sp.recovered...), queryOf)...)
	}
	sort.SliceStable(walk, func(i, j int) bool { return walk[i].lo < walk[j].lo })

	var active []*sample
	next := 0
	for v := 0; v <= len(in.batches); v++ {
		if v > 0 {
			if _, err := ref.eng.Update(in.batches[v-1]...); err != nil {
				return nil, fmt.Errorf("reference update %d: %w", v, err)
			}
		}
		for next < len(walk) && walk[next].lo <= v {
			active = append(active, walk[next])
			next++
		}
		at := map[int]outcome{}
		keep := active[:0]
		for _, s := range active {
			want, ok := at[s.key]
			if !ok {
				if want, err = ref.answer(queryOf(s.key)); err != nil {
					return nil, err
				}
				at[s.key] = want
			}
			switch {
			case same(s.route, s.out, want):
			case s.hi <= v:
				errs = append(errs, fmt.Errorf("%v, at every graph version %d..%d", mismatch(s, queryOf(s.key), s.out, want), s.lo, s.hi))
			default:
				keep = append(keep, s)
			}
		}
		active = keep
	}

	for key := range in.pool {
		q := queryOf(key)
		got, err := ref.answer(q)
		if err != nil {
			return nil, err
		}
		want, err := fresh.memoAnswer(key, q)
		if err != nil {
			return nil, err
		}
		if !same(q.route, got, want) {
			return nil, fmt.Errorf("reference engine drifted from a fresh recompute on %s after %d batches", q.desc, len(in.batches))
		}
	}
	return errs, nil
}
