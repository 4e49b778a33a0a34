package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gpm"
)

// adhocClients is the closed loop's client count: one per vCPU of the
// machine the sizes were chosen on.
const adhocClients = 2

// adhocInputs are adhoc's generated inputs: equal numbers of match,
// sim, dual, strong and count requests, all canonically distinct, in a
// seeded order.
type adhocInputs struct {
	graphPath string
	warm      *query // pays the lazy oracle build during set-up
	ops       []*query
}

// The adhoc pattern shapes.
var (
	adhocMatchShape = gpm.PatternGenConfig{Nodes: 5, Edges: 6, K: 2, C: 1, PredAttrs: 2}
	adhocRelShape   = gpm.PatternGenConfig{Nodes: 5, Edges: 6, K: 1, IsoBias: true}
	adhocCountShape = gpm.PatternGenConfig{Nodes: 4, Edges: 4, K: 1, IsoBias: true}
)

func genAdhoc(cfg runConfig) (*adhocInputs, error) {
	in := &adhocInputs{graphPath: filepath.Join(cfg.dir, "adhoc.graph")}
	g, err := writeDataset(in.graphPath, cfg.sz.adhocScale)
	if err != nil {
		return nil, err
	}
	src := newPatternSource(g, cfg.seed)
	shape := map[string]gpm.PatternGenConfig{
		routeMatch: adhocMatchShape, routeSim: adhocRelShape, routeDual: adhocRelShape,
		routeStrong: adhocRelShape, routeCount: adhocCountShape,
	}
	wp, err := src.next(adhocMatchShape)
	if err != nil {
		return nil, err
	}
	if in.warm, err = newQuery(routeMatch, wp, "warm-up pattern"); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.sz.adhocPerRoute; i++ {
		for _, route := range []string{routeMatch, routeSim, routeDual, routeStrong, routeCount} {
			p, err := src.next(shape[route])
			if err != nil {
				return nil, err
			}
			q, err := newQuery(route, p, fmt.Sprintf("adhoc %s pattern %d", route, i))
			if err != nil {
				return nil, err
			}
			in.ops = append(in.ops, q)
		}
	}
	r := rand.New(rand.NewSource(cfg.seed))
	r.Shuffle(len(in.ops), func(i, j int) { in.ops[i], in.ops[j] = in.ops[j], in.ops[i] })
	return in, nil
}

// setUpAdhoc deploys the graph and pays the lazy oracle build with one
// warm-up query outside the measured list.
func setUpAdhoc(in *adhocInputs, tr *tracer) (*served, error) {
	d, err := deploy(in.graphPath, "", 0, tr)
	if err != nil {
		return nil, err
	}
	c, t := d.client(1)
	defer t.CloseIdleConnections()
	s := &sample{id: -1, key: -1, due: time.Now()}
	(&caller{c: c}).send(context.Background(), s, in.warm)
	if s.err != nil {
		d.close()
		return nil, s.err
	}
	st := s.out.stats
	return &served{d: d, oracle: st.Oracle, oracleBuild: time.Duration(st.OracleBuildNS), checks: []*sample{s}}, nil
}

// closedLoop sends qs in order from clients concurrent callers, each
// sending its next request only when its previous one has completed.
func closedLoop(ctx context.Context, k *caller, qs []*query, clients int) []*sample {
	samples := make([]*sample, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(qs) {
					return
				}
				s := &sample{id: i, key: i, due: time.Now()}
				k.send(ctx, s, qs[i])
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	return samples
}

func adhocPass(cfg runConfig, in *adhocInputs, sv *served, tr *tracer) (*pass, struct{}, error) {
	ctx := context.Background()
	c, t := sv.d.client(adhocClients)
	defer t.CloseIdleConnections()
	k := &caller{c: c, maxSteps: cfg.sz.countMaxSteps, fault: cfg.fault}
	p := &pass{tr: tr}
	if err := p.begin(ctx, c); err != nil {
		return nil, struct{}{}, err
	}
	p.samples = closedLoop(ctx, k, in.ops, adhocClients)
	return p, struct{}{}, p.end(ctx, c)
}

func runAdhoc(cfg runConfig) (*report, error) {
	in, err := genAdhoc(cfg)
	if err != nil {
		return nil, err
	}
	queryOf := func(key int) *query {
		if key < 0 {
			return in.warm
		}
		return in.ops[key]
	}
	return runWorkload(cfg, workload[struct{}]{
		setUp:    func(tr *tracer) (*served, error) { return setUpAdhoc(in, tr) },
		measure:  func(sv *served, tr *tracer) (*pass, struct{}, error) { return adhocPass(cfg, in, sv, tr) },
		report:   func(*report, *pass, struct{}, bool) error { return nil },
		frontEnd: func() ([]*query, [][2]*query) { return in.ops, adhocContainPairs(in.ops) },
		verify: func(checks []*sample, passes []*pass, _ []struct{}) ([]error, error) {
			return verifyStaticRun(in.graphPath, checks, passes, queryOf)
		},
	})
}

// adhocContainPairs pairs each relation request with the previous
// request of the same semantics: the containment probes the daemon's
// cache makes on a stream of distinct patterns.
func adhocContainPairs(ops []*query) [][2]*query {
	prev := map[string]*query{}
	var pairs [][2]*query
	for _, q := range ops {
		if !isRelation(q.route) || q.route == routeStrong {
			continue
		}
		if p := prev[q.route]; p != nil {
			pairs = append(pairs, [2]*query{p, q})
		}
		prev[q.route] = q
	}
	return pairs
}
