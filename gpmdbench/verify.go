package main

import (
	"context"
	"fmt"

	"gpm"
)

// reference answers queries the way the served path must: a separate
// in-process engine with no cache and no HTTP. Relation queries run on
// the all-pairs distance matrix (OracleMatrix), so a defect in the
// served PLL path shows as a mismatch instead of being reproduced by the
// check; counts run an unplanned VF2 enumeration.
type reference struct {
	eng  *gpm.Engine
	memo map[int]outcome // by workload input key
}

func newReference(g *gpm.Graph) *reference {
	return &reference{eng: gpm.NewEngine(g, gpm.WithOracle(gpm.OracleMatrix)), memo: map[int]outcome{}}
}

// answer computes q's reference outcome.
func (r *reference) answer(q *query) (outcome, error) {
	ctx := context.Background()
	route := q.route
	if route == routeCount {
		enum, err := r.eng.Enumerate(ctx, q.pat, gpm.IsoOptions{NoPlan: true})
		if err != nil {
			return outcome{}, fmt.Errorf("reference count of %s: %w", q.desc, err)
		}
		return outcome{count: int64(len(enum.Embeddings)), complete: enum.Complete}, nil
	}
	sem, err := gpm.ParseRelSemantics(route)
	if err != nil {
		return outcome{}, err
	}
	res, err := r.eng.RelationQuery(ctx, gpm.RelationQuery{Semantics: sem, Pattern: q.pat})
	if err != nil {
		return outcome{}, fmt.Errorf("reference %s of %s: %w", route, q.desc, err)
	}
	pairs := 0
	for _, row := range res.Relation {
		pairs += len(row)
	}
	return outcome{ok: res.OK, pairs: pairs, digest: relationDigest(res.OK, res.Relation)}, nil
}

// memoAnswer is answer cached under key, for inputs the graph never
// changes under.
func (r *reference) memoAnswer(key int, q *query) (outcome, error) {
	if o, ok := r.memo[key]; ok {
		return o, nil
	}
	o, err := r.answer(q)
	if err != nil {
		return outcome{}, err
	}
	r.memo[key] = o
	return o, nil
}

// same reports whether a served outcome equals the reference one.
func same(route string, got, want outcome) bool {
	if route == routeCount {
		return got.complete && want.complete && got.count == want.count
	}
	return got.ok == want.ok && got.pairs == want.pairs && got.digest == want.digest
}

// mismatch describes a response that differs from its reference.
func mismatch(s *sample, q *query, got, want outcome) error {
	if s.route == routeCount {
		return fmt.Errorf("request %d (%s %s): count %d (complete %v), reference %d (complete %v)",
			s.id, s.route, q.desc, got.count, got.complete, want.count, want.complete)
	}
	return fmt.Errorf("request %d (%s %s): relation differs from the reference (ok %v, %d pairs; reference ok %v, %d pairs)",
		s.id, s.route, q.desc, got.ok, got.pairs, want.ok, want.pairs)
}

// verifyStaticRun checks the set-up and measured responses of a
// workload whose graph does not change against a reference loaded from
// graphPath.
func verifyStaticRun(graphPath string, checks []*sample, passes []*pass, queryOf func(key int) *query) ([]error, error) {
	g, err := gpm.LoadGraphFile(graphPath)
	if err != nil {
		return nil, err
	}
	ref := newReference(g)
	errs := verifyStatic(ref, checks, queryOf)
	for _, p := range passes {
		errs = append(errs, verifyStatic(ref, p.samples, queryOf)...)
	}
	return errs, nil
}

// verifyStatic checks every sample of a workload whose graph does not
// change against the reference. queryOf maps a sample's key to the
// query it carried. Failed requests are failures (report.count), so
// they are not checked here.
func verifyStatic(ref *reference, samples []*sample, queryOf func(key int) *query) []error {
	var errs []error
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		q := queryOf(s.key)
		want, err := ref.memoAnswer(s.key, q)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if !same(s.route, s.out, want) {
			errs = append(errs, mismatch(s, q, s.out, want))
		}
	}
	return errs
}
