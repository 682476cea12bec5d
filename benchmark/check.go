package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/engine"
	"repro/internal/pairs"
	"repro/internal/parallel"
)

// checkOracles verifies the workload's answers against exhaustive
// verification before anything is timed. Per part, for its first
// oracleQueries sampled queries: the ring search (l = 0) and the
// pigeonhole search (l = 1) must both equal the linear scan, and the
// top-k answer must equal the k nearest of the linear scan at the
// ladder's cap; then a self-join over a prefix must equal the
// quadratic scan. Searches go through the same path the timed ops use,
// so on the HTTP workload the server's answers are what is checked.
// Every comparison is one attempted op; mismatches count as failed.
func (e *env) checkOracles() {
	for pi, p := range e.parts {
		ps := p.spec
		nq := min(ps.oracleQueries, len(p.queries))
		parallel.ForEach(nq, workers, func(q int) {
			o := e.opFor(p, q)
			tau := ps.tau
			if o.tau != nil {
				tau = *o.tau
			}
			want := p.corpus.linear(p.queries[q], tau, ps.n)
			for _, chain := range []int{0, 1} {
				e.attempted.Add(1)
				got, err := e.search(o, chain)
				if err != nil {
					e.fail("part %d query %d l=%d: %v", pi, q, chain, err)
				} else if !slices.Equal(got, want) {
					e.fail("part %d query %d l=%d: %d ids, the linear scan has %d", pi, q, chain, len(got), len(want))
				}
			}

			e.attempted.Add(1)
			got, err := e.topk(o)
			if err != nil {
				e.fail("part %d query %d top-k: %v", pi, q, err)
			} else if wantK := nearest(o); !sameResults(got, wantK) {
				e.fail("part %d query %d top-k: got %v, brute force has %v", pi, q, got, wantK)
			}
		})

		e.attempted.Add(1)
		if err := checkJoin(p); err != nil {
			e.fail("part %d join: %v", pi, err)
		}
	}
}

// nearest is the brute-force top-k answer for o: the k smallest
// (distance, id) among everything the linear scan finds within the
// ladder's cap.
func nearest(o op) []engine.Result {
	p, q := o.part, o.part.queries[o.q]
	limit := p.spec.tau
	if o.topkCap != nil {
		limit = *o.topkCap
	}
	var all []engine.Result
	for _, id := range p.corpus.linear(q, limit, p.spec.n) {
		all = append(all, engine.Result{ID: id, Distance: p.corpus.distance(q, id)})
	}
	slices.SortFunc(all, func(a, b engine.Result) int {
		return cmp.Or(cmp.Compare(a.Distance, b.Distance), cmp.Compare(a.ID, b.ID))
	})
	return all[:min(topK, len(all))]
}

// sameResults compares ranked answers; set distances are 1−Jaccard in
// floating point, so they get a rounding allowance.
func sameResults(a, b []engine.Result) bool {
	return slices.EqualFunc(a, b, func(x, y engine.Result) bool {
		return x.ID == y.ID && math.Abs(x.Distance-y.Distance) < 1e-9
	})
}

// checkJoin joins the first joinOracleN objects of p through a fresh
// index and compares with the pairs the linear scan finds row by row.
func checkJoin(p *part) error {
	ps := p.spec
	n := min(ps.joinOracleN, ps.n)
	ix, err := p.corpus.build(n, ps.joinTau, ps.joinShards)
	if err != nil {
		return err
	}
	got, _, err := ix.(engine.Joiner).Join(context.Background(), engine.JoinOptions{})
	if err != nil {
		return err
	}
	rows := make([][]int64, n)
	parallel.ForEach(n, workers, func(j int) {
		rows[j] = p.corpus.linear(p.corpus.query(j), ps.joinTau, j)
	})
	var want []engine.Pair
	for j, ids := range rows {
		for _, i := range ids {
			want = append(want, engine.Pair{I: i, J: int64(j)})
		}
	}
	pairs.Sort[int64](want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("index join has %d pairs, the quadratic scan %d", len(got), len(want))
	}
	return nil
}
