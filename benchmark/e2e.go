package main

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// roundStats is one closed-loop round: its wall time and per-op
// latencies in µs, indexed by op.
type roundStats struct {
	wall time.Duration
	lat  []float64
}

func (r roundStats) opsPerS() float64 { return float64(len(r.lat)) / r.wall.Seconds() }

// runRound drives ops [0, len(want)) of the kind's schedule from the
// closed loop's clients, each taking the next op as soon as its
// previous one returned, and checks each answer's hash against want, so
// any run-to-run divergence counts as a failed op. A warm-up round
// (learn non-nil) instead records the hashes, and stops after
// learn.round once it has done learn.roundOps ops.
func (e *env) runRound(kind int, want []uint64, learn *scale) roundStats {
	lat := make([]float64, len(want))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if learn != nil && int(next.Load()) >= learn.roundOps && time.Since(start) > learn.round {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(want) {
					return
				}
				o := e.opAt(i)
				t0 := time.Now()
				var sum uint64
				var err error
				if kind == kindTopK {
					var res []engine.Result
					res, err = e.topk(o)
					lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
					sum = hashResults(res)
				} else {
					var ids []int64
					ids, err = e.search(o, 0)
					lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
					sum = hashIDs(ids)
				}
				e.attempted.Add(1)
				switch {
				case err != nil:
					e.fail("op %d: %v", i, err)
				case learn != nil:
					want[i] = sum
				case want[i] != sum:
					e.fail("op %d: answer differs from the warm-up round's", i)
				}
			}
		}()
	}
	wg.Wait()
	return roundStats{wall: time.Since(start), lat: lat[:min(int(next.Load()), len(want))]}
}

// phase is a search or top-k phase: the op count and answers its
// warm-up round fixed, and every measured round.
type phase struct {
	kind   int
	want   []uint64
	rounds []roundStats
}

// maxRoundOps caps a round so the answer table stays small even if a
// future kernel is 100× faster.
const maxRoundOps = 100_000

// warmUp runs the phase's schedule for the given time and thereby
// fixes the op count of the measured rounds, which then repeat exactly
// those ops.
func (e *env) warmUp(kind int, sc scale) *phase {
	want := make([]uint64, maxRoundOps)
	runtime.GC()
	warm := e.runRound(kind, want, &sc)
	// Whole mix cycles only, so every round sees the same problem mix.
	n := len(warm.lat)
	if cycle := len(e.spec.mix); n > cycle {
		n -= n % cycle
	}
	return &phase{kind: kind, want: want[:n]}
}

func (e *env) measure(ph *phase) {
	runtime.GC()
	ph.rounds = append(ph.rounds, e.runRound(ph.kind, ph.want, nil))
}

// fastest returns the indexes of the fastest third of rounds, given
// their wall times (every round of a phase does the same work). The
// machines this runs on switch between two speeds a quarter apart,
// every second or so, as neighbours come and go (README.md has the
// trace); a median over rounds lands on either side from run to run,
// while the fastest rounds are reliably the ones the machine ran
// undisturbed, which is the speed of the code.
func fastest(walls []time.Duration) []int {
	idx := make([]int, len(walls))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(walls[a], walls[b]) })
	return idx[:(len(idx)+2)/3]
}

// summary is a phase's reported figures: throughput and latency
// percentiles over the pooled ops of its fastest rounds, and the
// spread of per-round throughput over all rounds — how unsteady the
// machine was.
type summary struct {
	perS, p50, p99, spread float64
}

func (ph *phase) summarize() summary {
	walls := make([]time.Duration, len(ph.rounds))
	rates := make([]float64, len(ph.rounds))
	for i, r := range ph.rounds {
		walls[i], rates[i] = r.wall, r.opsPerS()
	}
	var wall time.Duration
	var lat []float64
	for _, i := range fastest(walls) {
		wall += walls[i]
		lat = append(lat, ph.rounds[i].lat...)
	}
	return summary{
		perS:   float64(len(lat)) / wall.Seconds(),
		p50:    percentile(lat, 0.50),
		p99:    percentile(lat, 0.99),
		spread: spread(rates),
	}
}

// timedJoin runs one join op after a GC and returns its wall time.
func (e *env) timedJoin() (rows int, sum uint64, wall time.Duration) {
	runtime.GC()
	t0 := time.Now()
	rows, sum, err := e.joinOnce()
	wall = time.Since(t0)
	e.attempted.Add(1)
	if err != nil {
		e.fail("join: %v", err)
	}
	return rows, sum, wall
}

// e2eResult is one untraced run of a workload.
type e2eResult struct {
	search, topk *phase
	joinRows     int
	joins        []time.Duration // wall time of each measured join op
}

// joinSummary is the join phase's rows per second over its fastest
// joins, and the spread over all.
func (r e2eResult) joinSummary() summary {
	rates := make([]float64, len(r.joins))
	for i, w := range r.joins {
		rates[i] = float64(r.joinRows) / w.Seconds()
	}
	var wall time.Duration
	best := fastest(r.joins)
	for _, i := range best {
		wall += r.joins[i]
	}
	return summary{perS: float64(r.joinRows*len(best)) / wall.Seconds(), spread: spread(rates)}
}

// scale sizes the pieces of a run that are not sized by its workload;
// the package test shrinks them. A run has at least minRounds measured
// rounds of each phase whatever its budget.
type scale struct {
	// setup is how long prepare keeps repeating a cheap set-up to
	// steady its median (between minSetups and maxSetups times).
	setup time.Duration
	// round is the length of one closed-loop round of the untraced
	// run, roundOps the floor on its op count: with six rounds of 200
	// a phase has ten timed ops beyond its p99 even on the slowest ops.
	round    time.Duration
	roundOps int
	// passOps is the op count of every closed-loop pass of the traced
	// run: whole cycles of every mix and τ cycle in each fifth of it.
	passOps  int
	openLoop time.Duration // the traced run's open-loop phase
}

var fullScale = scale{
	setup: 1500 * time.Millisecond,
	round: 400 * time.Millisecond, roundOps: 200,
	passOps: 480, openLoop: 2 * time.Second,
}

const minRounds = 6

// runE2E measures the workload's end-to-end metrics in about the given
// time. A warm-up round of each phase comes first — one join, then
// sc.round each of search and top-k, which fixes their op counts.
// The measured rounds then interleave — join, search round, top-k
// round, over and over — so that each phase's rounds span the whole
// run and sample every speed the machine had during it.
func runE2E(e *env, seconds float64, sc scale) e2eResult {
	end := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	rows, wantPairs, _ := e.timedJoin()
	res := e2eResult{joinRows: rows}
	res.search = e.warmUp(kindSearch, sc)
	res.topk = e.warmUp(kindTopK, sc)
	for r := 0; r < minRounds || time.Now().Before(end); r++ {
		if _, sum, wall := e.timedJoin(); sum != wantPairs {
			e.fail("join %d: pairs differ from the warm-up join's", r)
		} else {
			res.joins = append(res.joins, wall)
		}
		e.measure(res.search)
		e.measure(res.topk)
	}
	return res
}
