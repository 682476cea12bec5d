// Package bench is the experiment harness that regenerates every
// figure of the pigeonring paper's evaluation (Figures 2 and 5–12) on
// the synthetic stand-in datasets. Each runner returns Figure values —
// named series of (x, y) points — that cmd/experiments renders as text
// tables.
//
// Figures 5–12 come in two sweep shapes, each one loop here: chain
// length l at fixed thresholds (chain, Figures 5–8) and a baseline
// against Ring over a threshold sweep (compare, Figures 9–12). A
// backend supplies only its corpora and its methods.
//
// Dataset sizes default to laptop scale (the paper used 80M–1B-point
// datasets on a 3.2 GHz Xeon); Config.Scale grows them and
// Config.Queries sets the per-setting query count.
package bench

import (
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/dataset"
)

// Config controls workload sizes.
type Config struct {
	// Scale multiplies every dataset size.
	Scale float64
	// Queries is the number of sampled queries per setting.
	Queries int
	// Seed drives all dataset generation.
	Seed int64
}

// DefaultConfig returns laptop-scale defaults.
func DefaultConfig() Config { return Config{Scale: 1, Queries: 50, Seed: 42} }

func (c Config) n(base int) int { return max(10, int(float64(base)*c.Scale)) }

func (c Config) queries(cap int) int { return max(1, min(c.Queries, cap)) }

// Series is one curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a reproduced plot: an id matching the paper ("5a"), a
// title, axis labels and the curves.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// xs returns the union of the series' x values in first-seen order:
// the rows of the figure's table and CSV.
func (f Figure) xs() []float64 {
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range f.Series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	return xs
}

// WriteTable renders the figure as an aligned text table, one x-value
// per row and one series per column.
func (f Figure) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Figure %s — %s\n", f.ID, f.Title)
	for _, n := range f.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  %-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, " %20s", s.Name)
	}
	fmt.Fprintln(w)
	for _, x := range f.xs() {
		fmt.Fprintf(w, "  %-12g", x)
		for _, s := range f.Series {
			if y, ok := s.At(x); ok {
				fmt.Fprintf(w, " %20.4g", y)
			} else {
				fmt.Fprintf(w, " %20s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// At returns the series' y value at x, if the series has a point there.
func (s Series) At(x float64) (float64, bool) {
	for i, sx := range s.X {
		if sx == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// FindSeries returns the series with the given name, if present.
func (f Figure) FindSeries(name string) (Series, bool) {
	for _, s := range f.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

func (s *Series) add(x, y float64) { s.X, s.Y = append(s.X, x), append(s.Y, y) }

// method is one search configuration. probe runs it on sampled query i,
// with verification or filter-only, and returns the query's candidates,
// its results and, for a two-stage filter, the first stage's
// candidates.
type method struct {
	name     string
	twoStage bool
	probe    func(i int, verify bool) (cand, res, stage1 int)
}

// cell is one method's per-query averages over the sampled queries,
// indexed by yCand, yRes, yStage1 and yMS.
type cell [4]float64

const (
	yCand = iota
	yRes
	yStage1
	yMS
)

// measure runs each method once over queries 0…nq−1, every method on
// the same queries, and times each method's pass as one block.
func measure(nq int, methods []method, verify bool) []cell {
	cells := make([]cell, len(methods))
	for k, m := range methods {
		c := &cells[k]
		start := time.Now()
		for i := 0; i < nq; i++ {
			cand, res, stage1 := m.probe(i, verify)
			c[yCand], c[yRes], c[yStage1] = c[yCand]+float64(cand), c[yRes]+float64(res), c[yStage1]+float64(stage1)
		}
		c[yMS] = float64(time.Since(start).Nanoseconds()) / 1e6
		for j := range c {
			c[j] /= float64(nq)
		}
	}
	return cells
}

// corpus is one dataset of a figure pair: the ids of its candidate and
// time panels, and the methods to run at a threshold. For chain,
// methods(τ)[k] is Ring with chain length k+1; for compare, the
// baselines come first and Ring last.
type corpus struct {
	name    string
	ids     [2]string
	nq      int
	methods func(tau float64) []method
}

const (
	candLabel = "avg #candidates"
	timeLabel = "avg search time (ms)"
)

// chain builds the chain-length pair of figures: candidates and results
// against l at each of candTaus, and total and filter-only ("Cand.")
// time against l at each of timeTaus. A τ in both lists is measured
// once.
func chain(c corpus, candTaus, timeTaus []float64) []Figure {
	cands := Figure{ID: c.ids[0], Title: c.name + ", Candidate", XLabel: "chain len", YLabel: candLabel}
	times := Figure{ID: c.ids[1], Title: c.name + ", Time", XLabel: "chain len", YLabel: timeLabel}
	full, filter := map[float64][]cell{}, map[float64][]cell{}
	for _, tau := range slices.Concat(candTaus, timeTaus) {
		if full[tau] != nil {
			continue
		}
		ms := c.methods(tau)
		full[tau] = measure(c.nq, ms, true)
		if slices.Contains(timeTaus, tau) {
			filter[tau] = measure(c.nq, ms, false)
		}
	}
	line := func(format string, tau float64, cells []cell, y int) Series {
		s := Series{Name: fmt.Sprintf(format, tau)}
		for k, m := range cells {
			s.add(float64(k+1), m[y])
		}
		return s
	}
	for _, tau := range candTaus {
		cands.Series = append(cands.Series,
			line("tau=%g Cand.", tau, full[tau], yCand), line("tau=%g Res.", tau, full[tau], yRes))
	}
	for _, tau := range timeTaus {
		times.Series = append(times.Series,
			line("tau=%g Total", tau, full[tau], yMS), line("tau=%g Cand.", tau, filter[tau], yMS))
	}
	return []Figure{cands, times}
}

// compare builds the baseline-vs-Ring pair of figures over taus: each
// method's candidates (a two-stage method's "Cand-1" and "Cand-2"),
// then the last method's results as "#Results", and each method's time.
func compare(c corpus, taus []float64) []Figure {
	cands := Figure{ID: c.ids[0], Title: "Candidate, " + c.name, XLabel: "threshold", YLabel: candLabel}
	times := Figure{ID: c.ids[1], Title: "Time, " + c.name, XLabel: "threshold", YLabel: timeLabel}
	var ms []method
	rows := make([][]cell, len(taus))
	for i, tau := range taus {
		ms = c.methods(tau)
		rows[i] = measure(c.nq, ms, true)
	}
	line := func(name string, k, y int) Series {
		s := Series{Name: name}
		for i, tau := range taus {
			s.add(tau, rows[i][k][y])
		}
		return s
	}
	for k, m := range ms {
		if m.twoStage {
			cands.Series = append(cands.Series, line(m.name+" Cand-1", k, yStage1), line(m.name+" Cand-2", k, yCand))
		} else {
			cands.Series = append(cands.Series, line(m.name, k, yCand))
		}
		times.Series = append(times.Series, line(m.name, k, yMS))
	}
	cands.Series = append(cands.Series, line("#Results", len(ms)-1, yRes))
	return []Figure{cands, times}
}

// on fixes a figure's method list to one corpus's data.
func on[D any](d D, methods func(D, float64) []method) func(float64) []method {
	return func(tau float64) []method { return methods(d, tau) }
}

// sample returns the objects at dataset.SampleQueries' indices: the
// same queries for every method of a figure.
func sample[T any](objs []T, q int, seed int64) []T {
	var qs []T
	for _, i := range dataset.SampleQueries(len(objs), q, seed) {
		qs = append(qs, objs[i])
	}
	return qs
}

// check panics on a build or search error: every input here is a
// generated corpus, so an error is a defect of the harness.
func check(err error) {
	if err != nil {
		panic(err)
	}
}
