// Package bench is the experiment harness that regenerates every
// figure of the pigeonring paper's evaluation (Figures 2 and 5–12) on
// the synthetic stand-in datasets. Each runner returns Figure values —
// named series of (x, y) points — that cmd/experiments renders as text
// tables.
//
// Dataset sizes default to laptop scale (the paper used 80M–1B-point
// datasets on a 3.2 GHz Xeon); set REPRO_SCALE to grow them and
// REPRO_QUERIES to change the per-setting query count.
package bench

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"time"
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

// DefaultConfig returns laptop-scale defaults, overridable through the
// REPRO_SCALE and REPRO_QUERIES environment variables.
func DefaultConfig() Config {
	c := Config{Scale: 1, Queries: 50, Seed: 42}
	if v := os.Getenv("REPRO_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			c.Scale = f
		}
	}
	if v := os.Getenv("REPRO_QUERIES"); v != "" {
		if q, err := strconv.Atoi(v); err == nil && q > 0 {
			c.Queries = q
		}
	}
	return c
}

func (c Config) n(base int) int {
	n := int(float64(base) * c.Scale)
	if n < 10 {
		n = 10
	}
	return n
}

func (c Config) queries(cap int) int {
	q := c.Queries
	if q > cap {
		q = cap
	}
	if q < 1 {
		q = 1
	}
	return q
}

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

// WriteTable renders the figure as an aligned text table, one x-value
// per row and one series per column.
func (f Figure) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Figure %s — %s\n", f.ID, f.Title)
	for _, n := range f.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	// Collect the union of x values in first-seen order.
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
	fmt.Fprintf(w, "  %-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, " %20s", s.Name)
	}
	fmt.Fprintln(w)
	for _, x := range xs {
		fmt.Fprintf(w, "  %-12g", x)
		for _, s := range f.Series {
			y, ok := s.at(x)
			if !ok {
				fmt.Fprintf(w, " %20s", "-")
			} else {
				fmt.Fprintf(w, " %20.4g", y)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

func (s Series) at(x float64) (float64, bool) {
	for i, sx := range s.X {
		if sx == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// At exposes series lookup for tests.
func (s Series) At(x float64) (float64, bool) { return s.at(x) }

// FindSeries returns the series with the given name, if present.
func (f Figure) FindSeries(name string) (Series, bool) {
	for _, s := range f.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

// timed runs fn and returns its duration in milliseconds.
func timed(fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// runner accumulates per-query measurements and converts them to
// series points.
type accum struct {
	candidates float64
	results    float64
	timeMS     float64
	queries    int
}

func (a *accum) add(cand, res int, ms float64) {
	a.candidates += float64(cand)
	a.results += float64(res)
	a.timeMS += ms
	a.queries++
}

func (a *accum) avgCand() float64 { return a.candidates / float64(a.queries) }
func (a *accum) avgRes() float64  { return a.results / float64(a.queries) }
func (a *accum) avgMS() float64   { return a.timeMS / float64(a.queries) }
