package bench

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config { return Config{Scale: 0.02, Queries: 4, Seed: 7} }

// tinySweep runs every figure runner once per test binary at tiny():
// entry k is figures[k]'s output, so their concatenation is
// All(tiny()). TestFigureRunnersSmoke, TestComparisonSubset and
// TestFiguresGolden all check this one sweep.
var tinySweep = sync.OnceValue(func() [][]Figure {
	out := make([][]Figure, len(figures))
	for k, f := range figures {
		out[k] = f.run(tiny())
	}
	return out
})

func TestFig2Shape(t *testing.T) {
	fig := Fig2()
	if len(fig.Series) != 4 {
		t.Fatalf("Fig2 series = %d, want 4", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) != 7 {
			t.Fatalf("series %s has %d points", s.Name, len(s.X))
		}
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] > s.Y[i-1]+1e-9 {
				t.Errorf("series %s not non-increasing at l=%g", s.Name, s.X[i])
			}
		}
	}
}

// TestFigureRunnersSmoke checks every experiment of tinySweep, each
// reachable through Runners, for structural invariants: candidates ≥
// results, candidate curves non-increasing in chain length, Ring
// candidates within baseline candidates on the comparison figures.
func TestFigureRunnersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short")
	}
	if Runners["all"] == nil {
		t.Fatal("Runners lacks all")
	}
	for k, fig := range figures {
		name, figs := fig.name, tinySweep()[k]
		if Runners[name] == nil {
			t.Fatalf("Runners lacks %s", name)
		}
		if len(figs) == 0 {
			t.Fatalf("%s produced no figures", name)
		}
		for _, f := range figs {
			if f.ID == "" || len(f.Series) == 0 {
				t.Fatalf("%s produced malformed figure %+v", name, f)
			}
			for _, s := range f.Series {
				if len(s.X) != len(s.Y) {
					t.Fatalf("%s/%s: x/y length mismatch", f.ID, s.Name)
				}
				for _, y := range s.Y {
					if y < 0 {
						t.Fatalf("%s/%s: negative measurement %v", f.ID, s.Name, y)
					}
				}
			}
			// Candidate monotonicity on chain-length figures.
			if f.XLabel == "chain len" && strings.Contains(f.Title, "Candidate") {
				for _, s := range f.Series {
					if !strings.Contains(s.Name, "Cand") {
						continue
					}
					for i := 1; i < len(s.Y); i++ {
						if s.Y[i] > s.Y[i-1]+1e-9 {
							t.Errorf("%s/%s: candidates grew with chain length", f.ID, s.Name)
						}
					}
				}
			}
		}
	}
}

// TestComparisonSubset: on the GPH-vs-Ring and Pars-vs-Ring candidate
// figures of tinySweep, Ring stays within the baseline (Lemma 4
// materialized in the harness).
func TestComparisonSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short")
	}
	var figs []Figure
	for k, f := range figures {
		if f.name == "fig9" || f.name == "fig12" {
			figs = append(figs, tinySweep()[k]...)
		}
	}
	for _, f := range figs {
		if !strings.Contains(f.Title, "Candidate") {
			continue
		}
		base := f.Series[0]
		ring, ok := f.FindSeries("Ring")
		if !ok {
			t.Fatalf("%s: no Ring series", f.ID)
		}
		for i := range ring.X {
			b, ok := base.At(ring.X[i])
			if !ok {
				continue
			}
			if ring.Y[i] > b+1e-9 {
				t.Errorf("%s: Ring candidates %v exceed %s %v at x=%g",
					f.ID, ring.Y[i], base.Name, b, ring.X[i])
			}
		}
	}
}

func TestWriteTable(t *testing.T) {
	fig := Figure{
		ID: "x", Title: "demo", XLabel: "l", YLabel: "y",
		Notes:  []string{"a note"},
		Series: []Series{{Name: "s1", X: []float64{1, 2}, Y: []float64{3, 4}}},
	}
	var buf bytes.Buffer
	fig.WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"Figure x", "demo", "a note", "s1"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
