package bench

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// goldenPath pins every figure All reports at tiny(): ids, titles,
// notes, series names and x values of every panel, and the y values,
// to full precision, of every panel that is not a time panel. The
// candidate and result counts are a pure function of the seed and the
// filter code, so a refactor of the harness leaves every line
// identical. A change that moves filter counts regenerates this file
// from goldenLines and commits it beside its counts-gate diff. There is
// no update flag: rewrite it with a throwaway test in this package.
const goldenPath = "testdata/figures-golden.txt"

// goldenLines renders figs one line per figure header, note and series.
// Time panels keep only their x values: their y values are clock
// readings.
func goldenLines(figs []Figure) []string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var lines []string
	for _, f := range figs {
		lines = append(lines, fmt.Sprintf("figure %s %q x=%q y=%q", f.ID, f.Title, f.XLabel, f.YLabel))
		for _, n := range f.Notes {
			lines = append(lines, "  note "+n)
		}
		clock := strings.Contains(f.YLabel, "time")
		for _, s := range f.Series {
			var b strings.Builder
			fmt.Fprintf(&b, "  %q", s.Name)
			for i, x := range s.X {
				b.WriteString(" " + g(x))
				if !clock {
					b.WriteString("=" + g(s.Y[i]))
				}
			}
			lines = append(lines, b.String())
		}
	}
	return lines
}

// TestFiguresGolden: every figure at tiny(), as tinySweep ran them in
// All's order, renders the recorded lines.
func TestFiguresGolden(t *testing.T) {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := goldenLines(slices.Concat(tinySweep()...))
	if len(got) != len(want) {
		t.Fatalf("%d lines, golden file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
}
