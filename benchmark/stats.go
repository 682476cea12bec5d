package main

import (
	"math"
	"slices"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between closest ranks. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// spread is the inter-quartile range of xs as a share of its median,
// with the quartiles Python's statistics.quantiles(xs, n=4) gives (the
// exclusive method) — the figure the acceptance check compares against
// each metric's bound. Fewer than two values have no spread.
func spread(xs []float64) float64 {
	m := len(xs)
	if m < 2 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	quartile := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / math.Abs(med)
}
