package main

import (
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie beyond a percentile for it
// to count as evidence; a percentile with fewer is withheld in the report.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted:
// the smallest sample with at least a q share of the samples at or below
// it. It returns NaN for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// beyond counts the samples strictly greater than v.
func beyond(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

// median returns the middle of the samples (the mean of the two middle ones
// for an even count), sorting a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// pctLine is one percentile as the report prints it: its value, how many
// samples lie beyond it, and whether that is too few to trust.
type pctLine struct {
	Q        float64
	Value    float64
	Beyond   int
	Withheld bool
}

func pct(sorted []float64, q float64) pctLine {
	v := percentile(sorted, q)
	n := beyond(sorted, v)
	return pctLine{Q: q, Value: v, Beyond: n, Withheld: n < minBeyond}
}
