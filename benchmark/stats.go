package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending slice: the smallest value with at least p % of the
// samples at or below it.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// column is f over xs: one number per trial, step or plan.
func column[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spreadPct is (max − min) / median of the trial values, in percent.
func spreadPct(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	return (slices.Max(v) - slices.Min(v)) / m * 100
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the exclusive method): the rule
// the driver accepts a benchmark by.
func quartileSpread(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / m
}
