package main

import (
	"math"
	"sort"
)

// minBeyond is the choosing-metrics rule for tails: a percentile is
// reported only when at least this many samples lie beyond it.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (mean of the two middles for an even
// count), or 0 for no samples (callers report the sample count beside it).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is nearest-rank over an ascending slice: the smallest sample
// with at least p percent of the samples at or below it (p = 50 is the
// median proper, so the two never disagree on an even count).
func percentile(asc []float64, p float64) float64 {
	n := len(asc)
	if n == 0 {
		return 0
	}
	if p == 50 {
		return median(asc)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return asc[rank-1]
}

// beyond counts the samples strictly above the p-th percentile's rank.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// supportedTail returns the highest of p99, p95, p90 and p75 that leaves
// at least minBeyond of n samples beyond it, or 50 when none does: with
// fewer than 40 samples the median is the only statistic the rule allows.
func supportedTail(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// spread summarises one metric's per-segment values.
type spread struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(xs []float64) spread {
	if len(xs) == 0 {
		return spread{}
	}
	s := sorted(xs)
	return spread{Median: median(s), Min: s[0], Max: s[len(s)-1], N: len(s)}
}
