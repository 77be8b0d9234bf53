package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[nearestRank(p, len(sorted))-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n sorted
// samples. The small tolerance keeps 99.9% of 10000 at rank 9990 despite
// the product not being exact in binary.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// tailPercentiles are the candidates highestPercentile picks from.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// highestPercentile picks the highest candidate percentile that still has
// at least ten samples beyond it (a p99 of 200 samples rests on two
// points; the guide's rule keeps such tails out of the report). With
// fewer than twenty samples even the median fails the rule, and the
// median is returned with ok=false so callers can mark it as thin.
func highestPercentile(n int) (p float64, ok bool) {
	p = tailPercentiles[0]
	for _, c := range tailPercentiles {
		if n-nearestRank(c, n) >= 10 {
			p, ok = c, true
		}
	}
	return p, ok
}

// sortedCopy returns an ascending copy of v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (mean of the two middle ones for an
// even count); 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// summary is min/median/max over repetitions of one metric.
type summary struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
}

func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	s := sortedCopy(v)
	return summary{Min: s[0], Median: median(s), Max: s[len(s)-1]}
}

// latencyStats is the standard rendering of a latency sample set: the
// count, the median, the highest percentile the count supports (Tail, the
// TailPct-th; TailOK is false when not even the median has ten samples
// beyond it), and p90, p99 and the maximum as diagnostics. Values are in
// the unit of the input.
type latencyStats struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	P90     float64 `json:"p90"`
	P99     float64 `json:"p99"`
	Max     float64 `json:"max"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
	TailOK  bool    `json:"tail_supported"`
}

func latencies(v []float64) latencyStats {
	if len(v) == 0 {
		return latencyStats{}
	}
	s := sortedCopy(v)
	tp, ok := highestPercentile(len(s))
	return latencyStats{
		N:       len(s),
		P50:     percentile(s, 50),
		P90:     percentile(s, 90),
		P99:     percentile(s, 99),
		Max:     s[len(s)-1],
		Tail:    percentile(s, tp),
		TailPct: tp,
		TailOK:  ok,
	}
}
