// Package stats provides the small statistical toolbox used by the analysis
// modules: sample moments, Student-t 95% confidence intervals (the error
// bars of Figure 5), percentiles, and fixed-width time binning (the byte
// timelines of Figure 9).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance (n-1 denominator),
// or 0 when fewer than two samples are available.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// StdErr returns the standard error of the mean.
func StdErr(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// tTable95 holds two-sided 95% critical values of Student's t distribution
// indexed by degrees of freedom (index 0 unused). Beyond the table the
// normal approximation 1.96 is used.
var tTable95 = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
	2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
	2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
	2.042,
}

// TCritical95 returns the two-sided 95% Student-t critical value for the
// given degrees of freedom.
func TCritical95(df int) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if df < len(tTable95) {
		return tTable95[df]
	}
	return 1.96
}

// CI95 returns the half-width of the 95% confidence interval of the mean of
// xs using Student's t distribution. With fewer than two samples it
// returns 0 (no interval can be formed).
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return TCritical95(n-1) * StdErr(xs)
}

// MeanCI returns both the mean and the 95% CI half-width.
func MeanCI(xs []float64) (mean, ci float64) {
	return Mean(xs), CI95(xs)
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// MinMax returns the minimum and maximum of xs. It returns (0, 0) for empty
// input.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Histogram counts xs into nbins equal-width bins over [min, max] of the
// data. It returns the bin counts and the bin width.
func Histogram(xs []float64, nbins int) (counts []int, lo, width float64) {
	if len(xs) == 0 || nbins <= 0 {
		return nil, 0, 0
	}
	min, max := MinMax(xs)
	if max == min {
		max = min + 1
	}
	width = (max - min) / float64(nbins)
	counts = make([]int, nbins)
	for _, x := range xs {
		idx := int((x - min) / width)
		if idx >= nbins {
			idx = nbins - 1
		}
		if idx < 0 {
			idx = 0
		}
		counts[idx]++
	}
	return counts, min, width
}
