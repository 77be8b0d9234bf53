package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almost(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// population variance is 4; sample variance is 32/7.
	if got := Variance(xs); !almost(got, 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7.0)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if Variance(nil) != 0 || Variance([]float64{3}) != 0 {
		t.Fatal("variance of <2 samples should be 0")
	}
}

func TestStdErr(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	want := StdDev(xs) / math.Sqrt(5)
	if got := StdErr(xs); !almost(got, want, 1e-12) {
		t.Fatalf("StdErr = %v, want %v", got, want)
	}
}

func TestTCritical(t *testing.T) {
	if got := TCritical95(4); !almost(got, 2.776, 1e-9) {
		t.Fatalf("TCritical95(4) = %v", got)
	}
	if got := TCritical95(1000); !almost(got, 1.96, 1e-9) {
		t.Fatalf("TCritical95(1000) = %v", got)
	}
	if !math.IsNaN(TCritical95(0)) {
		t.Fatal("TCritical95(0) should be NaN")
	}
}

func TestCI95FiveSamples(t *testing.T) {
	// Five repetitions, as in the paper's experiments: df=4, t=2.776.
	xs := []float64{10, 12, 11, 9, 13}
	want := 2.776 * StdErr(xs)
	if got := CI95(xs); !almost(got, want, 1e-9) {
		t.Fatalf("CI95 = %v, want %v", got, want)
	}
}

func TestCI95Degenerate(t *testing.T) {
	if CI95([]float64{1}) != 0 {
		t.Fatal("CI95 of single sample should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 2})
	if min != -1 || max != 7 {
		t.Fatalf("MinMax = %v,%v", min, max)
	}
	if min, max := MinMax(nil); min != 0 || max != 0 {
		t.Fatal("MinMax(nil) should be 0,0")
	}
}

func TestHistogram(t *testing.T) {
	counts, lo, width := Histogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5)
	if lo != 0 || !almost(width, 1.8, 1e-9) {
		t.Fatalf("lo=%v width=%v", lo, width)
	}
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != 10 {
		t.Fatalf("histogram lost samples: %v", counts)
	}
}

func TestHistogramConstantData(t *testing.T) {
	counts, _, _ := Histogram([]float64{5, 5, 5}, 3)
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != 3 {
		t.Fatal("constant data mis-binned")
	}
}

// Property: mean lies within [min, max].
func TestMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				// Clamp magnitude so the running sum cannot overflow.
				xs = append(xs, math.Mod(v, 1e12))
			}
		}
		if len(xs) == 0 {
			return true
		}
		min, max := MinMax(xs)
		m := Mean(xs)
		return m >= min-1e-9*math.Abs(min)-1e-9 && m <= max+1e-9*math.Abs(max)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
