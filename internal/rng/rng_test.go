package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds produced %d equal values out of 100", same)
	}
}

func TestDeriveIndependentOfConsumption(t *testing.T) {
	a := New(7)
	childBefore := a.Derive("fs").Uint64()
	for i := 0; i < 100; i++ {
		a.Uint64()
	}
	childAfter := a.Derive("fs").Uint64()
	if childBefore != childAfter {
		t.Fatal("Derive depends on parent consumption state")
	}
}

func TestDeriveDistinctLabels(t *testing.T) {
	a := New(7)
	x := a.Derive("fs").Uint64()
	y := a.Derive("net").Uint64()
	if x == y {
		t.Fatal("distinct labels produced identical child streams")
	}
}

func TestDeriveNDistinct(t *testing.T) {
	a := New(7)
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		v := a.DeriveN("rank", i).Uint64()
		if seen[v] {
			t.Fatalf("DeriveN collision at index %d", i)
		}
		seen[v] = true
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d too far from expected %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(9)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Normal(3, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("normal mean %.4f, want ~3", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("normal stddev %.4f, want ~2", math.Sqrt(variance))
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exponential(0.5)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("exponential mean %.4f, want ~0.5", mean)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(23)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency %.4f", p)
	}
}

func TestUniformRange(t *testing.T) {
	r := New(37)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(-3, 5)
		if v < -3 || v >= 5 {
			t.Fatalf("Uniform(-3,5) out of range: %v", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}
