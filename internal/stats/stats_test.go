package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Var() != 0 || r.N() != 0 {
		t.Fatal("zero value not neutral")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(v)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d", r.N())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", r.Mean())
	}
	// Sample variance of that classic set is 32/7.
	if math.Abs(r.Var()-32.0/7.0) > 1e-9 {
		t.Fatalf("var = %v, want %v", r.Var(), 32.0/7.0)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("min/max = %v/%v", r.Min(), r.Max())
	}
	if !strings.Contains(r.String(), "n=8") {
		t.Errorf("String() = %q", r.String())
	}
}

func TestRunningSingleAndNegative(t *testing.T) {
	var r Running
	r.Add(-3)
	if r.Mean() != -3 || r.Min() != -3 || r.Max() != -3 || r.Var() != 0 {
		t.Fatalf("single obs: %v", r.String())
	}
}

func TestRunningMatchesDirectComputation(t *testing.T) {
	f := func(vals []float64) bool {
		clean := vals[:0]
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				clean = append(clean, v)
			}
		}
		if len(clean) < 2 {
			return true
		}
		var r Running
		sum := 0.0
		for _, v := range clean {
			r.Add(v)
			sum += v
		}
		mean := sum / float64(len(clean))
		var ss float64
		for _, v := range clean {
			ss += (v - mean) * (v - mean)
		}
		wantVar := ss / float64(len(clean)-1)
		return math.Abs(r.Mean()-mean) < 1e-6 && math.Abs(r.Var()-wantVar) < 1e-4*(1+wantVar)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReservoirExactWhenSmall(t *testing.T) {
	r := NewReservoir(100)
	for i := 1; i <= 99; i++ {
		r.Add(float64(i))
	}
	if r.Median() != 50 {
		t.Fatalf("median = %v, want 50", r.Median())
	}
	if r.Quantile(0) != 1 || r.Quantile(1) != 99 {
		t.Fatalf("extremes = %v, %v", r.Quantile(0), r.Quantile(1))
	}
	if got := r.Quantile(0.25); math.Abs(got-25.5) > 0.5 {
		t.Fatalf("q25 = %v", got)
	}
	if r.N() != 99 {
		t.Fatalf("N = %d", r.N())
	}
}

func TestReservoirEmpty(t *testing.T) {
	r := NewReservoir(10)
	if r.Quantile(0.5) != 0 {
		t.Fatal("empty quantile should be 0")
	}
}

func TestReservoirSamplingStaysInRange(t *testing.T) {
	r := NewReservoir(64)
	for i := 0; i < 100000; i++ {
		r.Add(float64(i % 1000))
	}
	med := r.Median()
	// The median of uniform 0..999 should be near 500 even when sampled.
	if med < 300 || med > 700 {
		t.Fatalf("sampled median drifted: %v", med)
	}
	if len(r.vals) != 64 {
		t.Fatalf("reservoir grew: %d", len(r.vals))
	}
}

func TestReservoirDeterministic(t *testing.T) {
	r1 := NewReservoir(16)
	r2 := NewReservoir(16)
	for i := 0; i < 10000; i++ {
		r1.Add(float64(i))
		r2.Add(float64(i))
	}
	if r1.Median() != r2.Median() {
		t.Fatal("reservoir sampling not deterministic")
	}
}

func TestReservoirMinCapacity(t *testing.T) {
	r := NewReservoir(0)
	r.Add(5)
	if r.Quantile(0.5) != 5 {
		t.Fatal("capacity clamp broken")
	}
}

// buckets spreads observations over logarithmic buckets as a histogram
// built on this package's bucket math does.
func buckets(vs ...float64) []uint64 {
	b := make([]uint64, LogBuckets)
	for _, v := range vs {
		b[LogBucketIndex(v)]++
	}
	return b
}

func TestLogBucketIndex(t *testing.T) {
	for _, c := range []struct {
		v    float64
		want int
	}{{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 1}, {1000, 9}, {1024, 10}, {math.MaxFloat64, LogBuckets - 1}} {
		if got := LogBucketIndex(c.v); got != c.want {
			t.Errorf("LogBucketIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestLogBucketQuantile(t *testing.T) {
	vs := make([]float64, 0, 101)
	for i := 0; i < 100; i++ {
		vs = append(vs, 1) // bucket [0,2)
	}
	vs = append(vs, 1000) // bucket [512,1024) upper edge 1024
	b := buckets(vs...)
	if q := LogBucketQuantile(b, 101, 0.5); q != 2 {
		t.Fatalf("q50 = %v, want 2", q)
	}
	if q := LogBucketQuantile(b, 101, 1.0); q != 1024 {
		t.Fatalf("q100 = %v, want 1024", q)
	}
}

func TestLogBucketQuantileEmpty(t *testing.T) {
	if q := LogBucketQuantile(buckets(), 0, 0.9); q != 0 {
		t.Fatalf("empty q90 = %v, want 0", q)
	}
}

func TestLogBucketQuantileMonotone(t *testing.T) {
	vs := make([]float64, 0, 1000)
	for i := 0; i < 1000; i++ {
		vs = append(vs, float64(i*37%5000))
	}
	b := buckets(vs...)
	prev := 0.0
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := LogBucketQuantile(b, uint64(len(vs)), q)
		if v < prev {
			t.Fatalf("quantile not monotone at %v: %v < %v", q, v, prev)
		}
		prev = v
	}
}
