// Package stats provides the small statistics toolkit used by BRISK's
// evaluation harness and runtime counters: streaming moments, bounded
// reservoirs with percentiles, and the bucket math of logarithmic
// histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Running accumulates streaming count/mean/variance/min/max using
// Welford's algorithm. The zero value is ready to use.
type Running struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add folds one observation in.
func (r *Running) Add(x float64) {
	if r.n == 0 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the observation count.
func (r *Running) N() uint64 { return r.n }

// Mean returns the sample mean, or 0 with no observations.
func (r *Running) Mean() float64 { return r.mean }

// Var returns the sample variance (n-1 denominator).
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Std returns the sample standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Var()) }

// Min returns the smallest observation, or 0 with none.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observation, or 0 with none.
func (r *Running) Max() float64 { return r.max }

// String summarizes the distribution.
func (r *Running) String() string {
	return fmt.Sprintf("n=%d mean=%.3g std=%.3g min=%.3g max=%.3g",
		r.n, r.Mean(), r.Std(), r.min, r.max)
}

// Reservoir keeps up to a fixed number of observations for exact
// percentile queries; past capacity it keeps a uniform random sample via
// reservoir sampling with a deterministic linear-congruential stream so
// experiments reproduce bit-for-bit.
type Reservoir struct {
	cap   int
	seen  uint64
	vals  []float64
	state uint64
}

// NewReservoir returns a reservoir holding up to capacity samples.
func NewReservoir(capacity int) *Reservoir {
	if capacity < 1 {
		capacity = 1
	}
	return &Reservoir{cap: capacity, state: 0x9E3779B97F4A7C15}
}

func (r *Reservoir) next() uint64 {
	// xorshift64*: deterministic, fast, good enough for sampling.
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Add records one observation.
func (r *Reservoir) Add(x float64) {
	r.seen++
	if len(r.vals) < r.cap {
		r.vals = append(r.vals, x)
		return
	}
	if j := r.next() % r.seen; j < uint64(r.cap) {
		r.vals[j] = x
	}
}

// N returns the total number of observations offered.
func (r *Reservoir) N() uint64 { return r.seen }

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of the retained sample,
// or 0 when empty.
func (r *Reservoir) Quantile(q float64) float64 {
	if len(r.vals) == 0 {
		return 0
	}
	s := append([]float64(nil), r.vals...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Median returns the 50th percentile.
func (r *Reservoir) Median() float64 { return r.Quantile(0.5) }

// LogBuckets is the number of buckets in a logarithmic histogram.
const LogBuckets = 64

// LogBucketIndex returns the logarithmic-histogram bucket for a
// non-negative value: bucket i covers [2^i, 2^(i+1)), with bucket 0
// covering [0, 2). Negative values clamp to bucket 0.
func LogBucketIndex(v float64) int {
	i := 0
	if v > 0 {
		for x := uint64(v); x > 1 && i < LogBuckets-1; x >>= 1 {
			i++
		}
	}
	return i
}

// LogBucketUpper returns the exclusive upper edge of logarithmic bucket i,
// i.e. 2^(i+1).
func LogBucketUpper(i int) float64 {
	if i >= LogBuckets-1 {
		return math.Ldexp(1, LogBuckets)
	}
	return float64(uint64(1) << uint(i+1))
}

// LogBucketQuantile returns an upper bound on the q-th quantile of n
// observations spread over logarithmic buckets, using bucket upper edges.
// It returns 0 when n is 0.
func LogBucketQuantile(buckets []uint64, n uint64, q float64) float64 {
	if n == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(n)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range buckets {
		cum += c
		if cum >= target {
			return LogBucketUpper(i)
		}
	}
	return LogBucketUpper(LogBuckets - 1)
}
