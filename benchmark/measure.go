package main

import (
	"math"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// hist is a log-linear histogram of non-negative integers: exact below
// 64, then 64 sub-buckets per power of two (relative width ≤ 1/64).
// Quantiles interpolate inside the bucket, so a reported percentile is a
// continuous value rather than a bucket edge. Not safe for concurrent
// use; each recording goroutine owns one and they are merged at the end.
type hist struct {
	counts [59 * 64]uint64
	n      uint64
}

func histBucket(v int64) int {
	if v < 64 {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	return (e-5)*64 + int(uint64(v)>>(e-6))&63
}

// bucketBounds returns the bucket's lowest value and its width.
func bucketBounds(i int) (lo, width float64) {
	if i < 64 {
		return float64(i), 1
	}
	e := i/64 + 5
	return float64(uint64(64+i%64) << (e - 6)), float64(uint64(1) << (e - 6))
}

func (h *hist) add(v int64) {
	h.counts[histBucket(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-th quantile, or 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := bucketBounds(i)
			return lo + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := bucketBounds(len(h.counts) - 1)
	return lo + width
}

// median returns the middle of xs (mean of the two middle values for an
// even count), or 0 when empty. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// cpuTime is the process's CPU time so far, in user and in system mode.
func cpuTime() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark (Linux
// reports ru_maxrss in KiB; it is the same number as VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// environment identifies the box and build a report came from, so sets
// from different boxes are never compared silently.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnvironment() environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// meter is what a workload's consumer and the measuring loop share: the
// consumer counts every delivered record and, while measuring is set,
// samples latencies into its histogram.
type meter struct {
	t0        time.Time   // epoch of the due/send stamps carried in records
	measuring atomic.Bool // set for exactly the measured window
	delivered atomic.Uint64
	offered   atomic.Uint64 // records the generators have offered so far
}

// sinceMicros is the stamp clock: µs since the meter's epoch.
func (m *meter) sinceMicros() int64 { return int64(time.Since(m.t0) / time.Microsecond) }

// window is what one measured interval of a live run yields.
type window struct {
	seconds      float64
	delivered    uint64        // records reaching the consumer inside the window
	offered      uint64        // records the generators offered inside the window
	rates        []float64     // records/s per sampling interval
	cpu, cpuSys  time.Duration // user mode, system mode
	mallocs      uint64
	gcPause      time.Duration
	peakRSS      float64 // MiB, the process's high-water mark when the window ended
	backlogMax   int64
	backlogSlope float64 // records/s, least squares over the samples
}

// measure sleeps through the warm-up, then samples the meter (and the
// manager backlog, Received − Emitted) once per interval for the measured
// duration. Latency recording is on exactly for that duration.
func measure(m *meter, warm, dur time.Duration, backlog func() int64) window {
	time.Sleep(warm)
	interval := time.Second
	if dur < 4*interval {
		interval = dur / 4
	}
	n := int(dur / interval)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, sys0 := cpuTime()
	start := time.Now()
	m.measuring.Store(true)
	first, offered0 := m.delivered.Load(), m.offered.Load()
	prev, prevT := first, start
	w := window{}
	var xs, ys []float64
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * interval)))
		now, d := time.Now(), m.delivered.Load()
		w.rates = append(w.rates, float64(d-prev)/now.Sub(prevT).Seconds())
		prev, prevT = d, now
		b := backlog()
		if b > w.backlogMax {
			w.backlogMax = b
		}
		xs, ys = append(xs, now.Sub(start).Seconds()), append(ys, float64(b))
	}
	m.measuring.Store(false)
	w.peakRSS = peakRSSMiB()
	w.seconds = prevT.Sub(start).Seconds()
	w.delivered = prev - first
	w.offered = m.offered.Load() - offered0
	cpu1, sys1 := cpuTime()
	w.cpu, w.cpuSys = cpu1-cpu0, sys1-sys0
	runtime.ReadMemStats(&ms1)
	w.mallocs = ms1.Mallocs - ms0.Mallocs
	w.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	w.backlogSlope = slope(xs, ys)
	return w
}

// slope is the least-squares slope of ys over xs (0 for fewer than two
// points).
func slope(xs, ys []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	n := float64(len(xs))
	den := n*sxx - sx*sx
	if den == 0 || math.IsNaN(den) {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
