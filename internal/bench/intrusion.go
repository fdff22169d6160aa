package bench

import (
	"slices"
	"strconv"
	"time"

	"brisk"
)

// IntrusionRow is one instrumentation density of the intrusion ablation:
// the paper's first design objective is that the overhead on the target
// application be small and predictable, so that perturbation analyses can
// be performed. The ablation runs a fixed synthetic computation with a
// notice every k iterations and reports the slowdown against the
// uninstrumented run.
type IntrusionRow struct {
	// NoticeEveryK is the instrumentation density (0 = uninstrumented).
	NoticeEveryK int
	// NanosPerIter is the measured cost of one work iteration.
	NanosPerIter float64
	// SlowdownPct is the relative overhead against the baseline.
	SlowdownPct float64
	// PredictedPct is the overhead predicted from the standalone notice
	// cost (E1) — closeness of the two columns is the predictability
	// claim.
	PredictedPct float64
}

// work is the synthetic unit of application computation: enough arithmetic
// to dwarf loop overhead but small enough that instrumenting every few
// iterations is meaningful.
func work(x uint64) uint64 {
	for i := 0; i < 60; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x *= 0x2545F4914F6CDD1D
	}
	return x
}

// benchSink defeats dead-code elimination of the synthetic computation;
// without it the uninstrumented baseline measures an empty loop.
var benchSink uint64

// intrusionSlices is how many slices each density's run is cut into. The
// uninstrumented and instrumented loops alternate slice by slice while the
// manager and node are up, so both see the same machine, and each figure
// is a median over the slices: a slice that something else on the box
// preempted (the drain, the merger, another process) is an outlier the
// median skips, instead of a cost charged to whichever loop it hit.
const intrusionSlices = 100

// RunIntrusion measures instrumentation overhead at several densities.
// Each density's slowdown is the median, over its slices, of the
// instrumented slice's time against the uninstrumented slice's just before
// it; the "never" row is the mean of the three densities' median
// uninstrumented slice.
func RunIntrusion(iters int) ([]IntrusionRow, error) {
	if iters <= 0 {
		iters = 2_000_000
	}
	// Standalone notice cost for the prediction column.
	noticeNanos := RunNoticeCost(iters / 4).SpecializedNanos

	rows := []IntrusionRow{{NoticeEveryK: 0}}
	slice := max(iters/intrusionSlices, 1)
	densities := []int{100, 10, 1}
	for _, k := range densities {
		mgr, err := brisk.StartManager(brisk.ManagerOptions{
			MergeInterval: time.Millisecond,
			BufferRecords: 1024,
			Logf:          quiet,
		})
		if err != nil {
			return nil, err
		}
		node, err := brisk.ConnectNode(brisk.NodeOptions{
			ManagerAddr:   mgr.Addr(),
			FlushInterval: time.Millisecond,
			Logf:          quiet,
		})
		if err != nil {
			mgr.Close()
			return nil, err
		}
		s := node.NewSensor("intr", brisk.SensorOptions{RingBytes: 1 << 22})
		var plain, instrumented, ratio []float64
		var x uint64
		for from := 0; from+slice <= iters; from += slice {
			start := time.Now()
			for i := from; i < from+slice; i++ {
				x = work(x + uint64(i))
			}
			mid := time.Now()
			for i := from; i < from+slice; i++ {
				x = work(x + uint64(i))
				if i%k == 0 {
					s.Notice2i(1, int32(i), int32(x))
				}
			}
			p, q := float64(mid.Sub(start).Nanoseconds()), float64(time.Since(mid).Nanoseconds())
			plain, instrumented, ratio = append(plain, p), append(instrumented, q), append(ratio, q/p)
		}
		benchSink += x
		node.Close()
		mgr.Close()
		base := median(plain) / float64(slice)
		rows[0].NanosPerIter += base / float64(len(densities))
		rows = append(rows, IntrusionRow{
			NoticeEveryK: k,
			NanosPerIter: median(instrumented) / float64(slice),
			SlowdownPct:  100 * (median(ratio) - 1),
			PredictedPct: 100 * (noticeNanos / float64(k)) / base,
		})
	}
	return rows, nil
}

// median returns the middle value of xs, reordering them.
func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// IntrusionTable renders the intrusion ablation.
func IntrusionTable(rows []IntrusionRow) *Table {
	t := &Table{
		Title: "Intrusion ablation: overhead on an instrumented computation " +
			"(paper objective: small, predictable perturbation)",
		Header: []string{"notice every", "ns/iteration", "slowdown %", "predicted %"},
	}
	for _, r := range rows {
		every := "never"
		if r.NoticeEveryK > 0 {
			every = strconv.Itoa(r.NoticeEveryK)
		}
		t.Add(every, r.NanosPerIter, r.SlowdownPct, r.PredictedPct)
	}
	return t
}
