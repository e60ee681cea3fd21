package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// span is one timed call the benchmark made into a layer: a cell, a
// job, a twin query, a probe repetition. Spans are kept in memory and
// written out when the run ends.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // causing span, -1 for none
	Kind   string  `json:"kind"`   // "pass", "setup", "cell", "job", "twin", "probe"
	Label  string  `json:"label"`
	Start  float64 `json:"start_ms"` // since the run began
	Dur    float64 `json:"dur_ms"`
}

// spanLog collects spans from any goroutine.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a finished span and returns its ID.
func (l *spanLog) add(kind, label string, parent int, start, end time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Kind: kind, Label: label,
		Start: ms(start.Sub(l.t0)), Dur: ms(end.Sub(start)),
	})
	return id
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime is the user+system CPU time of the process and of its
// children that have been waited for.
func cpuTime() time.Duration {
	var t time.Duration
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err == nil {
			t += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		}
	}
	return t
}

// runtime/metrics samples the benchmark reads around each pass.
const (
	mHeapInUse   = "/gc/heap/live:bytes"
	mAllocBytes  = "/gc/heap/allocs:bytes"
	mAllocObjs   = "/gc/heap/allocs:objects"
	mGCCPUSecond = "/cpu/classes/gc/total:cpu-seconds"
)

func readMetrics(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(names))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// passStats is the host cost of one pass over a workload.
type passStats struct {
	Wall      time.Duration
	CPU       time.Duration
	AllocB    float64 // bytes allocated
	AllocObjs float64 // objects allocated
	GCCPU     float64 // seconds of GC CPU (runtime estimate)
	PeakHeapB float64 // highest in-use heap sampled
}

// merge adds another process's cost in the same pass: its allocation
// and GC work add up, and the peak is the larger of the two heaps.
func (ps *passStats) merge(o passStats) {
	ps.AllocB += o.AllocB
	ps.AllocObjs += o.AllocObjs
	ps.GCCPU += o.GCCPU
	ps.PeakHeapB = max(ps.PeakHeapB, o.PeakHeapB)
}

// passMeter measures one pass: wall, CPU, allocation and a sampled
// peak of the in-use heap.
type passMeter struct {
	t0   time.Time
	cpu0 time.Duration
	m0   []float64
	stop chan struct{}
	done chan float64
}

// heapSampleEvery is the in-use heap sampling period: short against
// the fastest cell (milliseconds) and cheap (metrics.Read takes no
// stop-the-world).
const heapSampleEvery = 2 * time.Millisecond

func startPass() *passMeter {
	pm := &passMeter{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := readMetrics(mHeapInUse)[0]
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-pm.stop:
				pm.done <- math.Max(peak, readMetrics(mHeapInUse)[0])
				return
			case <-tick.C:
				peak = math.Max(peak, readMetrics(mHeapInUse)[0])
			}
		}
	}()
	pm.m0 = readMetrics(mAllocBytes, mAllocObjs, mGCCPUSecond)
	pm.cpu0 = cpuTime()
	pm.t0 = time.Now()
	return pm
}

func (pm *passMeter) end() passStats {
	wall := time.Since(pm.t0)
	cpu := cpuTime() - pm.cpu0
	m1 := readMetrics(mAllocBytes, mAllocObjs, mGCCPUSecond)
	close(pm.stop)
	return passStats{
		Wall: wall, CPU: cpu,
		AllocB:    m1[0] - pm.m0[0],
		AllocObjs: m1[1] - pm.m0[1],
		GCCPU:     m1[2] - pm.m0[2],
		PeakHeapB: <-pm.done,
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile is the highest whole percentile with at least ten
// samples beyond it, the tail a sample of n can report honestly (0 when
// n <= 10).
func tailPercentile(n int) int {
	if n <= 10 {
		return 0
	}
	return int(math.Floor(float64(n-10) / float64(n) * 100))
}
