package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// The end-to-end metrics every workload reports. Each workload defines
// its own operation (README.md): a failover event, a wire UPDATE, a
// management command, one simulated second of flows.
const (
	mSetup   = "setup_s"
	mOpP50   = "op_p50_ms"
	mOpP90   = "op_p90_ms"
	mRate    = "rate_per_s"
	mHeap    = "live_heap_mb"
	mAllocKB = "alloc_kb_per_op"
)

// timeSetups builds a workload cfg.setups times, timing each build from
// a collected heap, closes every instance but the last, and returns the
// last with the build times in seconds.
func timeSetups[T any](cfg config, build func() (T, error), closeFn func(T)) (T, []float64, error) {
	var inst T
	times := make([]float64, 0, cfg.setups)
	for i := 0; i < max(1, cfg.setups); i++ {
		if i > 0 {
			// Drop the previous instance so every build starts from
			// the same collected heap.
			closeFn(inst)
			var zero T
			inst = zero
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, err = build()
		if err != nil {
			return inst, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, times, nil
}

// timedRounds runs whole rounds until seconds have passed, marking in
// r where each round's operations end; at least one round runs, and the
// last may end up to one round late.
func timedRounds(seconds float64, r *recorder, round func() error) error {
	for start := time.Now(); ; {
		if err := round(); err != nil {
			return err
		}
		r.roundEnds = append(r.roundEnds, len(r.latMs))
		if time.Since(start).Seconds() >= seconds {
			return nil
		}
	}
}

// recorder accumulates one run's operations.
type recorder struct {
	latMs []float64
	// roundEnds[i] is len(latMs) at the end of round i.
	roundEnds []int
	// rates are the work items per second of each timed piece of work;
	// their median is rate_per_s.
	rates     []float64
	allocB    uint64
	attempted int
	failed    int
	// firstFailure is printed to stderr so a failed run explains itself.
	firstFailure string
}

// fail records a failed operation and keeps the first reason.
func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf(format, args...)
	}
}

// rate records work items done in d.
func (r *recorder) rate(work float64, d time.Duration) {
	if d > 0 {
		r.rates = append(r.rates, work/d.Seconds())
	}
}

// roundP90 is the median over the run's rounds of each round's p90
// latency. A round holds the workload's whole op mix, so its p90 is the
// mix's tail, and the median over rounds keeps a stretch of slow host
// time from moving it.
func (r *recorder) roundP90() float64 {
	var p90s []float64
	lo := 0
	for _, hi := range r.roundEnds {
		if hi > lo {
			p90s = append(p90s, quantile(r.latMs[lo:hi], 0.9))
		}
		lo = hi
	}
	return quantile(p90s, 0.5)
}

// op times fn as one operation: its latency and the bytes it allocated.
func (r *recorder) op(fn func()) time.Duration {
	return r.opWith(func() time.Duration {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	})
}

// opWith records one operation whose latency fn measures itself, with
// the bytes allocated while it ran.
func (r *recorder) opWith(fn func() time.Duration) time.Duration {
	a0 := allocBytes()
	d := fn()
	r.allocB += allocBytes() - a0
	r.attempted++
	r.latMs = append(r.latMs, float64(d.Nanoseconds())/1e6)
	return d
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// liveHeapMB collects the heap and reports what stays in use.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// result builds the run's result line from its metrics. A run is
// correct only if no operation failed; the first failure is printed to
// standard error so a failed run explains itself.
func (r *recorder) result(m map[string]metric) *result {
	if r.firstFailure != "" {
		fmt.Fprintf(os.Stderr, "vnsbench: %d of %d operations failed; first: %s\n", r.failed, r.attempted, r.firstFailure)
	}
	return &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// endToEnd assembles the untraced result; live is the workload
// instance whose heap live_heap_mb measures.
func endToEnd(setups []float64, r *recorder, live any) *result {
	ops := float64(max(1, len(r.latMs)))
	heap := liveHeapMB()
	runtime.KeepAlive(live)
	return r.result(map[string]metric{
		mSetup:   {quantile(setups, 0.5), "s"},
		mOpP50:   {quantile(r.latMs, 0.5), "ms"},
		mOpP90:   {r.roundP90(), "ms"},
		mRate:    {quantile(r.rates, 0.5), "1/s"},
		mHeap:    {heap, "MB"},
		mAllocKB: {float64(r.allocB) / 1024 / ops, "KB"},
	})
}
