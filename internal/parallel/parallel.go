// Package parallel is the shared parallel-execution layer of the
// repository: a bounded worker pool with a chunked parallel-for and a
// parallel map, used by every O(n²) hot path (kernel Gram construction,
// dense matmul, cross-validation folds, substrate simulation).
//
// Design constraints, in order:
//
//  1. Determinism. Every routine built on this package must produce
//     output identical to its serial counterpart at any worker count.
//     For therefore only hands out disjoint index ranges — callers write
//     to disjoint elements and never reduce across ranges in
//     nondeterministic order.
//  2. Zero overhead for small problems. For falls back to a plain serial
//     loop when the configured worker count is 1 or the range is below a
//     cutover threshold, so goroutine scheduling never taxes the small
//     matrices that dominate unit tests and warm-up phases.
//  3. One global knob. The worker count defaults to runtime.GOMAXPROCS(0),
//     can be pinned by the REPRO_WORKERS environment variable (read once
//     at startup, used by the CLIs), and can be changed at runtime with
//     SetWorkers (used by tests and benchmarks).
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Pool metrics (see README "Observability & CI"): how often loops stay
// serial vs fan out, how many chunks the pool executes, and the
// configured width of the last parallel launch. Counters are updated
// once per loop or per chunk, never per index.
var (
	forSerialRuns   = obs.GetCounter("parallel.for_serial")
	forParallelRuns = obs.GetCounter("parallel.for_parallel")
	chunksExecuted  = obs.GetCounter("parallel.chunks")
	workersGauge    = obs.GetGauge("parallel.workers")
	occupancyGauge  = obs.GetGauge("parallel.max_occupancy")
)

// workerCount is the configured worker count, always >= 1.
var workerCount atomic.Int64

func init() {
	workerCount.Store(int64(defaultWorkers()))
}

// defaultWorkers resolves the startup worker count: REPRO_WORKERS when set
// to a positive integer, else runtime.GOMAXPROCS(0).
func defaultWorkers() int {
	if s := os.Getenv("REPRO_WORKERS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return runtime.GOMAXPROCS(0)
}

// Workers returns the current worker count.
func Workers() int { return int(workerCount.Load()) }

// SetWorkers sets the worker count, clamping n to at least 1, and returns
// the previous value so callers can restore it:
//
//	defer parallel.SetWorkers(parallel.SetWorkers(4))
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(workerCount.Swap(int64(n)))
}

// minParallel is the smallest index range worth splitting across
// goroutines; below it For runs the loop serially.
const minParallel = 8

// For partitions [0, n) into contiguous sub-ranges and calls fn(lo, hi)
// for each, using up to Workers() goroutines. Ranges are disjoint and
// cover [0, n) exactly once, so fn may write to per-index slots without
// synchronization. fn must not depend on the order or grouping of ranges.
//
// Workers pull fixed-size chunks off a shared counter, so ranges with
// uneven per-index cost (the shrinking rows of a triangular Gram sweep)
// balance across cores without a scheduler. When Workers() <= 1 or
// n < 8, fn is called once as fn(0, n) on the caller's goroutine — the
// serial path, bit-identical by construction.
//
// A panic in any worker is re-raised on the calling goroutine after all
// workers finish.
func For(n int, fn func(lo, hi int)) {
	ForN(n, minParallel, fn)
}

// ForN is For with an explicit cutover: the loop runs serially while
// n < minN. Hot paths pass a cutover sized to their per-index cost.
func ForN(n, minN int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if minN < 1 {
		minN = 1
	}
	if w <= 1 || n < minN {
		forSerialRuns.Inc()
		fn(0, n)
		return
	}
	if w > n {
		w = n
	}
	forParallelRuns.Inc()
	workersGauge.Set(int64(w))
	occupancyGauge.SetMax(int64(w))
	grain := n / (w * 8)
	if grain < 1 {
		grain = 1
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		pval  any
		pseen bool
	)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if !pseen {
						pseen, pval = true, r
					}
					mu.Unlock()
				}
			}()
			chunks := int64(0)
			for {
				hi := int(next.Add(int64(grain)))
				lo := hi - grain
				if lo >= n {
					chunksExecuted.Add(chunks)
					return
				}
				if hi > n {
					hi = n
				}
				chunks++
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
	if pseen {
		panic(pval)
	}
}

// Map computes out[i] = fn(i) for i in [0, n) in parallel and returns the
// slice. fn must be safe for concurrent use; each index is evaluated
// exactly once.
func Map[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = fn(i)
		}
	})
	return out
}

// MapN is Map with an explicit serial cutover, like ForN.
func MapN[T any](n, minN int, fn func(i int) T) []T {
	out := make([]T, n)
	ForN(n, minN, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = fn(i)
		}
	})
	return out
}
