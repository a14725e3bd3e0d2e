package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets covers the full nonnegative int64 range with power-of-two
// buckets: bucket b holds values v with bits.Len64(v) == b, i.e.
// v in [2^(b-1), 2^b - 1] (bucket 0 holds v <= 0).
const numBuckets = 65

// Histogram is a lock-free exponential (power-of-two bucket) histogram
// over int64 observations — latencies in nanoseconds, sizes in elements.
// It tracks count, sum, min, and max exactly and the distribution at
// power-of-two resolution, which is all that trend tracking across runs
// needs. All methods are safe for concurrent use.
//
// A snapshot taken while writers are active may be internally
// inconsistent by a few in-flight observations (count, sum, and buckets
// are separate atomics); snapshots taken at rest — the manifest path —
// are exact.
type Histogram struct {
	name    string
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0
	max     atomic.Int64 // valid only when count > 0
	buckets [numBuckets]atomic.Int64
}

// GetHistogram returns the histogram registered under name, creating it
// on first use.
func GetHistogram(name string) *Histogram {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	checkKind(name, "histogram")
	h, ok := registry.hists[name]
	if !ok {
		h = &Histogram{name: name}
		h.reset()
		registry.hists[name] = h
	}
	return h
}

// Name returns the registered name.
func (h *Histogram) Name() string { return h.name }

func (h *Histogram) reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// bucketIdx maps an observation to its power-of-two bucket.
func bucketIdx(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketUpper returns the inclusive upper bound of bucket b, saturating
// at MaxInt64.
func BucketUpper(b int) int64 {
	if b <= 0 {
		return 0
	}
	if b >= 63 {
		return math.MaxInt64
	}
	return (int64(1) << b) - 1
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIdx(v)].Add(1)
	casMin(&h.min, v)
	casMax(&h.max, v)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

func casMin(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v >= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

func casMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Timer measures one wall-clock interval into a histogram (in
// nanoseconds). The zero Timer is a no-op, which is what Start returns
// when collection is disabled — so the hot path pays nothing, not even a
// clock read.
type Timer struct {
	h     *Histogram
	start time.Time
}

// Start begins a timing interval on h.
func (h *Histogram) Start() Timer {
	if !enabled.Load() {
		return Timer{}
	}
	return Timer{h: h, start: time.Now()}
}

// Stop records the elapsed time and returns it. On a zero Timer it
// records nothing and returns 0.
func (t Timer) Stop() time.Duration {
	if t.h == nil {
		return 0
	}
	d := time.Since(t.start)
	t.h.ObserveDuration(d)
	return d
}
