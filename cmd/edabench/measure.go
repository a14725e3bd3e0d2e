package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// quantile is the nearest-rank q-quantile of sorted: the smallest sample
// with at least a q share of the samples at or below it. NaN when empty.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1]
}

// tailPercentile is the highest of the usual reporting percentiles that
// has at least ten of n samples beyond it; 0 when even the median has
// fewer. A percentile with fewer samples past it is one sample's noise.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.99, 99.9, 99, 90, 50} {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// chunkQuantile is the median, over k consecutive equal slices of xs, of
// each slice's q-quantile: a burst of host contention spoils the slices
// it covers, not the result.
func chunkQuantile(xs []float64, k int, q float64) float64 {
	var per []float64
	for c := 0; c < k; c++ {
		if lo, hi := c*len(xs)/k, (c+1)*len(xs)/k; hi > lo {
			per = append(per, quantile(sorted(xs[lo:hi]), q))
		}
	}
	return median(per)
}

// obsSnap is an obs registry snapshot keyed by metric name. The serving
// stack counts its own work (batches, cache hits, refreshes) in the
// global registry; per-layer numbers are deltas between two snapshots.
type obsSnap map[string]obs.Metric

func takeObs() obsSnap {
	s := obsSnap{}
	for _, m := range obs.Snapshot() {
		s[m.Name] = m
	}
	return s
}

// count is the growth of a counter since prev.
func (s obsSnap) count(prev obsSnap, name string) int64 {
	return s[name].Value - prev[name].Value
}

// hist is the growth of a histogram's observation count and sum since
// prev.
func (s obsSnap) hist(prev obsSnap, name string) (n, sum int64) {
	return s[name].Count - prev[name].Count, s[name].Sum - prev[name].Sum
}

// mean is the mean of the observations a histogram received since prev;
// 0 when it received none.
func (s obsSnap) mean(prev obsSnap, name string) float64 {
	n, sum := s.hist(prev, name)
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procCPU is the process's user plus system CPU time.
func procCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only a bad argument fails RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample reads the Go runtime counters the benchmark reports.
type runtimeSample struct {
	heapBytes  uint64 // live and not-yet-swept heap objects
	allocBytes uint64 // cumulative heap allocation
	gcCycles   uint64
}

var runtimeNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

// usage measures one phase: process CPU, completed operations and the
// host's speed once a second, peak heap sampled every 100 ms, and
// allocation, GC and obs deltas.
type usage struct {
	ops func() int64 // operations completed so far
	rt  runtimeSample
	obs obsSnap
	sp  *speedometer

	// Written by the sampler goroutine until done is closed.
	peak  uint64
	ticks []tick
	stop  chan struct{}
	done  chan struct{}
}

// tick is the process CPU time, less the speedometer's, the completed
// operations and the speedometer's reading at one instant.
type tick struct {
	at    time.Time
	cpu   time.Duration
	ops   int64
	speed reading
}

func beginUsage(ops func() int64) *usage {
	u := &usage{ops: ops, rt: readRuntime(), obs: takeObs(), sp: startSpeedometer(speedEvery),
		stop: make(chan struct{}), done: make(chan struct{})}
	u.peak = u.rt.heapBytes
	u.ticks = []tick{u.tick()}
	go func() {
		defer close(u.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for n := 1; ; n++ {
			select {
			case <-u.stop:
				return
			case <-t.C:
				u.peak = max(u.peak, readRuntime().heapBytes)
				if n%10 == 0 {
					u.ticks = append(u.ticks, u.tick())
				}
			}
		}
	}()
	return u
}

func (u *usage) tick() tick {
	s := u.sp.read()
	return tick{at: time.Now(), cpu: procCPU() - s.busy, ops: u.ops(), speed: s}
}

// usageDelta is what a phase consumed.
type usageDelta struct {
	ticks      []tick  // one a second, first and last at the phase's ends
	slowdown   float64 // the host's over the whole phase
	peakHeap   uint64
	allocBytes uint64
	gcCycles   uint64
	obsBefore  obsSnap
	obsAfter   obsSnap
}

func (u *usage) end() usageDelta {
	close(u.stop)
	<-u.done
	last := u.tick()
	u.sp.halt()
	ticks := u.ticks
	// A trailing window under half a second is too short to rate alone.
	if n := len(ticks); n > 1 && last.at.Sub(ticks[n-1].at) < 500*time.Millisecond {
		ticks = ticks[:n-1]
	}
	rt := readRuntime()
	return usageDelta{
		ticks:      append(ticks, last),
		slowdown:   slowdown(u.ticks[0].speed, last.speed),
		peakHeap:   max(u.peak, rt.heapBytes),
		allocBytes: rt.allocBytes - u.rt.allocBytes,
		gcCycles:   rt.gcCycles - u.rt.gcCycles,
		obsBefore:  u.obs,
		obsAfter:   takeObs(),
	}
}

// cpuMsPerOp is the median over the phase's one-second windows of CPU
// milliseconds per completed operation; atFullSpeed divides each
// window's by the host's slowdown in that window. A median of windows,
// not a phase total, so a burst that spoils a few windows does not move
// it.
func (d usageDelta) cpuMsPerOp(atFullSpeed bool) float64 {
	var per []float64
	for i := 1; i < len(d.ticks); i++ {
		a, b := d.ticks[i-1], d.ticks[i]
		if ops := b.ops - a.ops; ops > 0 {
			v := ms(b.cpu-a.cpu) / float64(ops)
			if atFullSpeed {
				v /= slowdown(a.speed, b.speed)
			}
			per = append(per, v)
		}
	}
	return median(per)
}

// span is one traced interval. Times are nanoseconds since the tracer
// started; every span of one request or candidate shares its trace ID.
type span struct {
	Trace  uint64 `json:"trace"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id returns a fresh trace or span ID (never 0, which means "none").
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a span and returns its ID.
func (t *tracer) add(trace, parent uint64, name string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	s := span{Trace: trace, Span: t.id(), Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.Span
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stage accumulates the time spent in one loop stage.
type stage struct {
	n   int
	sum time.Duration
}

func (s *stage) add(d time.Duration) { s.n++; s.sum += d }

func (s *stage) meanUs() float64 { return ratio(float64(s.sum)/1e3, float64(s.n)) }
