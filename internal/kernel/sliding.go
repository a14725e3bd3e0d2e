package kernel

import (
	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Sliding-window Gram metrics: appended rows, evicted rows, and the
// kernel evaluations spent keeping the window's Gram matrix current.
// Comparing incgram_cells against gram_cells for the same window sizes
// shows the rebuild work the incremental path avoids.
var (
	incGramAppends   = obs.GetCounter("kernel.incgram_appends")
	incGramEvictions = obs.GetCounter("kernel.incgram_evictions")
	incGramCells     = obs.GetCounter("kernel.incgram_cells")
)

// SlidingGram maintains the Gram matrix of a sliding window of samples
// under appends with oldest-first eviction — the kernel-side half of the
// streaming trainer's incremental refresh (ROADMAP item 2): appending a
// sample costs one kernel row (O(n·d)) instead of the O(n²·d) rebuild
// that Gram would pay on every refresh.
//
// Layout: a fixed capacity×capacity backing matrix addressed through a
// ring of physical slots. Eviction is O(1) — the head advances and the
// freed slot is overwritten by the next append; no rows are copied and
// no memory is allocated after construction. Logical index 0 is always
// the oldest sample in the window.
//
// Determinism: each new cell is produced by exactly one kernel
// evaluation, k(new, old) — the newcomer is EvalRows' x and the retained
// samples its rows, one call per contiguous stretch of the ring — and
// written to both symmetric halves, striped over the worker pool, so the
// matrix is bit-identical at any worker count. Gram evaluates the same
// pair as k(old, new). Every kernel in this package is exactly symmetric
// on finite inputs (Dot, Dist2 and min accumulate in index order of the
// vectors, not of the arguments, and (a−b)² equals (b−a)² exactly), so
// the window's matrix is bit-identical to Gram(k, Window()) — the
// sliding_test contract. HistogramIntersection is not symmetric when an
// argument is NaN: minOf(NaN, b) is b, while minOf(b, NaN) is NaN.
//
// Not safe for concurrent use; the streaming loop appends serially.
type SlidingGram struct {
	k    Kernel
	cap  int
	dim  int
	head int // physical slot of logical index 0
	n    int // live window size

	samples *linalg.Matrix // cap×dim ring of sample rows
	gram    *linalg.Matrix // cap×cap ring-addressed Gram storage
}

// NewSlidingGram returns an empty window with the given capacity over
// dim-dimensional samples. Capacity and dim must be positive.
func NewSlidingGram(k Kernel, capacity, dim int) *SlidingGram {
	if capacity <= 0 {
		panic("kernel: SlidingGram capacity must be positive")
	}
	if dim <= 0 {
		panic("kernel: SlidingGram dim must be positive")
	}
	return &SlidingGram{
		k:       k,
		cap:     capacity,
		dim:     dim,
		samples: linalg.NewMatrix(capacity, dim),
		gram:    linalg.NewMatrix(capacity, capacity),
	}
}

// Len returns the live window size (≤ capacity).
func (s *SlidingGram) Len() int { return s.n }

// Cap returns the window capacity.
func (s *SlidingGram) Cap() int { return s.cap }

// slot maps a logical window index to its physical ring slot.
func (s *SlidingGram) slot(i int) int { return (s.head + i) % s.cap }

// Col returns K(·, j) for logical index j in logical order, as at most
// two contiguous slices split where the ring wraps (the same split for
// every j). The matrix is exactly symmetric, so this is ring row
// slot(j). The slices alias the ring, capped at their length, until
// the next Append.
func (s *SlidingGram) Col(j int) (lo, hi []float64) {
	row := s.gram.Row(s.slot(j))
	if end := s.head + s.n; end <= s.cap {
		return row[s.head:end:end], nil
	}
	wrap := s.head + s.n - s.cap
	return row[s.head:s.cap:s.cap], row[:wrap:wrap]
}

// Sample returns the stored sample at logical index i. The slice aliases
// the ring storage and is invalidated by the append that evicts row i.
func (s *SlidingGram) Sample(i int) []float64 {
	return s.samples.Row(s.slot(i))
}

// Append adds x to the window, evicting the oldest sample when the
// window is full, and computes the new sample's kernel row against every
// retained sample. Reports whether an eviction happened.
func (s *SlidingGram) Append(x []float64) (evicted bool) {
	if len(x) != s.dim {
		panic("kernel: SlidingGram sample dimension mismatch")
	}
	var slot int
	if s.n < s.cap {
		slot = s.slot(s.n)
		s.n++
	} else {
		// O(1) eviction: logical index 0 leaves, its slot hosts the
		// newcomer, and the head advances one position.
		slot = s.head
		s.head = (s.head + 1) % s.cap
		evicted = true
		incGramEvictions.Inc()
	}
	copy(s.samples.Row(slot), x)
	xi := s.samples.Row(slot)
	// The new row: every pair is evaluated as k(new, old), which equals
	// the k(old, new) a full rebuild computes (see the type's doc).
	prior := s.n - 1
	if evicted {
		prior = s.cap - 1
	}
	// The serial case calls the row sweep directly — no closure, no
	// goroutines — so a steady-state Append is allocation-free (the
	// ring storage never grows after construction; the alloc-regression
	// gate in alloc_test.go pins this at 0 allocs/op). The parallel
	// case stripes the identical sweep, bit-identical by construction.
	if parallel.Workers() <= 1 || prior < gramCutover {
		s.appendRange(slot, xi, 0, prior)
	} else {
		parallel.ForN(prior, gramCutover, func(lo, hi int) {
			s.appendRange(slot, xi, lo, hi)
		})
	}
	s.gram.Set(slot, slot, s.k.Eval(xi, xi))
	incGramCells.Inc()
	incGramAppends.Inc()
	return evicted
}

// appendRange evaluates the new sample's kernel row against retained
// logical indices [lo, hi), writing both symmetric halves. The indices
// occupy at most two physical stretches of the ring (split where it
// wraps); each is one EvalRows call into row slot, then mirrored into
// column slot.
func (s *SlidingGram) appendRange(slot int, xi []float64, lo, hi int) {
	row := s.gram.Row(slot)
	for i := lo; i < hi; {
		p := s.slot(i)
		end := p + min(hi-i, s.cap-p)
		EvalRows(s.k, xi, s.samples.Data[p*s.dim:end*s.dim], row[p:end])
		for q := p; q < end; q++ {
			s.gram.Set(q, slot, row[q])
		}
		i += end - p
	}
	incGramCells.Add(int64(hi - lo))
}

// Window materializes the live window as a fresh n×dim matrix in logical
// order (oldest first) — the sample matrix a refresh trains on.
func (s *SlidingGram) Window() *linalg.Matrix {
	out := linalg.NewMatrix(s.n, s.dim)
	s.WindowInto(out)
	return out
}

// WindowInto copies the live window into dst (Len()×dim, logical order,
// oldest first), so refresh loops can reuse a pooled buffer instead of
// materializing a fresh matrix every cycle.
func (s *SlidingGram) WindowInto(dst *linalg.Matrix) {
	if dst.Rows != s.n || dst.Cols != s.dim {
		panic("kernel: WindowInto destination shape mismatch")
	}
	for i := 0; i < s.n; i++ {
		copy(dst.Row(i), s.Sample(i))
	}
}

// Reset empties the window without releasing storage.
func (s *SlidingGram) Reset() {
	s.head, s.n = 0, 0
}
