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
// streaming trainer's incremental refresh: a new sample costs one
// kernel row (O(n·d)) instead of the O(n²·d) rebuild that Gram would
// pay on every refresh.
//
// Append only stores the sample in its ring slot. The first Col read
// after appends fills the rows of every still-live pending sample as one
// block, so a sample evicted before the read is never evaluated, and the
// block pays for one pass over the worker pool, not one per append.
//
// Layout: a fixed capacity×capacity backing matrix addressed through a
// ring of physical slots. Eviction is O(1) — the head advances and the
// freed slot is overwritten by the next append; no rows are copied and
// no memory is allocated after construction. Logical index 0 is always
// the oldest sample in the window.
//
// Determinism: each new cell is produced by exactly one kernel
// evaluation, k(newer, older) — the newer sample is EvalRows' x and the
// older samples its rows, one call per contiguous stretch of the ring —
// and written to both symmetric halves, so the matrix is bit-identical
// at any worker count and whichever appends a read follows. Gram
// evaluates the same pair as k(old, new). Every kernel in this package
// is exactly symmetric on finite inputs (Dot, Dist2 and min accumulate
// in index order of the vectors, not of the arguments, and (a−b)²
// equals (b−a)² exactly), so the window's matrix is bit-identical to
// Gram(k, Window()) — the sliding_test contract. HistogramIntersection
// is not symmetric when an argument is NaN: minOf(NaN, b) is b, while
// minOf(b, NaN) is NaN.
//
// Not safe for concurrent use, reads included: a read may fill.
type SlidingGram struct {
	k       Kernel
	cap     int
	dim     int
	head    int // physical slot of logical index 0
	n       int // live window size
	pending int // how many of the newest samples await their Gram rows

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
// slot(j). The first read after appends fills the pending rows first.
// The slices alias the ring, capped at their length, until the next
// Append.
func (s *SlidingGram) Col(j int) (lo, hi []float64) {
	if s.pending > 0 {
		s.fill()
	}
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
// window is full, and leaves its kernel row to the next Col read.
// Reports whether an eviction happened.
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
		// newcomer, and the head advances one position. The pending
		// samples are the newest, so the one leaving is pending only
		// when every sample is.
		slot = s.head
		s.head = (s.head + 1) % s.cap
		evicted = true
		incGramEvictions.Inc()
	}
	copy(s.samples.Row(slot), x)
	s.pending = min(s.pending+1, s.n)
	incGramAppends.Inc()
	return evicted
}

// fill evaluates the pending rows, logical indices [n−pending, n), as
// one block, striped over the worker pool by the older index of each
// cell. The serial case (one worker or a small window) calls the sweep
// directly — no closure, no goroutines — so a steady-state append and
// read is allocation-free (the ring storage never grows after
// construction; the alloc-regression gate in alloc_test.go pins this
// at 0 allocs/op). The parallel case stripes the identical sweep,
// bit-identical by construction.
func (s *SlidingGram) fill() {
	first := s.n - s.pending
	s.pending = 0
	if parallel.Workers() <= 1 || s.n < gramCutover {
		s.fillRange(first, 0, s.n)
		return
	}
	parallel.ForN(s.n, gramCutover, func(lo, hi int) {
		s.fillRange(first, lo, hi)
	})
}

// fillRange writes every cell between a pending sample i ≥ first and a
// sample j in [lo, hi) with j ≤ i. A gramTile of pending rows at a time,
// each row i is evaluated as k(x_i, x_j) into row slot(i) — one EvalRows
// call per physical stretch of the ring — and the tile is then mirrored
// into rows j < i: one contiguous run of writes per row j (split only
// where the ring wraps), read down column slot(j) of the tile, whose
// cache lines serve the next j too, as gramRange mirrors. Workers own
// disjoint j, so no two write the same cell.
func (s *SlidingGram) fillRange(first, lo, hi int) {
	evals := int64(0)
	for b0 := max(first, lo); b0 < s.n; b0 += gramTile {
		b1 := min(b0+gramTile, s.n)
		for i := b0; i < b1; i++ {
			evals += int64(s.evalRow(i, lo, min(hi, i+1)))
		}
		for j := lo; j < min(hi, b1-1); j++ {
			sj := s.slot(j)
			row := s.gram.Row(sj)
			i := max(b0, j+1)
			for p := s.slot(i); i < b1; i++ {
				row[p] = s.gram.Data[p*s.cap+sj]
				if p++; p == s.cap {
					p = 0
				}
			}
		}
	}
	incGramCells.Add(evals)
}

// evalRow evaluates k(x_i, x_j) for logical j in [lo, hi) into ring row
// slot(i), one EvalRows call per physical stretch of the ring, and
// returns the number of cells.
func (s *SlidingGram) evalRow(i, lo, hi int) int {
	xi := s.samples.Row(s.slot(i))
	row := s.gram.Row(s.slot(i))
	for j := lo; j < hi; {
		p := s.slot(j)
		end := p + min(hi-j, s.cap-p)
		EvalRows(s.k, xi, s.samples.Data[p*s.dim:end*s.dim], row[p:end])
		j += end - p
	}
	return hi - lo
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

// Reset empties the window, pending rows included, without releasing
// storage.
func (s *SlidingGram) Reset() {
	s.head, s.n, s.pending = 0, 0, 0
}
