package kernel

import (
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/parallel"
)

// randRows returns n random d-dim rows.
func randRows(r *rand.Rand, n, d int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.NormFloat64()
		}
		out[i] = row
	}
	return out
}

// column reads K(·, j) through Col into a fresh slice, checking that the
// two halves cover the window and are capped at their length.
func column(t *testing.T, sg *SlidingGram, j int) []float64 {
	t.Helper()
	lo, hi := sg.Col(j)
	if len(lo)+len(hi) != sg.Len() {
		t.Fatalf("Col(%d) covers %d+%d rows, want %d", j, len(lo), len(hi), sg.Len())
	}
	if cap(lo) != len(lo) || cap(hi) != len(hi) {
		t.Fatalf("Col(%d) halves have spare capacity %d/%d, %d/%d", j, len(lo), cap(lo), len(hi), cap(hi))
	}
	return append(append([]float64(nil), lo...), hi...)
}

// readCadences are the read patterns a sliding Gram must fill under
// bit-identically: a read after every append (one pending row per
// fill), a read every 7 appends (a block), and a read only after more
// appends than the capacity, so rows are evicted before they are ever
// filled. A read is one Col call, which fills every pending row.
func readCadences(capacity int) []int { return []int{1, 7, capacity + 1} }

// slidingCapacities are the window capacities the sliding Gram is
// checked at: one below gramCutover, whose fills stay serial, and one
// above it, whose fills go to the pool at more than one worker with
// tiles that cross the ring's wrap.
var slidingCapacities = []int{16, 48}

// TestSlidingGramMatchesFullRebuild is the incremental path's core
// contract: after any sequence of appends (with and without eviction)
// and reads at any cadence, the window's Gram matrix is bit-identical
// to rebuilding it from scratch with Gram over the materialized window.
func TestSlidingGramMatchesFullRebuild(t *testing.T) {
	kernels := []Kernel{
		RBF{Gamma: 0.3},
		Linear{},
		Poly{Degree: 2, Gamma: 1},
		HistogramIntersection{},
	}
	r := rand.New(rand.NewSource(42))
	wrapped := false
	const dim = 5
	for _, k := range kernels {
		for _, capacity := range slidingCapacities {
			rows := randRows(r, 3*capacity, dim)
			for _, every := range readCadences(capacity) {
				sg := NewSlidingGram(k, capacity, dim)
				for step, row := range rows {
					evicted := sg.Append(row)
					if wantEvict := step >= capacity; evicted != wantEvict {
						t.Fatalf("%s cap %d step %d: evicted=%v, want %v", k.Name(), capacity, step, evicted, wantEvict)
					}
					if wantLen := min(step+1, capacity); sg.Len() != wantLen {
						t.Fatalf("%s cap %d step %d: Len=%d, want %d", k.Name(), capacity, step, sg.Len(), wantLen)
					}
					if (step+1)%every != 0 && step != len(rows)-1 {
						continue
					}
					if checkRebuild(t, sg, k, capacity, every, step) {
						wrapped = true
					}
				}
			}
		}
	}
	if !wrapped {
		t.Fatal("no checked window wrapped the ring; the two-slice path went untested")
	}
}

// checkRebuild reads every column of sg — the first read fills — and
// compares it with Gram over the window, reporting whether the window
// wraps the ring.
func checkRebuild(t *testing.T, sg *SlidingGram, k Kernel, capacity, every, step int) (wrapped bool) {
	t.Helper()
	full := Gram(k, sg.Window())
	split, _ := sg.Col(0)
	for j := 0; j < sg.Len(); j++ {
		if lo, hi := sg.Col(j); len(lo) != len(split) {
			t.Fatalf("%s cap %d every %d step %d: Col(%d) splits at %d, Col(0) at %d",
				k.Name(), capacity, every, step, j, len(lo), len(split))
		} else if len(hi) > 0 {
			wrapped = true
		}
		c := column(t, sg, j)
		for i := 0; i < sg.Len(); i++ {
			if got, want := c[i], full.At(i, j); got != want {
				t.Fatalf("%s cap %d every %d step %d: Col(%d)[%d]=%v, want %v (full rebuild)",
					k.Name(), capacity, every, step, j, i, got, want)
			}
		}
	}
	return wrapped
}

// TestSlidingGramWindowOrder checks the logical ordering contract:
// logical index 0 is the oldest retained sample, and eviction drops
// exactly the oldest.
func TestSlidingGramWindowOrder(t *testing.T) {
	const capacity = 4
	sg := NewSlidingGram(Linear{}, capacity, 1)
	for v := 0; v < 7; v++ {
		sg.Append([]float64{float64(v)})
	}
	// Appended 0..6 into capacity 4: the window must hold 3,4,5,6.
	want := []float64{3, 4, 5, 6}
	for i, w := range want {
		if got := sg.Sample(i)[0]; got != w {
			t.Fatalf("Sample(%d)=%v, want %v", i, got, w)
		}
	}
	win := sg.Window()
	for i, w := range want {
		if got := win.At(i, 0); got != w {
			t.Fatalf("Window()[%d]=%v, want %v", i, got, w)
		}
	}
	// Reset drops the pending rows with the window: an empty window
	// reads as empty, and after new appends only the new rows fill.
	sg.Reset()
	if sg.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", sg.Len())
	}
	if lo, hi := sg.Col(0); len(lo)+len(hi) != 0 {
		t.Fatalf("Col(0) after Reset covers %d+%d rows, want 0", len(lo), len(hi))
	}
	sg.Append([]float64{9})
	sg.Append([]float64{2})
	for j, want := range [][]float64{{81, 18}, {18, 4}} {
		for i, got := range column(t, sg, j) {
			if got != want[i] {
				t.Fatalf("K(%d,%d) after Reset+Append = %v, want %v", i, j, got, want[i])
			}
		}
	}
}

// TestSlidingGramWorkerInvariance proves the fill is bit-identical at
// any worker count, for every read cadence and at a capacity on each
// side of gramCutover.
func TestSlidingGramWorkerInvariance(t *testing.T) {
	const dim = 6
	r := rand.New(rand.NewSource(7))
	for _, capacity := range slidingCapacities {
		rows := randRows(r, 2*capacity+5, dim)
		for _, every := range readCadences(capacity) {
			build := func(workers int) *linalg.Matrix {
				defer parallel.SetWorkers(parallel.SetWorkers(workers))
				sg := NewSlidingGram(RBF{Gamma: 0.5}, capacity, dim)
				for step, row := range rows {
					sg.Append(row)
					if (step+1)%every == 0 {
						sg.Col(0)
					}
				}
				out := linalg.NewMatrix(sg.Len(), sg.Len())
				for j := 0; j < sg.Len(); j++ {
					for i, v := range column(t, sg, j) {
						out.Set(i, j, v)
					}
				}
				return out
			}
			ref := build(1)
			for _, w := range []int{2, 8} {
				got := build(w)
				for i := range ref.Data {
					if ref.Data[i] != got.Data[i] {
						t.Fatalf("cap %d every %d workers=%d: Gram cell %d differs: %v vs %v",
							capacity, every, w, i, got.Data[i], ref.Data[i])
					}
				}
			}
		}
	}
}
