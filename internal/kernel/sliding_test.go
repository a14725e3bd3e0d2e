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

// TestSlidingGramMatchesFullRebuild is the incremental path's core
// contract: after any sequence of appends (with and without eviction),
// the window's Gram matrix is bit-identical to rebuilding it from
// scratch with Gram over the materialized window.
func TestSlidingGramMatchesFullRebuild(t *testing.T) {
	kernels := []Kernel{
		RBF{Gamma: 0.3},
		Linear{},
		Poly{Degree: 2, Gamma: 1},
		HistogramIntersection{},
	}
	r := rand.New(rand.NewSource(42))
	wrapped := false
	for _, k := range kernels {
		const capacity, dim = 16, 5
		sg := NewSlidingGram(k, capacity, dim)
		rows := randRows(r, 3*capacity, dim)
		for step, row := range rows {
			evicted := sg.Append(row)
			if wantEvict := step >= capacity; evicted != wantEvict {
				t.Fatalf("%s step %d: evicted=%v, want %v", k.Name(), step, evicted, wantEvict)
			}
			wantLen := step + 1
			if wantLen > capacity {
				wantLen = capacity
			}
			if sg.Len() != wantLen {
				t.Fatalf("%s step %d: Len=%d, want %d", k.Name(), step, sg.Len(), wantLen)
			}
			// Check the full window only at a few steps (each check is a
			// full O(n²) rebuild), always including both fill and wrap.
			if step != capacity-1 && step != capacity && step%7 != 0 && step != len(rows)-1 {
				continue
			}
			win := sg.Window()
			full := Gram(k, win)
			split, _ := sg.Col(0)
			for j := 0; j < sg.Len(); j++ {
				if lo, hi := sg.Col(j); len(lo) != len(split) {
					t.Fatalf("%s step %d: Col(%d) splits at %d, Col(0) at %d", k.Name(), step, j, len(lo), len(split))
				} else if len(hi) > 0 {
					wrapped = true
				}
				c := column(t, sg, j)
				for i := 0; i < sg.Len(); i++ {
					if got, want := c[i], full.At(i, j); got != want {
						t.Fatalf("%s step %d: Col(%d)[%d]=%v, want %v (full rebuild)",
							k.Name(), step, j, i, got, want)
					}
				}
			}
		}
	}
	if !wrapped {
		t.Fatal("no checked window wrapped the ring; the two-slice path went untested")
	}
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
	sg.Reset()
	if sg.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", sg.Len())
	}
	sg.Append([]float64{9})
	if got := column(t, sg, 0)[0]; got != 81 {
		t.Fatalf("K(0,0) after Reset+Append = %v, want 81", got)
	}
}

// TestSlidingGramWorkerInvariance proves the append sweep is
// bit-identical at any worker count.
func TestSlidingGramWorkerInvariance(t *testing.T) {
	const capacity, dim = 48, 6 // above gramCutover so the pool engages
	r := rand.New(rand.NewSource(7))
	rows := randRows(r, 2*capacity, dim)
	build := func(workers int) *linalg.Matrix {
		defer parallel.SetWorkers(parallel.SetWorkers(workers))
		sg := NewSlidingGram(RBF{Gamma: 0.5}, capacity, dim)
		for _, row := range rows {
			sg.Append(row)
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
				t.Fatalf("workers=%d: Gram cell %d differs: %v vs %v", w, i, got.Data[i], ref.Data[i])
			}
		}
	}
}
