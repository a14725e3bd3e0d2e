package kernel

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/parallel"
)

// nanFill dirties a destination so a cell the Into variant failed to
// overwrite is loud instead of silently stale.
func nanFill(m *linalg.Matrix) *linalg.Matrix {
	for i := range m.Data {
		m.Data[i] = math.NaN()
	}
	return m
}

// TestIntoVariantsMatchAllocating pins GramInto, CrossGramInto, and
// SlidingGram.WindowInto to their allocating twins bit for bit, with
// NaN-dirtied destinations and sizes spanning the serial/parallel
// cutover, at several worker counts.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	k := RBF{Gamma: 0.35}
	old := parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)
	for _, w := range []int{1, 2, 8} {
		parallel.SetWorkers(w)
		for _, n := range []int{1, 7, gramCutover, gramCutover + 9} {
			x := randMatrix(rng, n, 5)
			b := randMatrix(rng, n/2+1, 5)

			want := Gram(k, x)
			got := nanFill(linalg.NewMatrix(n, n))
			GramInto(k, x, got)
			for i, v := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
					t.Fatalf("GramInto workers=%d n=%d: element %d = %v, want %v", w, n, i, got.Data[i], v)
				}
			}

			wantX := CrossGram(k, x, b)
			gotX := nanFill(linalg.NewMatrix(n, b.Rows))
			CrossGramInto(k, x, b, gotX)
			for i, v := range wantX.Data {
				if math.Float64bits(gotX.Data[i]) != math.Float64bits(v) {
					t.Fatalf("CrossGramInto workers=%d n=%d: element %d = %v, want %v", w, n, i, gotX.Data[i], v)
				}
			}

			sg := NewSlidingGram(k, n, 5)
			for i := 0; i < n; i++ {
				sg.Append(x.Row(i))
			}
			wantW := sg.Window()
			gotW := nanFill(linalg.NewMatrix(sg.Len(), 5))
			sg.WindowInto(gotW)
			for i, v := range wantW.Data {
				if math.Float64bits(gotW.Data[i]) != math.Float64bits(v) {
					t.Fatalf("WindowInto workers=%d n=%d: element %d = %v, want %v", w, n, i, gotW.Data[i], v)
				}
			}
		}
	}
}

// TestCrossGramIntoSmallBatchLargeBasis pins the cell-count cutover: a
// batch under gramCutover rows against a large basis crosses
// crossGramCellCutover and runs on the pool, and must stay bit-identical
// to the serial sweep at every worker count.
func TestCrossGramIntoSmallBatchLargeBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	k := RBF{Gamma: 0.2}
	b := randMatrix(rng, 1024, 6)
	old := parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)
	for _, n := range []int{2, 16, gramCutover - 1} {
		a := randMatrix(rng, n, 6)
		parallel.SetWorkers(1)
		want := nanFill(linalg.NewMatrix(n, b.Rows))
		CrossGramInto(k, a, b, want)
		for _, w := range []int{1, 2, 8} {
			parallel.SetWorkers(w)
			got := nanFill(linalg.NewMatrix(n, b.Rows))
			CrossGramInto(k, a, b, got)
			for i, v := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
					t.Fatalf("workers=%d a.Rows=%d: element %d = %v, serial %v", w, n, i, got.Data[i], v)
				}
			}
		}
	}
}

// TestIntoVariantsPanicOnShapeMismatch pins the destination-shape
// contract: a wrong-shaped destination must panic, never silently
// truncate.
func TestIntoVariantsPanicOnShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	k := Linear{}
	x := randMatrix(rng, 4, 3)
	for name, fn := range map[string]func(){
		"GramInto":      func() { GramInto(k, x, linalg.NewMatrix(3, 4)) },
		"CrossGramInto": func() { CrossGramInto(k, x, x, linalg.NewMatrix(4, 5)) },
		"WindowInto": func() {
			sg := NewSlidingGram(k, 4, 3)
			sg.Append(x.Row(0))
			sg.WindowInto(linalg.NewMatrix(2, 3))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a wrong-shaped destination", name)
				}
			}()
			fn()
		}()
	}
}

// TestGramIntoMatchesEval checks every cell of GramInto, both triangles
// and the diagonal, against k.Eval(x_i, x_j) bit for bit, at sizes
// around gramRange's mirror tiles and at 1, 2 and 8 workers, which move
// the tiles' edges to wherever the pool's chunks start and end.
func TestGramIntoMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	old := parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)
	for _, w := range []int{1, 2, 8} {
		parallel.SetWorkers(w)
		for _, k := range []Kernel{RBF{Gamma: 0.2}, Linear{}} {
			for _, n := range []int{1, 63, 64, 65, 130, 257} {
				x := randMatrix(rng, n, 12)
				g := nanFill(linalg.NewMatrix(n, n))
				GramInto(k, x, g)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if got, want := g.At(i, j), k.Eval(x.Row(i), x.Row(j)); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s workers=%d n=%d: K[%d][%d] = %x, Eval %x", k.Name(), w, n, i, j, math.Float64bits(got), math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}
