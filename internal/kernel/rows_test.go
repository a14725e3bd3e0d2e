package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestEvalRowsMatchesEval is EvalRows' oracle: every value equals
// k.Eval(x, row j) bit for bit, for each kernel in the package, across
// the four-row blocks and their tails. RBF, the one kernel with its own
// pass, is also checked against k.Eval(row j, x), the orientation
// SlidingGram's rebuild contract relies on, and at a γ so large that
// exp underflows to 0.
func TestEvalRowsMatchesEval(t *testing.T) {
	kernels := []Kernel{
		Linear{},
		Poly{Degree: 3, Gamma: 0.5, Coef0: 1},
		RBF{Gamma: 0.3},
		RBF{Gamma: 1e3},
		Sigmoid{Gamma: 0.2, Coef0: -0.1},
		HistogramIntersection{},
		Normalize{K: RBF{Gamma: 0.3}},
	}
	r := rand.New(rand.NewSource(31))
	counts := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65}
	underflowed := 0
	for _, k := range kernels {
		_, isRBF := k.(RBF)
		for _, d := range []int{1, 5, 12, 16} {
			for _, n := range counts {
				x := randMatrix(r, 1, d).Data
				rows := randMatrix(r, n, d).Data
				out := make([]float64, n)
				EvalRows(k, x, rows, out)
				for j, got := range out {
					row := rows[j*d : (j+1)*d]
					if want := k.Eval(x, row); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s d=%d n=%d row %d: EvalRows %x, Eval(x, row) %x",
							k.Name(), d, n, j, math.Float64bits(got), math.Float64bits(want))
					}
					if !isRBF {
						continue
					}
					if want := k.Eval(row, x); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s d=%d n=%d row %d: EvalRows %x, Eval(row, x) %x",
							k.Name(), d, n, j, math.Float64bits(got), math.Float64bits(want))
					}
					if got == 0 {
						underflowed++
					}
				}
			}
		}
	}
	if underflowed == 0 {
		t.Fatal("no RBF value underflowed to 0; raise the large γ")
	}
}

// TestEvalRowsPanicsOnWidthMismatch: a sample whose width does not
// divide the rows must panic for every kernel, never misalign them.
func TestEvalRowsPanicsOnWidthMismatch(t *testing.T) {
	rows := make([]float64, 8) // two 4-wide rows
	for _, k := range []Kernel{RBF{Gamma: 1}, Linear{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a 3-wide sample against 4-wide rows did not panic", k.Name())
				}
			}()
			EvalRows(k, make([]float64, 3), rows, make([]float64, 2))
		}()
	}
}

// BenchmarkEvalRows measures one kernel row, 1024 rows against one
// sample, at the isa (d=12) and mfgtest (d=16) widths: "eval" is the
// per-row Eval loop and "rows" the EvalRows pass.
func BenchmarkEvalRows(b *testing.B) {
	const n = 1024
	for _, d := range []int{12, 16} {
		rng := rand.New(rand.NewSource(int64(d)))
		x := randMatrix(rng, 1, d).Data
		rows := randMatrix(rng, n, d)
		out := make([]float64, n)
		var k Kernel = RBF{Gamma: 1 / float64(d)}
		b.Run(fmt.Sprintf("d=%d/eval", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range out {
					out[j] = k.Eval(x, rows.Row(j))
				}
			}
		})
		b.Run(fmt.Sprintf("d=%d/rows", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				EvalRows(k, x, rows.Data, out)
			}
		})
	}
}
