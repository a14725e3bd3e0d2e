package svm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/kernel/approx"
	"repro/internal/linalg"
)

// refExpand is the loop every kernel expansion ran before kernel.Expand:
// one Eval per basis row, accumulated in row order. It stays here as
// the oracle the expansions must match bit for bit.
func refExpand(k kernel.Kernel, x []float64, basis *linalg.Matrix, coef []float64, s float64) float64 {
	for i := 0; i < basis.Rows; i++ {
		s += coef[i] * k.Eval(x, basis.Row(i))
	}
	return s
}

func randVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

// TestExpandMatchesLoop pins the one-class, SVC and SVR decisions and
// the folded Nyström score to the per-row reference loop, at basis
// sizes on both sides of Expand's 64-row chunk and of the four-row
// blocks, for the RBF pass and the generic Eval path.
func TestExpandMatchesLoop(t *testing.T) {
	const d = 7
	r := rand.New(rand.NewSource(64))
	probes := gaussianCloud(65, 24, d)
	each := func(score func([]float64) float64) []float64 {
		out := make([]float64, probes.Rows)
		for i := range out {
			out[i] = score(probes.Row(i))
		}
		return out
	}
	want := func(k kernel.Kernel, basis *linalg.Matrix, coef []float64, s float64) []float64 {
		return each(func(x []float64) float64 { return refExpand(k, x, basis, coef, s) })
	}
	for _, k := range []kernel.Kernel{kernel.RBF{Gamma: 0.2}, kernel.Poly{Degree: 2, Gamma: 0.5, Coef0: 1}} {
		for _, n := range []int{0, 1, 3, 63, 64, 65, 130, 131} {
			sv := gaussianCloud(int64(n), n, d)
			coef, bias := randVec(r, n), r.NormFloat64()
			oc := &OneClass{K: k, SV: sv, Alpha: coef, Rho: bias}
			svc := RestoreSVC(k, sv, coef, bias, [2]float64{0, 1})
			svr := &SVR{K: k, SV: sv, Beta: coef, B: bias}
			at := fmt.Sprintf(" %s n=%d", k.Name(), n)
			sameBits(t, "one-class"+at, each(oc.Decision), want(k, sv, coef, -bias))
			sameBits(t, "SVC"+at, each(svc.Decision), want(k, sv, coef, bias))
			sameBits(t, "SVR"+at, each(svr.Predict), want(k, sv, coef, bias))
		}

		basis := gaussianCloud(66, 150, d)
		ny, err := approx.NewNystrom(k, basis, 70, 3)
		if err != nil {
			t.Fatal(err)
		}
		lin, err := approx.Compile(ny, basis, randVec(r, basis.Rows), r.NormFloat64())
		if err != nil {
			t.Fatal(err)
		}
		// The folded weights Whitenᵀ·W, in the order Linear folds them.
		m := ny.Landmarks.Rows
		fold := make([]float64, m)
		for j := range fold {
			s := 0.0
			for i := 0; i < m; i++ {
				s += lin.W[i] * ny.Whiten.Data[i*m+j]
			}
			fold[j] = s
		}
		ref := want(k, ny.Landmarks, fold, lin.Bias)
		sameBits(t, "Nyström Score "+k.Name(), each(lin.Score), ref)
		sameBits(t, "Nyström ScoreBatchInto "+k.Name(), lin.ScoreBatchInto(probes, make([]float64, probes.Rows)), ref)
	}
}
