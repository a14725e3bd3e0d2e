package svm

import (
	"errors"
	"math"

	"repro/internal/core/colmat"
	"repro/internal/kernel"
	"repro/internal/linalg"
)

// OneClass is a fitted ν-one-class SVM (Schölkopf et al.), the novelty
// detector used by the paper's test-selection application ([14],[27]): it
// learns the support of the training distribution and flags samples outside
// it as novel.
//
// Decision(x) = Σ α_i k(x, x_i) − ρ ; negative values are novel.
type OneClass struct {
	K     kernel.Kernel
	SV    *linalg.Matrix
	Alpha []float64
	Rho   float64
	Nu    float64
}

// OneClassConfig controls training.
type OneClassConfig struct {
	Nu       float64 // expected outlier fraction in (0,1], default 0.1
	Tol      float64 // convergence tolerance, default 1e-4
	MaxIters int     // sweep cap, default 200
}

// FitOneClass trains a ν-one-class SVM on the rows of x by pairwise
// coordinate descent on the dual:
//
//	min ½ Σ α_i α_j K_ij  s.t.  Σ α_i = 1,  0 ≤ α_i ≤ 1/(ν n).
//
// The solve itself lives in solver.go, shared with the precomputed-Gram
// and streaming warm-start paths; this entry point builds the Gram
// matrix and always cold-starts.
func FitOneClass(x *linalg.Matrix, k kernel.Kernel, cfg OneClassConfig) (*OneClass, error) {
	n := x.Rows
	if n == 0 {
		return nil, errors.New("svm: empty training set")
	}
	if k == nil {
		k = kernel.RBF{Gamma: 1.0 / float64(x.Cols)}
	}
	gram := kernel.Gram(k, x)
	m, _, err := FitOneClassPrecomputed(x, k, rowCols(gram), cfg, nil)
	return m, err
}

// Decision returns Σ α_i k(x, x_i) − ρ; negative means novel.
func (m *OneClass) Decision(x []float64) float64 {
	return kernel.Expand(m.K, x, m.SV, m.Alpha, -m.Rho)
}

// DecisionBatchInto writes Decision for every row of x into out (length
// x.Rows), amortizing the kernel evaluations through one CrossGram
// sweep (parallel across rows). Each score is accumulated in the same
// order as Decision, so the batch path is bit-identical to scoring the
// rows one at a time. The cross-Gram scratch is leased from the
// columnar arena, so a steady-state batch allocates nothing
// (alloc_test.go pins this at 0 allocs/op).
func (m *OneClass) DecisionBatchInto(x *linalg.Matrix, out []float64) []float64 {
	if len(out) != x.Rows {
		panic("svm: DecisionBatchInto output length mismatch")
	}
	g := colmat.Get(x.Rows, m.SV.Rows)
	kernel.CrossGramInto(m.K, x, m.SV, g)
	for i := range out {
		s := -m.Rho
		row := g.Row(i)
		for j, a := range m.Alpha {
			s += a * row[j]
		}
		out[i] = s
	}
	colmat.Put(g)
	return out
}

// DualViolation reports how far the stored dual variables stray from the
// ν-one-class feasible region: sumErr is |Σ α_i − 1| (the equality
// constraint) and boxErr is the largest violation of 0 ≤ α_i ≤ 1/(ν·n),
// where n is recovered from ν and the stored upper bound's trainN.
// trainN is the size of the original training set (the box bound depends
// on it, not on the surviving support-vector count). The conformance
// suite asserts both stay within solver tolerance.
func (m *OneClass) DualViolation(trainN int) (sumErr, boxErr float64) {
	upper := 1.0 / (m.Nu * float64(trainN))
	sum := 0.0
	boxErr = math.Inf(-1)
	for _, a := range m.Alpha {
		sum += a
		v := -a // below-zero violation
		if over := a - upper; over > v {
			v = over
		}
		if v > boxErr {
			boxErr = v
		}
	}
	if len(m.Alpha) == 0 {
		boxErr = 0
	}
	return math.Abs(sum - 1), boxErr
}

// Novel reports whether x lies outside the learned support region.
func (m *OneClass) Novel(x []float64) bool { return m.Decision(x) < 0 }

// NumSV returns the number of support vectors.
func (m *OneClass) NumSV() int { return m.SV.Rows }
