// Package svm implements the Support Vector Machine family highlighted in
// Section 2.3 of the paper: the kernelized binary classifier (SVC), the
// ε-insensitive regressor (SVR), and the one-class SVM used for novelty
// detection in the test-selection and customer-return applications
// ([14],[16],[27]). All three share the paper's Equation 2 model form
//
//	M(x) = Σ α_i k(x, x_i) + b
//
// and control model complexity C = Σ α_i through regularization.
package svm

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/core/colmat"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/linalg"
)

// SVC is a fitted kernel support vector classifier for labels {0,1}.
type SVC struct {
	K       kernel.Kernel
	SV      *linalg.Matrix // support vectors
	Alpha   []float64      // alpha_i * y_i for each support vector
	B       float64
	classes [2]float64
}

// SVCConfig controls training.
type SVCConfig struct {
	C        float64 // box constraint, default 1
	Tol      float64 // KKT tolerance, default 1e-3
	MaxPass  int     // passes without change before stopping, default 5
	MaxIters int     // hard iteration cap, default 10000
	Seed     int64   // rng seed for the SMO heuristic
}

// FitSVC trains a binary SVC with the simplified SMO algorithm.
// Labels must take exactly two values; they are mapped to ±1 internally.
func FitSVC(d *dataset.Dataset, k kernel.Kernel, cfg SVCConfig) (*SVC, error) {
	if d.Len() == 0 {
		return nil, errors.New("svm: empty dataset")
	}
	if k == nil {
		k = kernel.RBF{Gamma: 1.0 / float64(d.Dim())}
	}
	if cfg.C <= 0 {
		cfg.C = 1
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-3
	}
	if cfg.MaxPass <= 0 {
		cfg.MaxPass = 5
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 10000
	}
	classes := d.Classes()
	if len(classes) != 2 {
		return nil, errors.New("svm: SVC requires exactly two classes")
	}
	n := d.Len()
	y := make([]float64, n)
	for i, v := range d.Y {
		if int(v) == classes[0] {
			y[i] = -1
		} else {
			y[i] = 1
		}
	}
	gram := kernel.Gram(k, d.X)
	alpha := make([]float64, n)
	b := 0.0
	rng := rand.New(rand.NewSource(cfg.Seed + 1))

	f := func(i int) float64 {
		s := b
		for j := 0; j < n; j++ {
			if alpha[j] != 0 {
				s += alpha[j] * y[j] * gram.At(i, j)
			}
		}
		return s
	}

	passes, iters := 0, 0
	for passes < cfg.MaxPass && iters < cfg.MaxIters {
		changed := 0
		for i := 0; i < n; i++ {
			iters++
			ei := f(i) - y[i]
			if (y[i]*ei < -cfg.Tol && alpha[i] < cfg.C) || (y[i]*ei > cfg.Tol && alpha[i] > 0) {
				j := rng.Intn(n - 1)
				if j >= i {
					j++
				}
				ej := f(j) - y[j]
				ai, aj := alpha[i], alpha[j]
				var lo, hi float64
				if y[i] != y[j] {
					lo = math.Max(0, aj-ai)
					hi = math.Min(cfg.C, cfg.C+aj-ai)
				} else {
					lo = math.Max(0, ai+aj-cfg.C)
					hi = math.Min(cfg.C, ai+aj)
				}
				if lo == hi {
					continue
				}
				eta := 2*gram.At(i, j) - gram.At(i, i) - gram.At(j, j)
				if eta >= 0 {
					continue
				}
				ajNew := aj - y[j]*(ei-ej)/eta
				if ajNew > hi {
					ajNew = hi
				} else if ajNew < lo {
					ajNew = lo
				}
				if math.Abs(ajNew-aj) < 1e-5 {
					continue
				}
				aiNew := ai + y[i]*y[j]*(aj-ajNew)
				b1 := b - ei - y[i]*(aiNew-ai)*gram.At(i, i) - y[j]*(ajNew-aj)*gram.At(i, j)
				b2 := b - ej - y[i]*(aiNew-ai)*gram.At(i, j) - y[j]*(ajNew-aj)*gram.At(j, j)
				switch {
				case aiNew > 0 && aiNew < cfg.C:
					b = b1
				case ajNew > 0 && ajNew < cfg.C:
					b = b2
				default:
					b = (b1 + b2) / 2
				}
				alpha[i], alpha[j] = aiNew, ajNew
				changed++
			}
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}

	// Keep only support vectors.
	var svIdx []int
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-8 {
			svIdx = append(svIdx, i)
		}
	}
	sv := linalg.NewMatrix(len(svIdx), d.Dim())
	coef := make([]float64, len(svIdx))
	for r, i := range svIdx {
		copy(sv.Row(r), d.Row(i))
		coef[r] = alpha[i] * y[i]
	}
	return &SVC{K: k, SV: sv, Alpha: coef, B: b,
		classes: [2]float64{float64(classes[0]), float64(classes[1])}}, nil
}

// Classes returns the two class labels in the order used by Predict:
// Classes()[0] for a negative margin, Classes()[1] for a nonnegative one.
func (m *SVC) Classes() [2]float64 { return m.classes }

// RestoreSVC rebuilds a fitted SVC from its persisted components (see
// internal/model). The arguments are retained, not copied.
func RestoreSVC(k kernel.Kernel, sv *linalg.Matrix, alpha []float64, b float64, classes [2]float64) *SVC {
	return &SVC{K: k, SV: sv, Alpha: alpha, B: b, classes: classes}
}

// Decision returns the signed margin M(x) of paper Eq. 2; positive means
// the second class.
func (m *SVC) Decision(x []float64) float64 {
	return kernel.Expand(m.K, x, m.SV, m.Alpha, m.B)
}

// DecisionBatchInto writes Decision for every row of x into out (length
// x.Rows), amortizing the kernel evaluations through one CrossGram
// sweep (parallel across rows). Each margin is accumulated in the same
// order as Decision, so the batch path is bit-identical to scoring the
// rows one at a time. The cross-Gram scratch is leased from the
// columnar arena, so a steady-state batch allocates nothing
// (alloc_test.go pins this at 0 allocs/op).
func (m *SVC) DecisionBatchInto(x *linalg.Matrix, out []float64) []float64 {
	if len(out) != x.Rows {
		panic("svm: DecisionBatchInto output length mismatch")
	}
	g := colmat.Get(x.Rows, m.SV.Rows)
	kernel.CrossGramInto(m.K, x, m.SV, g)
	for i := range out {
		s := m.B
		row := g.Row(i)
		for j, a := range m.Alpha {
			s += a * row[j]
		}
		out[i] = s
	}
	colmat.Put(g)
	return out
}

// PredictBatchInto writes Predict for every row of x into out (length
// x.Rows) via DecisionBatchInto.
func (m *SVC) PredictBatchInto(x *linalg.Matrix, out []float64) []float64 {
	out = m.DecisionBatchInto(x, out)
	for i, s := range out {
		if s >= 0 {
			out[i] = m.classes[1]
		} else {
			out[i] = m.classes[0]
		}
	}
	return out
}

// Predict returns the predicted class label.
func (m *SVC) Predict(x []float64) float64 {
	if m.Decision(x) >= 0 {
		return m.classes[1]
	}
	return m.classes[0]
}

// PredictAll predicts every row of d.
func (m *SVC) PredictAll(d *dataset.Dataset) []float64 {
	out := make([]float64, d.Len())
	for i := range out {
		out[i] = m.Predict(d.Row(i))
	}
	return out
}

// NumSV returns the number of support vectors.
func (m *SVC) NumSV() int { return m.SV.Rows }

// DualViolation returns the largest violation of the dual box constraint
// 0 ≤ α_i ≤ C over the stored coefficients (Alpha_i = α_i·y_i, so the
// constraint is |Alpha_i| ≤ C and Alpha_i ≠ 0 for a support vector).
// A correctly trained or correctly restored SVC returns a value ≤ 0; the
// conformance suite (internal/testkit) asserts this on every generated
// fit and on every decoded artifact.
func (m *SVC) DualViolation(c float64) float64 {
	worst := math.Inf(-1)
	if len(m.Alpha) == 0 {
		return 0
	}
	for _, a := range m.Alpha {
		if v := math.Abs(a) - c; v > worst {
			worst = v
		}
		if a == 0 { // a stored support vector must carry weight
			worst = math.Max(worst, math.SmallestNonzeroFloat64)
		}
	}
	return worst
}

// Complexity returns Σ|α_i|, the paper's model-complexity measure for SVMs.
func (m *SVC) Complexity() float64 {
	s := 0.0
	for _, a := range m.Alpha {
		s += math.Abs(a)
	}
	return s
}
