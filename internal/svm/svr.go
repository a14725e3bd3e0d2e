package svm

import (
	"errors"
	"math"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/linalg"
)

// SVR is a fitted ε-insensitive support vector regressor, one of the five
// regressor families of the Fmax-prediction study ([20]).
//
// f(x) = Σ β_i k(x, x_i) + b with β_i = α_i − α_i* ∈ [−C, C], Σ β_i = 0.
type SVR struct {
	K    kernel.Kernel
	SV   *linalg.Matrix
	Beta []float64
	B    float64
}

// SVRConfig controls training.
type SVRConfig struct {
	C        float64 // box constraint, default 1
	Epsilon  float64 // insensitive-tube half width, default 0.1
	Tol      float64 // convergence tolerance, default 1e-4
	MaxIters int     // pair-update cap, default 20000
}

// FitSVR trains ε-SVR with pairwise coordinate descent on the β dual:
//
//	min ½ Σ β_i β_j K_ij − Σ β_i y_i + ε Σ |β_i|
//	s.t. Σ β_i = 0, −C ≤ β_i ≤ C.
func FitSVR(d *dataset.Dataset, k kernel.Kernel, cfg SVRConfig) (*SVR, error) {
	n := d.Len()
	if n == 0 {
		return nil, errors.New("svm: empty dataset")
	}
	if k == nil {
		k = kernel.RBF{Gamma: 1.0 / float64(d.Dim())}
	}
	if cfg.C <= 0 {
		cfg.C = 1
	}
	if cfg.Epsilon < 0 {
		cfg.Epsilon = 0.1
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-4
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 20000
	}
	gram := kernel.Gram(k, d.X)
	beta := make([]float64, n)
	// g_i = Σ_j β_j K_ij − y_i (gradient of the smooth part).
	g := make([]float64, n)
	for i := range g {
		g[i] = -d.Y[i]
	}

	return fitSVRImpl(d, k, cfg, gram, beta, g)
}

func fitSVRImpl(d *dataset.Dataset, k kernel.Kernel, cfg SVRConfig, gram *linalg.Matrix, beta, g []float64) (*SVR, error) {
	n := d.Len()
	eps := cfg.Epsilon
	deriv := func(i int, dir float64) float64 {
		v := dir * g[i]
		switch {
		case beta[i] > 1e-12:
			v += dir * eps
		case beta[i] < -1e-12:
			v -= dir * eps
		default:
			v += eps
		}
		return v
	}
	for it := 0; it < cfg.MaxIters; it++ {
		// Pick i: steepest descent increasing β_i; j: steepest decreasing β_j.
		i, j := -1, -1
		di, dj := math.Inf(1), math.Inf(1)
		for t := 0; t < n; t++ {
			if beta[t] < cfg.C-1e-12 {
				if v := deriv(t, 1); v < di {
					di, i = v, t
				}
			}
			if beta[t] > -cfg.C+1e-12 {
				if v := deriv(t, -1); v < dj {
					dj, j = v, t
				}
			}
		}
		if i < 0 || j < 0 || i == j || di+dj > -cfg.Tol {
			break
		}
		eta := gram.At(i, i) + gram.At(j, j) - 2*gram.At(i, j)
		if eta <= 1e-12 {
			eta = 1e-12
		}
		// Move t along (e_i − e_j). The |β| terms are piecewise linear;
		// take a Newton step for the current linearization and clip at the
		// first sign-change breakpoint and the box.
		step := -(di + dj) / eta
		maxStep := math.Min(cfg.C-beta[i], beta[j]+cfg.C)
		// Breakpoints where |·| slope changes.
		if beta[i] < -1e-12 {
			maxStep = math.Min(maxStep, -beta[i])
		}
		if beta[j] > 1e-12 {
			maxStep = math.Min(maxStep, beta[j])
		}
		if step > maxStep {
			step = maxStep
		}
		if step <= 1e-14 {
			break
		}
		beta[i] += step
		beta[j] -= step
		for r := 0; r < n; r++ {
			g[r] += step * (gram.At(r, i) - gram.At(r, j))
		}
	}

	// Bias from free SVs: for 0<β_i<C the residual is +ε; for −C<β_i<0 it
	// is −ε. g_i = f(x_i) − b − y_i, so b = −g_i − ε·sign(β_i).
	b, cnt := 0.0, 0
	for i := 0; i < n; i++ {
		if beta[i] > 1e-8 && beta[i] < cfg.C-1e-8 {
			b += -g[i] - eps
			cnt++
		} else if beta[i] < -1e-8 && beta[i] > -cfg.C+1e-8 {
			b += -g[i] + eps
			cnt++
		}
	}
	if cnt > 0 {
		b /= float64(cnt)
	} else {
		// Fall back to median residual.
		res := make([]float64, n)
		for i := 0; i < n; i++ {
			res[i] = -g[i]
		}
		b = medianOf(res)
	}

	var svIdx []int
	for i := 0; i < n; i++ {
		if math.Abs(beta[i]) > 1e-8 {
			svIdx = append(svIdx, i)
		}
	}
	sv := linalg.NewMatrix(len(svIdx), d.Dim())
	coef := make([]float64, len(svIdx))
	for r, i := range svIdx {
		copy(sv.Row(r), d.Row(i))
		coef[r] = beta[i]
	}
	return &SVR{K: k, SV: sv, Beta: coef, B: b}, nil
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

// Predict returns f(x).
func (m *SVR) Predict(x []float64) float64 {
	return kernel.Expand(m.K, x, m.SV, m.Beta, m.B)
}

// PredictAll predicts every row of d.
func (m *SVR) PredictAll(d *dataset.Dataset) []float64 {
	out := make([]float64, d.Len())
	for i := range out {
		out[i] = m.Predict(d.Row(i))
	}
	return out
}

// NumSV returns the number of support vectors.
func (m *SVR) NumSV() int { return m.SV.Rows }
