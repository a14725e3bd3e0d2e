package svm

import (
	"errors"

	"repro/internal/linalg"
)

// OneClassGram is a ν-one-class SVM trained directly from a precomputed
// kernel (Gram) matrix. This is the form the paper's Figure 4 describes:
// the learning algorithm never sees the samples, only their pairwise
// similarities, so the samples may be assembly programs, layout windows, or
// any other non-vector objects ([13],[14]).
type OneClassGram struct {
	Alpha []float64 // one weight per training sample (zeros kept for indexing)
	Rho   float64
	Nu    float64
}

// FitOneClassGram trains on an n×n kernel matrix. It shares the
// pairwise coordinate-descent core in solver.go with FitOneClass. The
// matrix need not be symmetric: it is copied once, transposed, so the
// solver reads exactly gram[i][j] wherever it needs K_ij.
func FitOneClassGram(gram [][]float64, cfg OneClassConfig) (*OneClassGram, error) {
	n := len(gram)
	if n == 0 {
		return nil, errors.New("svm: empty gram matrix")
	}
	kt := linalg.NewMatrix(n, n)
	for i, row := range gram {
		if len(row) != n {
			return nil, errors.New("svm: gram matrix must be square")
		}
		for j, v := range row {
			kt.Set(j, i, v)
		}
	}
	cfg.normalize()
	upper := 1.0 / (cfg.Nu * float64(n))

	alpha := coldStartAlpha(n, cfg.Nu)
	g, _, _ := solveOneClass(n, rowCols(kt), cfg, alpha)
	rho := oneClassRho(n, alpha, g, upper)
	return &OneClassGram{Alpha: alpha, Rho: rho, Nu: cfg.Nu}, nil
}

// Decision scores a new sample given its kernel evaluations kx[i] = k(x, x_i)
// against every training sample. Negative means novel.
func (m *OneClassGram) Decision(kx []float64) float64 {
	if len(kx) != len(m.Alpha) {
		panic("svm: kernel row length mismatch")
	}
	s := -m.Rho
	for i, a := range m.Alpha {
		if a != 0 {
			s += a * kx[i]
		}
	}
	return s
}

// Novel reports whether the sample with kernel row kx is outside the
// learned support.
func (m *OneClassGram) Novel(kx []float64) bool { return m.Decision(kx) < 0 }
