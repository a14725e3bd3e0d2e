package transform

import (
	"errors"
	"math"

	"repro/internal/kernel"
	"repro/internal/linalg"
)

// KernelPCA is a fitted kernel principal component analysis: PCA carried
// out implicitly in the feature space of a kernel (paper Section 2.2 —
// the learning-space question). With a nonlinear kernel it extracts
// components that linear PCA cannot, e.g. the radius of the Figure 3
// ring-and-core data.
type KernelPCA struct {
	K      kernel.Kernel
	X      *linalg.Matrix // training samples
	alphas *linalg.Matrix // n × k dual coefficients (normalized)
	lambda []float64      // eigenvalues of the centered Gram matrix / n
	rowMu  []float64      // Gram row means (for centering new samples)
	grand  float64        // grand Gram mean
}

// FitKernelPCA extracts the top-k kernel principal components.
func FitKernelPCA(x *linalg.Matrix, k kernel.Kernel, comps int) (*KernelPCA, error) {
	n := x.Rows
	if n < 2 {
		return nil, errors.New("transform: need at least 2 samples")
	}
	if comps <= 0 || comps > n {
		return nil, errors.New("transform: component count out of range")
	}
	if k == nil {
		k = kernel.RBF{Gamma: 1.0 / float64(x.Cols)}
	}
	gram := kernel.Gram(k, x)

	// Record centering statistics, then center.
	rowMu := make([]float64, n)
	grand := 0.0
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += gram.At(i, j)
		}
		rowMu[i] = s / float64(n)
		grand += s
	}
	grand /= float64(n * n)
	kc := kernel.Center(gram)

	vals, vecs, err := linalg.EigenSym(kc)
	if err != nil {
		return nil, err
	}
	m := &KernelPCA{
		K: k, X: x.Clone(),
		alphas: linalg.NewMatrix(n, comps),
		lambda: make([]float64, comps),
		rowMu:  rowMu, grand: grand,
	}
	for c := 0; c < comps; c++ {
		l := vals[c]
		if l < 1e-12 {
			l = 1e-12
		}
		m.lambda[c] = l / float64(n)
		// Normalize so the feature-space eigenvector has unit norm:
		// alpha = v / sqrt(lambda).
		inv := 1 / math.Sqrt(l)
		for i := 0; i < n; i++ {
			m.alphas.Set(i, c, vecs.At(i, c)*inv)
		}
	}
	return m, nil
}

// TransformVec projects one sample onto the kernel principal components.
func (m *KernelPCA) TransformVec(v []float64) []float64 {
	n := m.X.Rows
	kx := make([]float64, n)
	kernel.EvalRows(m.K, v, m.X.Data, kx)
	mu := 0.0
	for _, kv := range kx {
		mu += kv
	}
	mu /= float64(n)
	// Center the kernel row against the training statistics.
	for i := 0; i < n; i++ {
		kx[i] = kx[i] - m.rowMu[i] - mu + m.grand
	}
	out := make([]float64, m.alphas.Cols)
	for c := range out {
		s := 0.0
		for i := 0; i < n; i++ {
			s += m.alphas.At(i, c) * kx[i]
		}
		out[c] = s
	}
	return out
}

// Transform projects every row of x.
func (m *KernelPCA) Transform(x *linalg.Matrix) *linalg.Matrix {
	out := linalg.NewMatrix(x.Rows, m.alphas.Cols)
	for i := 0; i < x.Rows; i++ {
		copy(out.Row(i), m.TransformVec(x.Row(i)))
	}
	return out
}

// ExplainedVariance returns the feature-space variance captured per
// component.
func (m *KernelPCA) ExplainedVariance() []float64 {
	return append([]float64(nil), m.lambda...)
}
