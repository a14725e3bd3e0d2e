// Package gp implements Gaussian-process regression ([19]), the fifth
// regressor family in the paper's Fmax-prediction study ([20]). The model
// places a GP prior with an RBF covariance over functions and returns the
// posterior mean and variance at new inputs; the predictive variance gives
// the calibrated uncertainty that distinguishes GP from the other four
// regressors.
package gp

import (
	"errors"
	"math"

	"repro/internal/core/colmat"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/linalg"
)

// Regressor is a fitted GP regression model.
type Regressor struct {
	K     kernel.Kernel
	X     *linalg.Matrix
	alpha []float64      // (K + σ²I)⁻¹ (y − mean)
	chol  *linalg.Matrix // Cholesky factor of K + σ²I
	mean  float64        // constant prior mean (training-label average)
	noise float64
}

// Config controls the GP fit.
type Config struct {
	Kernel kernel.Kernel // default RBF with gamma = 1/dim
	Noise  float64       // observation noise σ², default 1e-2
}

// Fit conditions the GP on the training data.
func Fit(d *dataset.Dataset, cfg Config) (*Regressor, error) {
	n := d.Len()
	if n == 0 {
		return nil, errors.New("gp: empty dataset")
	}
	k := cfg.Kernel
	if k == nil {
		k = kernel.RBF{Gamma: 1.0 / float64(d.Dim())}
	}
	noise := cfg.Noise
	if noise <= 0 {
		noise = 1e-2
	}
	mean := 0.0
	for _, v := range d.Y {
		mean += v
	}
	mean /= float64(n)

	gram := kernel.Gram(k, d.X)
	gram.AddDiag(noise)
	l, err := linalg.Cholesky(gram)
	if err != nil {
		return nil, err
	}
	yc := make([]float64, n)
	for i, v := range d.Y {
		yc[i] = v - mean
	}
	alpha := linalg.CholSolve(l, yc)
	return &Regressor{K: k, X: d.X.Clone(), alpha: alpha, chol: l, mean: mean, noise: noise}, nil
}

// Restore rebuilds a fitted Regressor from its persisted components (see
// internal/model): the kernel, training inputs, weight vector
// alpha = (K + σ²I)⁻¹ (y − mean), Cholesky factor of K + σ²I, prior
// mean, and observation noise. The arguments are retained, not copied.
func Restore(k kernel.Kernel, x *linalg.Matrix, alpha []float64, chol *linalg.Matrix, mean, noise float64) *Regressor {
	return &Regressor{K: k, X: x, alpha: alpha, chol: chol, mean: mean, noise: noise}
}

// Alpha returns the fitted weight vector (K + σ²I)⁻¹ (y − mean).
func (g *Regressor) Alpha() []float64 { return g.alpha }

// Chol returns the Cholesky factor of K + σ²I.
func (g *Regressor) Chol() *linalg.Matrix { return g.chol }

// Mean returns the constant prior mean (training-label average).
func (g *Regressor) Mean() float64 { return g.mean }

// Noise returns the observation noise σ².
func (g *Regressor) Noise() float64 { return g.noise }

// Predict returns the posterior mean at x.
func (g *Regressor) Predict(x []float64) float64 {
	mu, _ := g.PredictVar(x)
	return mu
}

// PredictBatchInto writes the posterior mean for every row of x into
// out (length x.Rows), amortizing the kernel evaluations through one
// CrossGram sweep (parallel across rows). Each mean is combined exactly
// as in PredictVar (mean + Dot(kx, alpha)), so the batch path is
// bit-identical to calling Predict row by row. The cross-Gram scratch
// is leased from the columnar arena, so a steady-state batch allocates
// nothing (alloc_test.go pins this at 0 allocs/op).
func (g *Regressor) PredictBatchInto(x *linalg.Matrix, out []float64) []float64 {
	if len(out) != x.Rows {
		panic("gp: PredictBatchInto output length mismatch")
	}
	kx := colmat.Get(x.Rows, g.X.Rows)
	kernel.CrossGramInto(g.K, x, g.X, kx)
	for i := range out {
		out[i] = g.mean + linalg.Dot(kx.Row(i), g.alpha)
	}
	colmat.Put(kx)
	return out
}

// PredictVarBatch returns the posterior mean and variance for every row
// of x. Each row is computed by exactly the expressions of PredictVar, so
// the batch path is bit-identical to calling PredictVar row by row; the
// conformance suite (internal/testkit) relies on that and on the
// mathematical bounds 0 ≤ var ≤ k(x,x) to validate every generated fit.
func (g *Regressor) PredictVarBatch(x *linalg.Matrix) (mu, variance []float64) {
	mu = make([]float64, x.Rows)
	variance = make([]float64, x.Rows)
	for i := range mu {
		mu[i], variance[i] = g.PredictVar(x.Row(i))
	}
	return mu, variance
}

// PredictVar returns the posterior mean and variance at x.
func (g *Regressor) PredictVar(x []float64) (mu, variance float64) {
	n := g.X.Rows
	kx := make([]float64, n)
	kernel.EvalRows(g.K, x, g.X.Data, kx)
	mu = g.mean + linalg.Dot(kx, g.alpha)
	// v = L⁻¹ kx via forward substitution; var = k(x,x) − vᵀv.
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		s := kx[i]
		for kk := 0; kk < i; kk++ {
			s -= g.chol.At(i, kk) * v[kk]
		}
		v[i] = s / g.chol.At(i, i)
	}
	variance = g.K.Eval(x, x) - linalg.Dot(v, v)
	if variance < 0 {
		variance = 0
	}
	return mu, variance
}

// PredictAll returns posterior means for every row of d.
func (g *Regressor) PredictAll(d *dataset.Dataset) []float64 {
	out := make([]float64, d.Len())
	for i := range out {
		out[i] = g.Predict(d.Row(i))
	}
	return out
}

// LogMarginalLikelihood returns log p(y | X) of the fitted GP, the
// model-selection criterion used to pick hyperparameters.
func (g *Regressor) LogMarginalLikelihood(y []float64) float64 {
	n := len(g.alpha)
	yc := make([]float64, n)
	for i, v := range y {
		yc[i] = v - g.mean
	}
	return -0.5*linalg.Dot(yc, g.alpha) - 0.5*linalg.CholLogDet(g.chol) -
		0.5*float64(n)*math.Log(2*math.Pi)
}

// SelectGamma fits one GP per candidate RBF gamma and returns the model
// maximizing the log marginal likelihood — the textbook GP model-selection
// recipe ([19]). It never touches held-out data.
func SelectGamma(d *dataset.Dataset, gammas []float64, noise float64) (*Regressor, float64, error) {
	if len(gammas) == 0 {
		return nil, 0, errors.New("gp: no candidate gammas")
	}
	var best *Regressor
	bestGamma := 0.0
	bestLML := math.Inf(-1)
	for _, gamma := range gammas {
		m, err := Fit(d, Config{Kernel: kernel.RBF{Gamma: gamma}, Noise: noise})
		if err != nil {
			continue // e.g. a degenerate gram for this gamma
		}
		if lml := m.LogMarginalLikelihood(d.Y); lml > bestLML {
			best, bestGamma, bestLML = m, gamma, lml
		}
	}
	if best == nil {
		return nil, 0, errors.New("gp: every candidate gamma failed to fit")
	}
	return best, bestGamma, nil
}
