// Package linear implements the linear model family surveyed in the paper:
// ordinary least squares (LSF), ridge regression (regularized LSF), and
// logistic regression. These are the "model estimation" learners of
// Section 2.1 — assume a hyperplane M(f1..fn) = w·f + b and estimate the
// parameters from data — and two of the five regressor families compared in
// the Fmax-prediction study ([20]).
package linear

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/parallel"
)

// Regression is a fitted linear regression model y ≈ w·x + b.
type Regression struct {
	W []float64
	B float64
}

// FitOLS fits ordinary least squares with an intercept.
func FitOLS(d *dataset.Dataset) (*Regression, error) {
	return fitRidge(d, 0)
}

// FitRidge fits L2-regularized least squares (the paper's "regularized
// LSF"): min ||Xw - y||² + lambda ||w||². The intercept is not penalized.
func FitRidge(d *dataset.Dataset, lambda float64) (*Regression, error) {
	if lambda < 0 {
		return nil, errors.New("linear: negative ridge penalty")
	}
	return fitRidge(d, lambda)
}

func fitRidge(d *dataset.Dataset, lambda float64) (*Regression, error) {
	n, p := d.Len(), d.Dim()
	if n == 0 {
		return nil, errors.New("linear: empty dataset")
	}
	// Center X and y so the intercept is estimated separately and the
	// penalty never touches it.
	xm := make([]float64, p)
	for j := 0; j < p; j++ {
		s := 0.0
		for i := 0; i < n; i++ {
			s += d.X.At(i, j)
		}
		xm[j] = s / float64(n)
	}
	ym := 0.0
	for _, v := range d.Y {
		ym += v
	}
	ym /= float64(n)

	// Normal equations on centered data: (XcᵀXc + lambda I) w = Xcᵀ yc.
	a := linalg.NewMatrix(p, p)
	b := make([]float64, p)
	for i := 0; i < n; i++ {
		row := d.Row(i)
		yc := d.Y[i] - ym
		for j := 0; j < p; j++ {
			xj := row[j] - xm[j]
			b[j] += xj * yc
			for k := j; k < p; k++ {
				a.Set(j, k, a.At(j, k)+xj*(row[k]-xm[k]))
			}
		}
	}
	for j := 0; j < p; j++ {
		for k := 0; k < j; k++ {
			a.Set(j, k, a.At(k, j))
		}
	}
	a.AddDiag(lambda + 1e-10) // tiny jitter keeps OLS solvable when X is thin
	w, err := linalg.SolveSPD(a, b)
	if err != nil {
		return nil, err
	}
	bIntercept := ym - linalg.Dot(w, xm)
	return &Regression{W: w, B: bIntercept}, nil
}

// Predict returns w·x + b.
func (r *Regression) Predict(x []float64) float64 {
	return linalg.Dot(r.W, x) + r.B
}

// PredictBatchInto writes Predict for every row of x into out (length
// x.Rows), striping rows across the worker pool. Each row is scored by
// the same expression as Predict, so the result is bit-identical at any
// worker count. The serial path calls the scoring loop directly — no
// closure, no goroutines — so a steady-state batch allocates nothing
// (alloc_test.go pins this at 0 allocs/op).
func (r *Regression) PredictBatchInto(x *linalg.Matrix, out []float64) []float64 {
	if len(out) != x.Rows {
		panic("linear: PredictBatchInto output length mismatch")
	}
	if parallel.Workers() <= 1 || x.Rows < batchCutover {
		r.predictRange(x, out, 0, x.Rows)
	} else {
		parallel.ForN(x.Rows, batchCutover, func(lo, hi int) {
			r.predictRange(x, out, lo, hi)
		})
	}
	return out
}

func (r *Regression) predictRange(x *linalg.Matrix, out []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = r.Predict(x.Row(i))
	}
}

// batchCutover keeps small prediction batches serial: a single linear or
// tree scoring pass is too cheap to amortize goroutine startup below a
// few hundred rows.
const batchCutover = 256

// Validate checks that the fitted weights and intercept are finite — the
// invariant the conformance suite asserts after every generated fit
// (including fits on adversarial inputs such as constant or duplicated
// features, which the normal-equation jitter must keep solvable).
func (r *Regression) Validate() error {
	for j, w := range r.W {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("linear: non-finite weight %v at %d", w, j)
		}
	}
	if math.IsNaN(r.B) || math.IsInf(r.B, 0) {
		return fmt.Errorf("linear: non-finite intercept %v", r.B)
	}
	return nil
}

// PredictAll predicts every row of d.
func (r *Regression) PredictAll(d *dataset.Dataset) []float64 {
	out := make([]float64, d.Len())
	for i := range out {
		out[i] = r.Predict(d.Row(i))
	}
	return out
}

// PolynomialFeatures expands a 1-D dataset into powers x, x², … x^degree.
// It powers the Figure 5 model-complexity sweep.
func PolynomialFeatures(d *dataset.Dataset, degree int) *dataset.Dataset {
	if d.Dim() != 1 {
		panic("linear: PolynomialFeatures requires 1-D input")
	}
	x := linalg.NewMatrix(d.Len(), degree)
	for i := 0; i < d.Len(); i++ {
		v := d.Row(i)[0]
		pow := 1.0
		row := x.Row(i)
		for j := 0; j < degree; j++ {
			pow *= v
			row[j] = pow
		}
	}
	return dataset.MustNew(x, d.Y, nil)
}

// Logistic is a fitted binary logistic regression classifier with classes
// {0, 1}.
type Logistic struct {
	W []float64
	B float64
}

// LogisticConfig controls the gradient-descent fit.
type LogisticConfig struct {
	LearningRate float64 // default 0.1
	Epochs       int     // default 500
	L2           float64 // optional L2 penalty
}

// FitLogistic fits binary logistic regression by full-batch gradient
// descent. Labels must be 0/1.
func FitLogistic(d *dataset.Dataset, cfg LogisticConfig) (*Logistic, error) {
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.1
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 500
	}
	n, p := d.Len(), d.Dim()
	if n == 0 {
		return nil, errors.New("linear: empty dataset")
	}
	for _, v := range d.Y {
		if v != 0 && v != 1 {
			return nil, errors.New("linear: logistic labels must be 0/1")
		}
	}
	w := make([]float64, p)
	b := 0.0
	gw := make([]float64, p)
	for ep := 0; ep < cfg.Epochs; ep++ {
		for j := range gw {
			gw[j] = 0
		}
		gb := 0.0
		for i := 0; i < n; i++ {
			row := d.Row(i)
			z := linalg.Dot(w, row) + b
			pHat := sigmoid(z)
			e := pHat - d.Y[i]
			for j := range gw {
				gw[j] += e * row[j]
			}
			gb += e
		}
		inv := 1.0 / float64(n)
		for j := range w {
			w[j] -= cfg.LearningRate * (gw[j]*inv + cfg.L2*w[j])
		}
		b -= cfg.LearningRate * gb * inv
	}
	return &Logistic{W: w, B: b}, nil
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Prob returns P(y=1 | x).
func (l *Logistic) Prob(x []float64) float64 {
	return sigmoid(linalg.Dot(l.W, x) + l.B)
}

// Predict returns the most likely class, 0 or 1.
func (l *Logistic) Predict(x []float64) float64 {
	if l.Prob(x) >= 0.5 {
		return 1
	}
	return 0
}

// PredictAll predicts every row of d.
func (l *Logistic) PredictAll(d *dataset.Dataset) []float64 {
	out := make([]float64, d.Len())
	for i := range out {
		out[i] = l.Predict(d.Row(i))
	}
	return out
}

// Perceptron is the classic mistake-driven linear classifier; it exists to
// certify linear *in*separability: on a linearly separable set it converges
// to zero training errors, on Figure 3's ring-and-core it cannot.
type Perceptron struct {
	W []float64
	B float64
}

// FitPerceptron runs at most epochs passes, returning the model and the
// number of mistakes in the final pass (0 means separated).
func FitPerceptron(d *dataset.Dataset, epochs int) (*Perceptron, int) {
	p := &Perceptron{W: make([]float64, d.Dim())}
	mistakes := 0
	for ep := 0; ep < epochs; ep++ {
		mistakes = 0
		for i := 0; i < d.Len(); i++ {
			row := d.Row(i)
			yi := 2*d.Y[i] - 1 // map {0,1} -> {-1,+1}
			if yi*(linalg.Dot(p.W, row)+p.B) <= 0 {
				mistakes++
				for j := range p.W {
					p.W[j] += yi * row[j]
				}
				p.B += yi
			}
		}
		if mistakes == 0 {
			break
		}
	}
	return p, mistakes
}

// Predict returns the class 0/1.
func (p *Perceptron) Predict(x []float64) float64 {
	if linalg.Dot(p.W, x)+p.B > 0 {
		return 1
	}
	return 0
}
