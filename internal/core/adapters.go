package core

import (
	"repro/internal/dataset"
	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/knn"
	"repro/internal/linear"
	"repro/internal/svm"
	"repro/internal/tree"
)

// FiveRegressors returns the five regressor families of the paper's Fmax
// prediction study ([20]): nearest neighbor, least squares fit, regularized
// LSF (ridge), SVM regression, and Gaussian process.
func FiveRegressors() []NamedRegressor {
	return []NamedRegressor{
		{Name: "kNN", Fit: func(d *dataset.Dataset) (Regressor, error) {
			m, err := knn.Fit(d, 5, nil)
			if err != nil {
				return nil, err
			}
			return knnRegressor{m}, nil
		}},
		{Name: "LSF", Fit: func(d *dataset.Dataset) (Regressor, error) {
			return linear.FitOLS(d)
		}},
		{Name: "ridge", Fit: func(d *dataset.Dataset) (Regressor, error) {
			return linear.FitRidge(d, 1.0)
		}},
		{Name: "SVR", Fit: func(d *dataset.Dataset) (Regressor, error) {
			return svm.FitSVR(d, kernel.RBF{Gamma: 1.0 / float64(d.Dim())},
				svm.SVRConfig{C: 10, Epsilon: 0.1, MaxIters: 30000})
		}},
		{Name: "GP", Fit: func(d *dataset.Dataset) (Regressor, error) {
			return gp.Fit(d, gp.Config{Kernel: kernel.RBF{Gamma: 1.0 / float64(d.Dim())}, Noise: 0.05})
		}},
	}
}

// knnRegressor adapts the kNN model's Regress method to the Regressor
// interface.
type knnRegressor struct{ m *knn.Model }

func (k knnRegressor) Predict(x []float64) float64 { return k.m.Regress(x) }
func (k knnRegressor) PredictAll(d *dataset.Dataset) []float64 {
	return k.m.RegressAll(d)
}

// Interface conformance checks for the concrete learner types used across
// the applications.
var (
	_ Regressor       = (*linear.Regression)(nil)
	_ Regressor       = (*gp.Regressor)(nil)
	_ Regressor       = (*svm.SVR)(nil)
	_ Classifier      = (*tree.Tree)(nil)
	_ Classifier      = (*tree.Forest)(nil)
	_ Classifier      = (*svm.SVC)(nil)
	_ NoveltyDetector = (*svm.OneClass)(nil)
)
