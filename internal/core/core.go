// Package core is the methodology layer — the paper's actual contribution.
// It pins down the shared vocabulary of every application in this
// repository:
//
//   - Learning = Data + Knowledge (paper Section 1): data arrives as a
//     dataset.Dataset or as a kernel over arbitrary sample objects;
//     knowledge is injected either through the kernel (kernel-based
//     learning, Section 2.2) or through the feature definitions
//     (feature-based learning, Section 5).
//   - Uniform learner interfaces so applications can swap algorithm
//     families without touching problem formulation.
//   - The iterative knowledge-discovery loop of Section 5 (mine, present,
//     evaluate with domain knowledge, adjust, repeat) lives in
//     internal/stream, which runs it as an online service.
//
// The six packages under internal/apps are problem formulations built on
// this layer, one per paper figure/table.
package core

import (
	"fmt"

	"repro/internal/dataset"
)

// Classifier is a fitted classification model.
type Classifier interface {
	// Predict returns the class label of one sample.
	Predict(x []float64) float64
	// PredictAll labels every row of d.
	PredictAll(d *dataset.Dataset) []float64
}

// Regressor is a fitted regression model.
type Regressor interface {
	// Predict returns the response for one sample.
	Predict(x []float64) float64
	// PredictAll predicts every row of d.
	PredictAll(d *dataset.Dataset) []float64
}

// NoveltyDetector flags samples outside the training support — the usage
// model of the test-selection and customer-return applications.
type NoveltyDetector interface {
	// Decision returns a signed score; negative means novel.
	Decision(x []float64) float64
	// Novel reports whether x is outside the learned support.
	Novel(x []float64) bool
}

// RegressorFitter builds a regressor from a dataset.
type RegressorFitter func(d *dataset.Dataset) (Regressor, error)

// NamedRegressor pairs a regressor family with its report name; the §2.4
// five-family regression study ([20]) iterates over these.
type NamedRegressor struct {
	Name string
	Fit  RegressorFitter
}

// UsageCheck captures the paper's Section 1 criteria for a worthwhile data
// mining methodology. Applications fill it in and reports render it, so
// each experiment states explicitly why (or why not) mining is suitable.
type UsageCheck struct {
	// NoGuaranteeNeeded: the methodology is useful without guaranteed
	// learning results (criterion 1).
	NoGuaranteeNeeded bool
	// DataAvailable: the required data already exists or is cheap
	// (criterion 2).
	DataAvailable bool
	// AddsValue: complements, rather than replaces, existing tools
	// (criterion 3).
	AddsValue bool
	// NoExtraBurden: the flow does not cost the user more effort than
	// solving the problem without it (criterion 4).
	NoExtraBurden bool
}

// Suitable reports whether all four criteria hold. The Figure 12
// cost-reduction case fails criterion 1 — a guaranteed escape bound is
// demanded — which is exactly the paper's difficult case.
func (u UsageCheck) Suitable() bool {
	return u.NoGuaranteeNeeded && u.DataAvailable && u.AddsValue && u.NoExtraBurden
}

// String renders the check.
func (u UsageCheck) String() string {
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "NO"
	}
	return fmt.Sprintf("no-guarantee-needed=%s data-available=%s adds-value=%s no-extra-burden=%s => suitable=%v",
		mark(u.NoGuaranteeNeeded), mark(u.DataAvailable), mark(u.AddsValue),
		mark(u.NoExtraBurden), u.Suitable())
}
