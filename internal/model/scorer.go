package model

import (
	"fmt"

	"repro/internal/gp"
	"repro/internal/linalg"
	"repro/internal/linear"
	"repro/internal/rules"
	"repro/internal/svm"
	"repro/internal/tree"
)

// Scorer is the uniform prediction surface over every persistable model
// kind, used by the inference server and the CLIs. ScoreRow returns the
// model's primary scalar output for one sample — the predicted class
// label for SVC / tree / rule-set classifiers, the posterior or fitted
// mean for GP / ridge regressors, and the signed decision value for the
// one-class detector (negative = novel).
type Scorer interface {
	ScoreRow(x []float64) float64
	// ScoreBatchInto scores every row of x through the model's amortized
	// batch path, bit-identical to calling ScoreRow per row, writing into
	// a caller-provided slice of length x.Rows (panics on length
	// mismatch) and returning it. It is the zero-allocation serving path:
	// every model kind routes through pooled columnar scratch, so a
	// steady-state call allocates nothing (alloc_test.go pins this at
	// 0 allocs/op).
	ScoreBatchInto(x *linalg.Matrix, out []float64) []float64
	// Dim returns the expected input width (0 when the model accepts any
	// width, e.g. a rule set with no conditions).
	Dim() int
}

// Scorer returns the prediction surface for the artifact's model kind.
func (a *Artifact) Scorer() (Scorer, error) {
	switch m := a.Model.(type) {
	case *ApproxModel:
		// Compiled fast path: one dot product through the feature map, no
		// kernel expansion. Checked first so a compiled artifact can never
		// fall through to an exact-kind scorer.
		return approxScorer{m}, nil
	case *svm.SVC:
		return svcScorer{m}, nil
	case *svm.OneClass:
		return oneClassScorer{m}, nil
	case *linear.Regression:
		return ridgeScorer{m}, nil
	case *gp.Regressor:
		return gpScorer{m}, nil
	case *tree.Tree:
		return treeScorer{m, a.Envelope.Features}, nil
	case *rules.RuleSet:
		return ruleSetScorer{m, a.Envelope.Features}, nil
	default:
		return nil, fmt.Errorf("%w: no scorer for %T", ErrKind, a.Model)
	}
}

type approxScorer struct{ m *ApproxModel }

func (s approxScorer) ScoreRow(x []float64) float64 { return s.m.ScoreRow(x) }
func (s approxScorer) ScoreBatchInto(x *linalg.Matrix, out []float64) []float64 {
	return s.m.ScoreBatchInto(x, out)
}
func (s approxScorer) Dim() int { return s.m.Lin.Map.InputDim() }

type svcScorer struct{ m *svm.SVC }

func (s svcScorer) ScoreRow(x []float64) float64 { return s.m.Predict(x) }
func (s svcScorer) ScoreBatchInto(x *linalg.Matrix, out []float64) []float64 {
	return s.m.PredictBatchInto(x, out)
}
func (s svcScorer) Dim() int { return s.m.SV.Cols }

type oneClassScorer struct{ m *svm.OneClass }

func (s oneClassScorer) ScoreRow(x []float64) float64 { return s.m.Decision(x) }
func (s oneClassScorer) ScoreBatchInto(x *linalg.Matrix, out []float64) []float64 {
	return s.m.DecisionBatchInto(x, out)
}
func (s oneClassScorer) Dim() int { return s.m.SV.Cols }

type ridgeScorer struct{ m *linear.Regression }

func (s ridgeScorer) ScoreRow(x []float64) float64 { return s.m.Predict(x) }
func (s ridgeScorer) ScoreBatchInto(x *linalg.Matrix, out []float64) []float64 {
	return s.m.PredictBatchInto(x, out)
}
func (s ridgeScorer) Dim() int { return len(s.m.W) }

type gpScorer struct{ m *gp.Regressor }

func (s gpScorer) ScoreRow(x []float64) float64 { return s.m.Predict(x) }
func (s gpScorer) ScoreBatchInto(x *linalg.Matrix, out []float64) []float64 {
	return s.m.PredictBatchInto(x, out)
}
func (s gpScorer) Dim() int { return s.m.X.Cols }

type treeScorer struct {
	m   *tree.Tree
	dim int
}

func (s treeScorer) ScoreRow(x []float64) float64 { return s.m.Predict(x) }
func (s treeScorer) ScoreBatchInto(x *linalg.Matrix, out []float64) []float64 {
	return s.m.PredictBatchInto(x, out)
}
func (s treeScorer) Dim() int { return s.dim }

type ruleSetScorer struct {
	m   *rules.RuleSet
	dim int
}

func (s ruleSetScorer) ScoreRow(x []float64) float64 { return s.m.Predict(x) }
func (s ruleSetScorer) ScoreBatchInto(x *linalg.Matrix, out []float64) []float64 {
	return s.m.PredictBatchInto(x, out)
}
func (s ruleSetScorer) Dim() int { return s.dim }
