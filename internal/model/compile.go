package model

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/kernel/approx"
	"repro/internal/linalg"
	"repro/internal/svm"
)

// Compiled approx-linear models. A trained kernel model (SVC, one-class
// SVM, GP) pays O(n·d) per prediction — a kernel evaluation against
// every support vector / training row. CompileApprox collapses that
// expansion through an approximate feature map (internal/kernel/approx)
// into a single weight vector at save time, so the served model scores
// in O(D·d) regardless of training-set size. The compiled form persists
// in the same schema-v1 envelope with the optional "approx" field set;
// artifacts without the field are untouched, so every pre-existing
// file still loads byte-identically.

// Approx method names accepted by ApproxSpec and ParseApproxSpec.
const (
	ApproxRFF     = "rff"     // random Fourier features (RBF kernels only)
	ApproxNystrom = "nystrom" // landmark approximation (any PSD kernel)
)

// ApproxSpec describes a compiled feature map: the method, its output
// dimension (D for RFF, landmark count m for Nyström), and the seed the
// map was drawn from. It is persisted in the envelope, so a compiled
// artifact is reproducible from (source model, spec).
type ApproxSpec struct {
	Method string `json:"method"`
	Dim    int    `json:"dim"`
	Seed   int64  `json:"seed"`
}

func (s ApproxSpec) String() string { return fmt.Sprintf("%s:%d", s.Method, s.Dim) }

// ParseApproxSpec parses the CLI form "rff:D" or "nystrom:m".
func ParseApproxSpec(arg string, seed int64) (ApproxSpec, error) {
	method, dims, ok := strings.Cut(arg, ":")
	if !ok {
		return ApproxSpec{}, fmt.Errorf("model: approx spec %q: want rff:D or nystrom:m", arg)
	}
	if method != ApproxRFF && method != ApproxNystrom {
		return ApproxSpec{}, fmt.Errorf("model: unknown approx method %q (want rff or nystrom)", method)
	}
	dim, err := strconv.Atoi(dims)
	if err != nil || dim <= 0 || dim > approx.MaxDim {
		return ApproxSpec{}, fmt.Errorf("model: approx dimension %q: want 1..%d", dims, approx.MaxDim)
	}
	return ApproxSpec{Method: method, Dim: dim, Seed: seed}, nil
}

// ApproxModel is a kernel model compiled into an O(d) linear scorer:
// Score(x) = W·z(x) + bias through the spec's feature map, plus the
// source kind's output mapping (sign → class label for SVC). It is a
// persistable model kind-mate: Encode stores it under the source kind
// with Envelope.Approx set.
type ApproxModel struct {
	SourceKind Kind        // svc | oneclass | gp
	Spec       ApproxSpec  // the map that was compiled (Dim is the actual dim)
	Kernel     *KernelSpec // the source kernel (rebuilds Nyström, provenance for RFF)
	Lin        *approx.Linear
	Classes    [2]float64 // SVC label mapping; unused otherwise
}

// Decision returns the raw compiled score W·z(x)+bias — the margin for
// SVC, the novelty decision value for one-class, the posterior mean for
// GP. This is the quantity error bounds are stated against.
func (m *ApproxModel) Decision(x []float64) float64 { return m.Lin.Score(x) }

// ScoreRow returns the source kind's primary output (see Scorer).
func (m *ApproxModel) ScoreRow(x []float64) float64 {
	s := m.Lin.Score(x)
	if m.SourceKind == KindSVC {
		if s >= 0 {
			return m.Classes[1]
		}
		return m.Classes[0]
	}
	return s
}

// ScoreBatchInto scores every row of x into out (length x.Rows),
// bit-identical to ScoreRow per row. It delegates the raw scores to the
// compiled scorer's zero-alloc batch path before applying the source
// kind's output mapping in place.
func (m *ApproxModel) ScoreBatchInto(x *linalg.Matrix, out []float64) []float64 {
	out = m.Lin.ScoreBatchInto(x, out)
	if m.SourceKind == KindSVC {
		for i, s := range out {
			if s >= 0 {
				out[i] = m.Classes[1]
			} else {
				out[i] = m.Classes[0]
			}
		}
	}
	return out
}

// Expansion is an exact kernel model's raw decision written as a
// kernel expansion, Σ_i Coef[i]·k(x, Basis row i) + Bias: the margin for
// SVC, the novelty decision value for one-class, the posterior mean for
// GP. It is what CompileApprox collapses, and Decision (the model's own
// method) is what a compiled scorer's error is measured against.
type Expansion struct {
	Kind     Kind // KindSVC, KindOneClass or KindGP
	Kernel   kernel.Kernel
	Basis    *linalg.Matrix
	Coef     []float64
	Bias     float64
	Classes  [2]float64 // SVC label mapping; zero otherwise
	Decision func(x []float64) float64
}

// ExpansionOf returns the expansion of an exact kernel model (*svm.SVC,
// *svm.OneClass or *gp.Regressor), or false for any other model.
func ExpansionOf(m any) (Expansion, bool) {
	switch mm := m.(type) {
	case *svm.SVC:
		return Expansion{Kind: KindSVC, Kernel: mm.K, Basis: mm.SV, Coef: mm.Alpha, Bias: mm.B,
			Classes: mm.Classes(), Decision: mm.Decision}, true
	case *svm.OneClass:
		return Expansion{Kind: KindOneClass, Kernel: mm.K, Basis: mm.SV, Coef: mm.Alpha, Bias: -mm.Rho,
			Decision: mm.Decision}, true
	case *gp.Regressor:
		return Expansion{Kind: KindGP, Kernel: mm.K, Basis: mm.X, Coef: mm.Alpha(), Bias: mm.Mean(),
			Decision: mm.Predict}, true
	}
	return Expansion{}, false
}

// CompileApprox compiles a fitted kernel model into an approx-linear
// scorer: it builds the feature map for the source kernel and collapses
// the expansion through it. RFF accepts only the RBF kernel (it
// approximates the Gaussian spectral measure); Nyström accepts any
// persistable kernel. The returned model's Spec.Dim is the dimension
// actually used (Nyström clamps m to the basis size).
func CompileApprox(m any, spec ApproxSpec) (*ApproxModel, error) {
	e, ok := ExpansionOf(m)
	if !ok {
		return nil, fmt.Errorf("%w: cannot compile %T to approx-linear", ErrKind, m)
	}
	kspec, err := SpecOf(e.Kernel)
	if err != nil {
		return nil, err
	}
	var fm approx.FeatureMap
	switch spec.Method {
	case ApproxRFF:
		rbf, ok := e.Kernel.(kernel.RBF)
		if !ok {
			return nil, fmt.Errorf("%w: rff requires an RBF kernel, model uses %s",
				approx.ErrKernel, e.Kernel.Name())
		}
		fm, err = approx.NewRFF(rbf.Gamma, e.Basis.Cols, spec.Dim, spec.Seed)
	case ApproxNystrom:
		fm, err = approx.NewNystrom(e.Kernel, e.Basis, spec.Dim, spec.Seed)
	default:
		return nil, fmt.Errorf("%w: unknown approx method %q", ErrInvalid, spec.Method)
	}
	if err != nil {
		return nil, err
	}
	lin, err := approx.Compile(fm, e.Basis, e.Coef, e.Bias)
	if err != nil {
		return nil, err
	}
	spec.Dim = fm.Dim() // record the dimension actually drawn
	return &ApproxModel{
		SourceKind: e.Kind, Spec: spec, Kernel: kspec, Lin: lin, Classes: e.Classes,
	}, nil
}
