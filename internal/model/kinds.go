package model

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/kernel/approx"
	"repro/internal/linalg"
	"repro/internal/linear"
	"repro/internal/rules"
	"repro/internal/svm"
	"repro/internal/tree"
)

// KernelSpec is the persistable description of a vector kernel. It
// covers the closed-form kernels of internal/kernel (linear, poly, RBF,
// sigmoid, histogram intersection, plus the cosine-normalized wrapper);
// data-dependent kernels such as the n-gram spectrum family carry state
// that belongs to the sample representation, not the model, and are
// rejected at save time.
type KernelSpec struct {
	Name      string  `json:"name"` // linear | poly | rbf | sigmoid | histogram-intersection
	Degree    int     `json:"degree,omitempty"`
	Gamma     float64 `json:"gamma,omitempty"`
	Coef0     float64 `json:"coef0,omitempty"`
	Normalize bool    `json:"normalize,omitempty"` // wrapped in kernel.Normalize
}

// SpecOf captures a kernel as a KernelSpec, or ErrKernel when the
// kernel has no persistable form.
func SpecOf(k kernel.Kernel) (*KernelSpec, error) {
	spec := &KernelSpec{}
	if n, ok := k.(kernel.Normalize); ok {
		spec.Normalize = true
		k = n.K
	}
	switch kk := k.(type) {
	case kernel.Linear:
		spec.Name = "linear"
	case kernel.Poly:
		spec.Name = "poly"
		spec.Degree = kk.Degree
		spec.Gamma = kk.Gamma
		spec.Coef0 = kk.Coef0
	case kernel.RBF:
		spec.Name = "rbf"
		spec.Gamma = kk.Gamma
	case kernel.Sigmoid:
		spec.Name = "sigmoid"
		spec.Gamma = kk.Gamma
		spec.Coef0 = kk.Coef0
	case kernel.HistogramIntersection:
		spec.Name = "histogram-intersection"
	default:
		return nil, fmt.Errorf("%w: %T (%s)", ErrKernel, k, k.Name())
	}
	return spec, nil
}

// Build reconstructs the kernel the spec describes.
func (s *KernelSpec) Build() (kernel.Kernel, error) {
	var k kernel.Kernel
	switch s.Name {
	case "linear":
		k = kernel.Linear{}
	case "poly":
		k = kernel.Poly{Degree: s.Degree, Gamma: s.Gamma, Coef0: s.Coef0}
	case "rbf":
		k = kernel.RBF{Gamma: s.Gamma}
	case "sigmoid":
		k = kernel.Sigmoid{Gamma: s.Gamma, Coef0: s.Coef0}
	case "histogram-intersection":
		k = kernel.HistogramIntersection{}
	default:
		return nil, fmt.Errorf("%w: %q", ErrKernel, s.Name)
	}
	if s.Normalize {
		k = kernel.Normalize{K: k}
	}
	return k, nil
}

// matrixJSON is the persisted form of a dense matrix.
type matrixJSON struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

func matrixOut(m *linalg.Matrix) matrixJSON {
	return matrixJSON{Rows: m.Rows, Cols: m.Cols, Data: m.Data}
}

func (m matrixJSON) build() (*linalg.Matrix, error) {
	// The element-count comparison must not be reachable through integer
	// overflow: a forged shape like 2^31 x 2^33 wraps Rows*Cols to 0 and
	// would "match" an empty Data slice, yielding a matrix whose Row()
	// panics. Bound the product first.
	if m.Rows < 0 || m.Cols < 0 || (m.Rows > 0 && m.Cols > math.MaxInt/m.Rows) ||
		len(m.Data) != m.Rows*m.Cols {
		return nil, fmt.Errorf("%w: matrix shape %dx%d does not match %d elements",
			ErrInvalid, m.Rows, m.Cols, len(m.Data))
	}
	return &linalg.Matrix{Rows: m.Rows, Cols: m.Cols, Data: m.Data}, nil
}

// Kind-specific payloads. These mirror the fitted model structs rather
// than embedding them so the artifact format stays stable even when the
// in-memory structs are refactored.
type (
	svcPayload struct {
		SV      matrixJSON `json:"sv"`
		Alpha   []float64  `json:"alpha"`
		B       float64    `json:"b"`
		Classes [2]float64 `json:"classes"`
	}
	oneClassPayload struct {
		SV    matrixJSON `json:"sv"`
		Alpha []float64  `json:"alpha"`
		Rho   float64    `json:"rho"`
		Nu    float64    `json:"nu"`
	}
	ridgePayload struct {
		W []float64 `json:"w"`
		B float64   `json:"b"`
	}
	gpPayload struct {
		X     matrixJSON `json:"x"`
		Alpha []float64  `json:"alpha"`
		Chol  matrixJSON `json:"chol"`
		Mean  float64    `json:"mean"`
		Noise float64    `json:"noise"`
	}
	treeNodeJSON struct {
		Feature   int           `json:"feature,omitempty"`
		Threshold float64       `json:"threshold,omitempty"`
		Left      *treeNodeJSON `json:"left,omitempty"`
		Right     *treeNodeJSON `json:"right,omitempty"`
		Leaf      bool          `json:"leaf,omitempty"`
		Value     float64       `json:"value,omitempty"`
		N         int           `json:"n,omitempty"`
	}
	treePayload struct {
		MaxDepth   int           `json:"max_depth"`
		MinLeaf    int           `json:"min_leaf"`
		Regression bool          `json:"regression,omitempty"`
		Root       *treeNodeJSON `json:"root"`
	}
	conditionJSON struct {
		Feature   int     `json:"feature"`
		Op        int     `json:"op"` // 0: <=, 1: >
		Threshold float64 `json:"threshold"`
		Name      string  `json:"name,omitempty"`
	}
	ruleJSON struct {
		Conditions []conditionJSON `json:"conditions"`
		Class      int             `json:"class"`
		WRAcc      float64         `json:"wracc"`
		Coverage   int             `json:"coverage"`
		Positives  int             `json:"positives"`
	}
	ruleSetPayload struct {
		Rules   []ruleJSON `json:"rules"`
		Target  int        `json:"target"`
		Default int        `json:"default"`
	}
	// approxLinearPayload is the compiled form of a kernel model (see
	// compile.go). Proj is the RFF frequency matrix (D×d) or the Nyström
	// landmark matrix (m×d); Phase/Whiten are method-specific. The
	// envelope's Approx field says which method applies.
	approxLinearPayload struct {
		Proj    matrixJSON  `json:"proj"`
		Phase   []float64   `json:"phase,omitempty"`  // rff only: D phase offsets
		Whiten  *matrixJSON `json:"whiten,omitempty"` // nystrom only: m×m whitening
		W       []float64   `json:"w"`
		Bias    float64     `json:"bias"`
		Classes *[2]float64 `json:"classes,omitempty"` // svc only
	}
)

func treeNodeOut(n *tree.Node) *treeNodeJSON {
	if n == nil {
		return nil
	}
	return &treeNodeJSON{
		Feature:   n.Feature,
		Threshold: n.Threshold,
		Left:      treeNodeOut(n.Left),
		Right:     treeNodeOut(n.Right),
		Leaf:      n.Leaf,
		Value:     n.Value,
		N:         n.N,
	}
}

func (n *treeNodeJSON) build() *tree.Node {
	if n == nil {
		return nil
	}
	return &tree.Node{
		Feature:   n.Feature,
		Threshold: n.Threshold,
		Left:      n.Left.build(),
		Right:     n.Right.build(),
		Leaf:      n.Leaf,
		Value:     n.Value,
		N:         n.N,
	}
}

// encodePayload dispatches on the fitted model type.
func encodePayload(m any) (kind Kind, features int, kspec *KernelSpec, payload []byte, err error) {
	marshal := func(v any) []byte {
		payload, err = marshalPayload(v)
		if err != nil {
			err = fmt.Errorf("model: marshal payload: %w", err)
		}
		return payload
	}
	switch mm := m.(type) {
	case *svm.SVC:
		kspec, err = SpecOf(mm.K)
		if err != nil {
			return "", 0, nil, nil, err
		}
		return KindSVC, mm.SV.Cols, kspec, marshal(svcPayload{
			SV: matrixOut(mm.SV), Alpha: mm.Alpha, B: mm.B, Classes: mm.Classes(),
		}), err
	case *svm.OneClass:
		kspec, err = SpecOf(mm.K)
		if err != nil {
			return "", 0, nil, nil, err
		}
		return KindOneClass, mm.SV.Cols, kspec, marshal(oneClassPayload{
			SV: matrixOut(mm.SV), Alpha: mm.Alpha, Rho: mm.Rho, Nu: mm.Nu,
		}), err
	case *linear.Regression:
		return KindRidge, len(mm.W), nil, marshal(ridgePayload{W: mm.W, B: mm.B}), err
	case *gp.Regressor:
		kspec, err = SpecOf(mm.K)
		if err != nil {
			return "", 0, nil, nil, err
		}
		return KindGP, mm.X.Cols, kspec, marshal(gpPayload{
			X: matrixOut(mm.X), Alpha: mm.Alpha(), Chol: matrixOut(mm.Chol()),
			Mean: mm.Mean(), Noise: mm.Noise(),
		}), err
	case *tree.Tree:
		return KindTree, treeFeatures(mm.Root), nil, marshal(treePayload{
			MaxDepth: mm.Config.MaxDepth, MinLeaf: mm.Config.MinLeaf,
			Regression: mm.Config.Regression, Root: treeNodeOut(mm.Root),
		}), err
	case *ApproxModel:
		switch mm.SourceKind {
		case KindSVC, KindOneClass, KindGP:
		default:
			return "", 0, nil, nil, fmt.Errorf("%w: approx-linear cannot represent kind %q", ErrKind, mm.SourceKind)
		}
		p := approxLinearPayload{W: mm.Lin.W, Bias: mm.Lin.Bias}
		switch fm := mm.Lin.Map.(type) {
		case *approx.RFF:
			p.Proj = matrixOut(fm.Omega)
			p.Phase = fm.Phase
		case *approx.Nystrom:
			p.Proj = matrixOut(fm.Landmarks)
			wh := matrixOut(fm.Whiten)
			p.Whiten = &wh
		default:
			return "", 0, nil, nil, fmt.Errorf("%w: cannot persist feature map %T", ErrKind, mm.Lin.Map)
		}
		if mm.SourceKind == KindSVC {
			cls := mm.Classes
			p.Classes = &cls
		}
		return mm.SourceKind, mm.Lin.Map.InputDim(), mm.Kernel, marshal(p), err
	case *rules.RuleSet:
		out := ruleSetPayload{Target: mm.Target, Default: mm.Default}
		maxFeat := -1
		for _, r := range mm.Rules {
			rj := ruleJSON{Class: r.Class, WRAcc: r.WRAcc, Coverage: r.Coverage, Positives: r.Positives}
			for _, c := range r.Conditions {
				rj.Conditions = append(rj.Conditions, conditionJSON{
					Feature: c.Feature, Op: int(c.Op), Threshold: c.Threshold, Name: c.Name,
				})
				if c.Feature > maxFeat {
					maxFeat = c.Feature
				}
			}
			out.Rules = append(out.Rules, rj)
		}
		return KindRuleSet, maxFeat + 1, nil, marshal(out), err
	default:
		return "", 0, nil, nil, fmt.Errorf("%w: cannot persist %T", ErrKind, m)
	}
}

// treeFeatures returns 1 + the highest feature index the tree splits on
// — the minimum input width the tree can score.
func treeFeatures(n *tree.Node) int {
	if n == nil || n.Leaf {
		return 0
	}
	f := n.Feature + 1
	if l := treeFeatures(n.Left); l > f {
		f = l
	}
	if r := treeFeatures(n.Right); r > f {
		f = r
	}
	return f
}

// decodePayload rebuilds the fitted model described by the envelope.
func decodePayload(env *Envelope) (any, error) {
	if env.Approx != nil {
		return decodeApproxPayload(env)
	}
	unmarshal := func(v any) error {
		if err := json.Unmarshal(env.Payload, v); err != nil {
			return fmt.Errorf("model: parse %s payload: %w", env.Kind, err)
		}
		return nil
	}
	buildKernel := func() (kernel.Kernel, error) {
		if env.Kernel == nil {
			return nil, fmt.Errorf("%w: %s artifact is missing its kernel spec", ErrKernel, env.Kind)
		}
		return env.Kernel.Build()
	}
	switch env.Kind {
	case KindSVC:
		var p svcPayload
		if err := unmarshal(&p); err != nil {
			return nil, err
		}
		k, err := buildKernel()
		if err != nil {
			return nil, err
		}
		sv, err := p.SV.build()
		if err != nil {
			return nil, err
		}
		if len(p.Alpha) != sv.Rows {
			return nil, fmt.Errorf("%w: svc has %d support vectors but %d alphas", ErrInvalid, sv.Rows, len(p.Alpha))
		}
		return svm.RestoreSVC(k, sv, p.Alpha, p.B, p.Classes), nil
	case KindOneClass:
		var p oneClassPayload
		if err := unmarshal(&p); err != nil {
			return nil, err
		}
		k, err := buildKernel()
		if err != nil {
			return nil, err
		}
		sv, err := p.SV.build()
		if err != nil {
			return nil, err
		}
		if len(p.Alpha) != sv.Rows {
			return nil, fmt.Errorf("%w: oneclass has %d support vectors but %d alphas", ErrInvalid, sv.Rows, len(p.Alpha))
		}
		return &svm.OneClass{K: k, SV: sv, Alpha: p.Alpha, Rho: p.Rho, Nu: p.Nu}, nil
	case KindRidge:
		var p ridgePayload
		if err := unmarshal(&p); err != nil {
			return nil, err
		}
		return &linear.Regression{W: p.W, B: p.B}, nil
	case KindGP:
		var p gpPayload
		if err := unmarshal(&p); err != nil {
			return nil, err
		}
		k, err := buildKernel()
		if err != nil {
			return nil, err
		}
		x, err := p.X.build()
		if err != nil {
			return nil, err
		}
		chol, err := p.Chol.build()
		if err != nil {
			return nil, err
		}
		if len(p.Alpha) != x.Rows || chol.Rows != x.Rows || chol.Cols != x.Rows {
			return nil, fmt.Errorf("%w: gp shapes disagree: %d training rows, %d alphas, %dx%d chol",
				ErrInvalid, x.Rows, len(p.Alpha), chol.Rows, chol.Cols)
		}
		return gp.Restore(k, x, p.Alpha, chol, p.Mean, p.Noise), nil
	case KindTree:
		var p treePayload
		if err := unmarshal(&p); err != nil {
			return nil, err
		}
		if p.Root == nil {
			return nil, fmt.Errorf("%w: tree artifact has no root node", ErrInvalid)
		}
		return &tree.Tree{
			Root: p.Root.build(),
			Config: tree.Config{
				MaxDepth: p.MaxDepth, MinLeaf: p.MinLeaf, Regression: p.Regression,
			},
		}, nil
	case KindRuleSet:
		var p ruleSetPayload
		if err := unmarshal(&p); err != nil {
			return nil, err
		}
		rs := &rules.RuleSet{Target: p.Target, Default: p.Default}
		for _, rj := range p.Rules {
			r := &rules.Rule{Class: rj.Class, WRAcc: rj.WRAcc, Coverage: rj.Coverage, Positives: rj.Positives}
			for _, c := range rj.Conditions {
				if c.Op != int(rules.LE) && c.Op != int(rules.GT) {
					return nil, fmt.Errorf("%w: ruleset condition has unknown op %d", ErrInvalid, c.Op)
				}
				r.Conditions = append(r.Conditions, rules.Condition{
					Feature: c.Feature, Op: rules.Op(c.Op), Threshold: c.Threshold, Name: c.Name,
				})
			}
			rs.Rules = append(rs.Rules, r)
		}
		return rs, nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrKind, env.Kind)
	}
}

// decodeApproxPayload rebuilds a compiled approx-linear model. Every
// structural inconsistency — wrong method fields, shape mismatches,
// a map dimension the envelope does not declare — is a typed ErrInvalid
// (or ErrKind/ErrKernel); a forged compiled artifact never scores.
func decodeApproxPayload(env *Envelope) (any, error) {
	spec := env.Approx
	switch spec.Method {
	case ApproxRFF, ApproxNystrom:
	default:
		return nil, fmt.Errorf("%w: unknown approx method %q", ErrInvalid, spec.Method)
	}
	if spec.Dim <= 0 || spec.Dim > approx.MaxDim {
		return nil, fmt.Errorf("%w: approx dim %d outside 1..%d", ErrInvalid, spec.Dim, approx.MaxDim)
	}
	switch env.Kind {
	case KindSVC, KindOneClass, KindGP:
	default:
		return nil, fmt.Errorf("%w: approx-linear payload under kind %q", ErrKind, env.Kind)
	}
	var p approxLinearPayload
	if err := json.Unmarshal(env.Payload, &p); err != nil {
		return nil, fmt.Errorf("model: parse approx payload: %w", err)
	}
	proj, err := p.Proj.build()
	if err != nil {
		return nil, err
	}
	var fm approx.FeatureMap
	switch spec.Method {
	case ApproxRFF:
		if p.Whiten != nil {
			return nil, fmt.Errorf("%w: rff payload carries a whiten matrix", ErrInvalid)
		}
		r, err := approx.RestoreRFF(proj, p.Phase)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		fm = r
	case ApproxNystrom:
		if len(p.Phase) != 0 {
			return nil, fmt.Errorf("%w: nystrom payload carries rff phases", ErrInvalid)
		}
		if p.Whiten == nil {
			return nil, fmt.Errorf("%w: nystrom payload is missing its whiten matrix", ErrInvalid)
		}
		if env.Kernel == nil {
			return nil, fmt.Errorf("%w: nystrom artifact is missing its kernel spec", ErrKernel)
		}
		k, err := env.Kernel.Build()
		if err != nil {
			return nil, err
		}
		wh, err := p.Whiten.build()
		if err != nil {
			return nil, err
		}
		ny, err := approx.RestoreNystrom(k, proj, wh)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		fm = ny
	}
	if fm.Dim() != spec.Dim {
		return nil, fmt.Errorf("%w: envelope declares approx dim %d, projection has %d",
			ErrInvalid, spec.Dim, fm.Dim())
	}
	if len(p.W) != fm.Dim() {
		return nil, fmt.Errorf("%w: %d weights for a %d-dimensional map", ErrInvalid, len(p.W), fm.Dim())
	}
	am := &ApproxModel{
		SourceKind: env.Kind, Spec: *spec, Kernel: env.Kernel,
		Lin: &approx.Linear{Map: fm, W: p.W, Bias: p.Bias},
	}
	if env.Kind == KindSVC {
		if p.Classes == nil {
			return nil, fmt.Errorf("%w: compiled svc is missing its class labels", ErrInvalid)
		}
		am.Classes = *p.Classes
	} else if p.Classes != nil {
		return nil, fmt.Errorf("%w: class labels on a non-svc approx payload", ErrInvalid)
	}
	return am, nil
}
