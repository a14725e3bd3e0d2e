package model

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/kernel/approx"
	"repro/internal/linalg"
	"repro/internal/linear"
	"repro/internal/svm"
)

func testMatrix(r *rand.Rand, rows, cols int) *linalg.Matrix {
	m := linalg.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

// compileFixtures returns one fitted model of each compilable kind,
// restored from synthetic parameters (no training needed).
func compileFixtures(t *testing.T) map[Kind]any {
	t.Helper()
	r := rand.New(rand.NewSource(41))
	sv := testMatrix(r, 25, 4)
	alpha := make([]float64, 25)
	for i := range alpha {
		alpha[i] = r.NormFloat64()
	}
	k := kernel.RBF{Gamma: 0.5}
	chol := linalg.NewMatrix(25, 25)
	for i := 0; i < 25; i++ {
		chol.Data[i*25+i] = 1
	}
	return map[Kind]any{
		KindSVC:      svm.RestoreSVC(k, sv, alpha, 0.3, [2]float64{-1, 1}),
		KindOneClass: &svm.OneClass{K: k, SV: sv, Alpha: alpha, Rho: 0.2, Nu: 0.5},
		KindGP:       gp.Restore(k, sv, alpha, chol, 0.1, 1e-2),
	}
}

// TestExpansionOf: each exact kernel kind reports its own kind, and its
// expansion Σ Coef·k(x, Basis) + Bias reproduces the model's Decision;
// every other model reports false.
func TestExpansionOf(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	probes := testMatrix(r, 10, 4)
	for kind, m := range compileFixtures(t) {
		e, ok := ExpansionOf(m)
		if !ok || e.Kind != kind {
			t.Fatalf("%s: ExpansionOf = kind %q, %v", kind, e.Kind, ok)
		}
		for i := 0; i < probes.Rows; i++ {
			x := probes.Row(i)
			want := e.Decision(x)
			if got := kernel.Expand(e.Kernel, x, e.Basis, e.Coef, e.Bias); math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("%s: expansion %v, Decision %v on probe %d", kind, got, want, i)
			}
		}
	}
	am, err := CompileApprox(compileFixtures(t)[KindSVC], ApproxSpec{Method: ApproxRFF, Dim: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []any{am, &linear.Regression{}, nil} {
		if _, ok := ExpansionOf(m); ok {
			t.Fatalf("ExpansionOf(%T) reported an exact kernel model", m)
		}
	}
}

// TestCompileRoundTrip: compile each kind with each method, marshal,
// decode, and check (a) the decoded model scores bit-identically to the
// compiled one, (b) marshaling is byte-deterministic, (c) the decision
// values track the exact model on the training rows.
func TestCompileRoundTrip(t *testing.T) {
	fixtures := compileFixtures(t)
	r := rand.New(rand.NewSource(5))
	probes := testMatrix(r, 10, 4)
	for kind, m := range fixtures {
		for _, tc := range []struct {
			spec  ApproxSpec
			bound float64
		}{
			// RFF Monte-Carlo error at D=512 over ~25 unit-scale duals.
			{ApproxSpec{Method: ApproxRFF, Dim: 512, Seed: 7}, 1.0},
			// Full-rank Nyström is exact on the training rows.
			{ApproxSpec{Method: ApproxNystrom, Dim: 25, Seed: 7}, 1e-6},
		} {
			spec := tc.spec
			am, err := CompileApprox(m, spec)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", kind, spec.Method, err)
			}
			a, err := Encode(am, Meta{Name: "compiled", Seed: spec.Seed})
			if err != nil {
				t.Fatalf("%s/%s: encode: %v", kind, spec.Method, err)
			}
			if a.Envelope.Kind != kind {
				t.Errorf("%s/%s: envelope kind %s", kind, spec.Method, a.Envelope.Kind)
			}
			if a.Envelope.Approx == nil || a.Envelope.Approx.Method != spec.Method {
				t.Fatalf("%s/%s: envelope approx field %+v", kind, spec.Method, a.Envelope.Approx)
			}
			data, err := a.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			data2, _ := a.Marshal()
			if !bytes.Equal(data, data2) {
				t.Errorf("%s/%s: marshal not deterministic", kind, spec.Method)
			}
			back, err := Decode(data)
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", kind, spec.Method, err)
			}
			bm, ok := back.Model.(*ApproxModel)
			if !ok {
				t.Fatalf("%s/%s: decoded to %T", kind, spec.Method, back.Model)
			}
			for i := 0; i < probes.Rows; i++ {
				x := probes.Row(i)
				if math.Float64bits(bm.ScoreRow(x)) != math.Float64bits(am.ScoreRow(x)) {
					t.Fatalf("%s/%s: decoded model scores differently on probe %d", kind, spec.Method, i)
				}
			}
			// Error bound vs the exact expansion on training rows; the
			// tradeoff curve lives in EXPERIMENTS.md and the conformance
			// lane asserts the serving-grade tolerance.
			e, _ := ExpansionOf(m)
			worst := 0.0
			for i := 0; i < e.Basis.Rows; i++ {
				x := e.Basis.Row(i)
				if d := math.Abs(bm.Decision(x) - e.Decision(x)); d > worst {
					worst = d
				}
			}
			t.Logf("%s/%s max train-row |approx − exact| = %.4g", kind, spec.Method, worst)
			if worst > tc.bound {
				t.Errorf("%s/%s: approx error %g exceeds %g", kind, spec.Method, worst, tc.bound)
			}
		}
	}
}

// TestCompileErrors: unsupported sources and kernels fail with typed
// errors at compile time, not at decode time.
func TestCompileErrors(t *testing.T) {
	if _, err := CompileApprox(42, ApproxSpec{Method: ApproxRFF, Dim: 8, Seed: 1}); !errors.Is(err, ErrKind) {
		t.Errorf("non-model source: got %v, want ErrKind", err)
	}
	r := rand.New(rand.NewSource(2))
	sv := testMatrix(r, 5, 3)
	poly := svm.RestoreSVC(kernel.Poly{Degree: 2, Gamma: 1}, sv, make([]float64, 5), 0, [2]float64{0, 1})
	if _, err := CompileApprox(poly, ApproxSpec{Method: ApproxRFF, Dim: 8, Seed: 1}); !errors.Is(err, approx.ErrKernel) {
		t.Errorf("rff over poly kernel: got %v, want approx.ErrKernel", err)
	}
	// Nyström handles the poly kernel fine.
	if _, err := CompileApprox(poly, ApproxSpec{Method: ApproxNystrom, Dim: 4, Seed: 1}); err != nil {
		t.Errorf("nystrom over poly kernel: %v", err)
	}
	rbf := svm.RestoreSVC(kernel.RBF{Gamma: 1}, sv, make([]float64, 5), 0, [2]float64{0, 1})
	if _, err := CompileApprox(rbf, ApproxSpec{Method: "fft", Dim: 8, Seed: 1}); !errors.Is(err, ErrInvalid) {
		t.Errorf("unknown method: got %v, want ErrInvalid", err)
	}
	if _, err := CompileApprox(rbf, ApproxSpec{Method: ApproxRFF, Dim: 0, Seed: 1}); !errors.Is(err, approx.ErrDim) {
		t.Errorf("zero dim: got %v, want approx.ErrDim", err)
	}
}

// TestNystromDimClamped: requesting more landmarks than basis rows
// records the clamped dimension in the spec, and the artifact round
// trips under it.
func TestNystromDimClamped(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	sv := testMatrix(r, 6, 2)
	m := &svm.OneClass{K: kernel.RBF{Gamma: 1}, SV: sv, Alpha: make([]float64, 6), Rho: 0, Nu: 0.5}
	am, err := CompileApprox(m, ApproxSpec{Method: ApproxNystrom, Dim: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if am.Spec.Dim != 6 {
		t.Fatalf("spec dim %d, want clamped 6", am.Spec.Dim)
	}
	a, err := Encode(am, Meta{Name: "clamped"})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := a.Marshal()
	if _, err := Decode(data); err != nil {
		t.Fatalf("clamped artifact does not round trip: %v", err)
	}
}

// TestParseApproxSpec covers the CLI grammar.
func TestParseApproxSpec(t *testing.T) {
	got, err := ParseApproxSpec("rff:512", 9)
	if err != nil || got != (ApproxSpec{Method: "rff", Dim: 512, Seed: 9}) {
		t.Errorf("rff:512 → %+v, %v", got, err)
	}
	if _, err := ParseApproxSpec("nystrom:128", 0); err != nil {
		t.Errorf("nystrom:128: %v", err)
	}
	for _, bad := range []string{"", "rff", "rff:", "rff:0", "rff:-4", "rff:99999999", "fft:64", "rff:x"} {
		if _, err := ParseApproxSpec(bad, 0); err == nil {
			t.Errorf("ParseApproxSpec(%q) accepted", bad)
		}
	}
}

// TestApproxScorerFastPath: the artifact Scorer for a compiled model is
// the approx path (Dim reports the input width) and scores exactly as
// the model's own ScoreRow.
func TestApproxScorerFastPath(t *testing.T) {
	m := compileFixtures(t)[KindGP]
	am, err := CompileApprox(m, ApproxSpec{Method: ApproxRFF, Dim: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Encode(am, Meta{Name: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := a.Scorer()
	if err != nil {
		t.Fatal(err)
	}
	if s.Dim() != 4 {
		t.Errorf("scorer dim %d, want 4", s.Dim())
	}
	x := []float64{0.1, -0.2, 0.3, 0.4}
	if math.Float64bits(s.ScoreRow(x)) != math.Float64bits(am.ScoreRow(x)) {
		t.Error("scorer diverges from the model's own ScoreRow")
	}
}
