package model

// Adversarial-artifact hardening tests (ISSUE 4): every hostile input —
// truncated, oversized, structurally forged, NaN/Inf-smuggling — must
// come back as a loud typed error, never a panic, an OOM, or a model
// that panics later at scoring time. These are the table-driven twins
// of FuzzModelDecode's exploration.

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/kernel/approx"
	"repro/internal/linalg"
	"repro/internal/linear"
	"repro/internal/rules"
	"repro/internal/tree"
)

// forge builds an artifact whose envelope is internally consistent
// (correct schema version and checksum) around an arbitrary payload, so
// tests reach the payload-decoding and validation layers.
func forge(t testing.TB, kind Kind, features int, kspec *KernelSpec, payload string) []byte {
	return forgeApprox(t, kind, features, kspec, nil, payload)
}

// forgeApprox is forge with an approx spec in the envelope, routing the
// payload through the approx-linear decoder.
func forgeApprox(t testing.TB, kind Kind, features int, kspec *KernelSpec, aspec *ApproxSpec, payload string) []byte {
	t.Helper()
	sum, err := checksum([]byte(payload))
	if err != nil {
		t.Fatalf("forge checksum: %v", err)
	}
	env := Envelope{
		SchemaVersion: SchemaVersion,
		Kind:          kind,
		Features:      features,
		Kernel:        kspec,
		Approx:        aspec,
		Checksum:      sum,
		Payload:       json.RawMessage(payload),
	}
	data, err := json.Marshal(&env)
	if err != nil {
		t.Fatalf("forge marshal: %v", err)
	}
	return data
}

func rbfSpec() *KernelSpec { return &KernelSpec{Name: "rbf", Gamma: 0.5} }

// TestDecodeRejectsForgedArtifacts: structural attacks on every kind.
func TestDecodeRejectsForgedArtifacts(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"truncated envelope", []byte(`{"schema_version": 1, "kind": "ridge"`), nil},
		{"empty input", nil, nil},
		{"not json at all", []byte("\x00\x01\x02 not json"), nil},
		{"negative features",
			forge(t, KindRidge, -1, nil, `{"w": [1], "b": 0}`), ErrInvalid},
		{"absurd features",
			forge(t, KindRidge, MaxFeatures+1, nil, `{"w": [1], "b": 0}`), ErrInvalid},
		{"ridge width lies about envelope features",
			forge(t, KindRidge, 8, nil, `{"w": [1, 2], "b": 0}`), ErrInvalid},
		{"tree with missing child",
			forge(t, KindTree, 2, nil,
				`{"max_depth": 2, "min_leaf": 1, "root": {"feature": 0, "threshold": 1, "left": {"leaf": true, "value": 1}}}`),
			ErrInvalid},
		{"tree splits out-of-range feature",
			forge(t, KindTree, 2, nil,
				`{"max_depth": 2, "min_leaf": 1, "root": {"feature": 7, "threshold": 1, "left": {"leaf": true, "value": 0}, "right": {"leaf": true, "value": 1}}}`),
			ErrInvalid},
		{"tree splits negative feature",
			forge(t, KindTree, 2, nil,
				`{"max_depth": 2, "min_leaf": 1, "root": {"feature": -3, "threshold": 1, "left": {"leaf": true, "value": 0}, "right": {"leaf": true, "value": 1}}}`),
			ErrInvalid},
		{"tree with no root",
			forge(t, KindTree, 2, nil, `{"max_depth": 2, "min_leaf": 1}`), ErrInvalid},
		{"ruleset condition indexes past envelope width",
			forge(t, KindRuleSet, 2, nil,
				`{"rules": [{"conditions": [{"feature": 5, "op": 0, "threshold": 1}], "class": 1}], "target": 1, "default": 0}`),
			ErrInvalid},
		{"ruleset negative feature",
			forge(t, KindRuleSet, 2, nil,
				`{"rules": [{"conditions": [{"feature": -1, "op": 0, "threshold": 1}], "class": 1}], "target": 1, "default": 0}`),
			ErrInvalid},
		{"ruleset unknown op",
			forge(t, KindRuleSet, 2, nil,
				`{"rules": [{"conditions": [{"feature": 0, "op": 9, "threshold": 1}], "class": 1}], "target": 1, "default": 0}`),
			ErrInvalid},
		{"svc alpha/sv mismatch",
			forge(t, KindSVC, 2, rbfSpec(),
				`{"sv": {"rows": 2, "cols": 2, "data": [1, 2, 3, 4]}, "alpha": [1], "b": 0, "classes": [-1, 1]}`),
			ErrInvalid},
		{"svc width lies about envelope features",
			forge(t, KindSVC, 5, rbfSpec(),
				`{"sv": {"rows": 1, "cols": 2, "data": [1, 2]}, "alpha": [1], "b": 0, "classes": [-1, 1]}`),
			ErrInvalid},
		{"matrix shape overflow",
			forge(t, KindSVC, 2, rbfSpec(),
				`{"sv": {"rows": 2147483648, "cols": 8589934592, "data": []}, "alpha": [], "b": 0, "classes": [-1, 1]}`),
			ErrInvalid},
		{"matrix shape mismatch",
			forge(t, KindOneClass, 2, rbfSpec(),
				`{"sv": {"rows": 3, "cols": 2, "data": [1, 2]}, "alpha": [1, 1, 1], "rho": 0, "nu": 0.1}`),
			ErrInvalid},
		{"gp chol shape mismatch",
			forge(t, KindGP, 1, rbfSpec(),
				`{"x": {"rows": 2, "cols": 1, "data": [1, 2]}, "alpha": [1, 2], "chol": {"rows": 1, "cols": 1, "data": [1]}, "mean": 0, "noise": 0.1}`),
			ErrInvalid},
		{"kernel model without kernel spec",
			forge(t, KindSVC, 2, nil,
				`{"sv": {"rows": 1, "cols": 2, "data": [1, 2]}, "alpha": [1], "b": 0, "classes": [-1, 1]}`),
			ErrKernel},
		{"unknown kind",
			forge(t, Kind("neural"), 2, nil, `{}`), ErrKind},
		{"inf smuggled via huge exponent", // 1e999 overflows float64: a typed parse error, not +Inf
			forge(t, KindRidge, 1, nil, `{"w": [1e999], "b": 0}`), nil},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			a, err := Decode(tc.data) // must not panic
			if err == nil {
				t.Fatalf("Decode accepted hostile input, envelope %+v", a.Envelope)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("error %v does not wrap %v", err, tc.want)
			}
		})
	}
}

// Baseline approx-linear payloads the adversarial cases mutate. Both
// decode cleanly under their matching envelopes (the positive controls
// below prove it), so each hostile variant fails for its own reason.
const (
	validRFFPayload = `{"proj": {"rows": 4, "cols": 2, "data": [1, 0, 0, 1, 0.5, -0.5, 0.25, 0.75]}, ` +
		`"phase": [0, 1, 2, 3], "w": [1, 2, 3, 4], "bias": 0.1, "classes": [-1, 1]}`
	validNystromPayload = `{"proj": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]}, ` +
		`"whiten": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]}, "w": [0.5, 0.5], "bias": -0.2}`
)

func rffSpec4() *ApproxSpec     { return &ApproxSpec{Method: ApproxRFF, Dim: 4, Seed: 7} }
func nystromSpec2() *ApproxSpec { return &ApproxSpec{Method: ApproxNystrom, Dim: 2, Seed: 7} }

// TestDecodeRejectsForgedApproxArtifacts: the adversarial-artifact table
// for the approx-linear payload — truncated weight vectors, D/m bounds,
// smuggled or missing components, non-finite projections. Every case
// must fail loudly with the typed error; a forged compiled artifact must
// never reach scoring.
func TestDecodeRejectsForgedApproxArtifacts(t *testing.T) {
	// Positive controls: the baselines the hostile cases mutate are
	// themselves accepted, so each rejection below is for the mutation.
	for name, data := range map[string][]byte{
		"rff":     forgeApprox(t, KindSVC, 2, rbfSpec(), rffSpec4(), validRFFPayload),
		"nystrom": forgeApprox(t, KindOneClass, 2, rbfSpec(), nystromSpec2(), validNystromPayload),
	} {
		a, err := Decode(data)
		if err != nil {
			t.Fatalf("baseline %s approx forgery does not decode: %v", name, err)
		}
		if _, err := a.Scorer(); err != nil {
			t.Fatalf("baseline %s approx forgery has no scorer: %v", name, err)
		}
	}

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"truncated weight vector",
			forgeApprox(t, KindSVC, 2, rbfSpec(), rffSpec4(),
				`{"proj": {"rows": 4, "cols": 2, "data": [1, 0, 0, 1, 0.5, -0.5, 0.25, 0.75]}, `+
					`"phase": [0, 1, 2, 3], "w": [1, 2, 3], "bias": 0.1, "classes": [-1, 1]}`),
			ErrInvalid},
		{"dim zero",
			forgeApprox(t, KindSVC, 2, rbfSpec(), &ApproxSpec{Method: ApproxRFF, Dim: 0, Seed: 7},
				validRFFPayload),
			ErrInvalid},
		{"dim beyond MaxDim",
			forgeApprox(t, KindSVC, 2, rbfSpec(), &ApproxSpec{Method: ApproxRFF, Dim: 1 << 17, Seed: 7},
				validRFFPayload),
			ErrInvalid},
		{"unknown method",
			forgeApprox(t, KindSVC, 2, rbfSpec(), &ApproxSpec{Method: "chebyshev", Dim: 4, Seed: 7},
				validRFFPayload),
			ErrInvalid},
		{"dim lies about the projection",
			forgeApprox(t, KindSVC, 2, rbfSpec(), &ApproxSpec{Method: ApproxRFF, Dim: 8, Seed: 7},
				validRFFPayload),
			ErrInvalid},
		{"phase count mismatch",
			forgeApprox(t, KindSVC, 2, rbfSpec(), rffSpec4(),
				`{"proj": {"rows": 4, "cols": 2, "data": [1, 0, 0, 1, 0.5, -0.5, 0.25, 0.75]}, `+
					`"phase": [0, 1, 2], "w": [1, 2, 3, 4], "bias": 0.1, "classes": [-1, 1]}`),
			ErrInvalid},
		{"rff smuggles a whiten matrix",
			forgeApprox(t, KindSVC, 2, rbfSpec(), rffSpec4(),
				`{"proj": {"rows": 4, "cols": 2, "data": [1, 0, 0, 1, 0.5, -0.5, 0.25, 0.75]}, `+
					`"phase": [0, 1, 2, 3], "whiten": {"rows": 4, "cols": 4, "data": [0]}, `+
					`"w": [1, 2, 3, 4], "bias": 0.1, "classes": [-1, 1]}`),
			ErrInvalid},
		{"nystrom smuggles rff phases",
			forgeApprox(t, KindOneClass, 2, rbfSpec(), nystromSpec2(),
				`{"proj": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]}, "phase": [0, 1], `+
					`"whiten": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]}, "w": [0.5, 0.5], "bias": -0.2}`),
			ErrInvalid},
		{"nystrom missing whiten",
			forgeApprox(t, KindOneClass, 2, rbfSpec(), nystromSpec2(),
				`{"proj": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]}, "w": [0.5, 0.5], "bias": -0.2}`),
			ErrInvalid},
		{"nystrom without kernel spec",
			forgeApprox(t, KindOneClass, 2, nil, nystromSpec2(), validNystromPayload),
			ErrKernel},
		{"compiled svc missing classes",
			forgeApprox(t, KindSVC, 2, rbfSpec(), rffSpec4(),
				`{"proj": {"rows": 4, "cols": 2, "data": [1, 0, 0, 1, 0.5, -0.5, 0.25, 0.75]}, `+
					`"phase": [0, 1, 2, 3], "w": [1, 2, 3, 4], "bias": 0.1}`),
			ErrInvalid},
		{"classes on a non-svc payload",
			forgeApprox(t, KindOneClass, 2, rbfSpec(), nystromSpec2(),
				`{"proj": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]}, `+
					`"whiten": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]}, "w": [0.5, 0.5], "bias": -0.2, "classes": [-1, 1]}`),
			ErrInvalid},
		{"approx payload under non-kernel kind",
			forgeApprox(t, KindRidge, 2, nil, rffSpec4(), validRFFPayload),
			ErrKind},
		{"projection width lies about envelope features",
			forgeApprox(t, KindSVC, 5, rbfSpec(), rffSpec4(), validRFFPayload),
			ErrInvalid},
		{"nan smuggled via huge exponent", // 1e999 overflows float64: typed parse error
			forgeApprox(t, KindSVC, 2, rbfSpec(), rffSpec4(),
				`{"proj": {"rows": 4, "cols": 2, "data": [1e999, 0, 0, 1, 0.5, -0.5, 0.25, 0.75]}, `+
					`"phase": [0, 1, 2, 3], "w": [1, 2, 3, 4], "bias": 0.1, "classes": [-1, 1]}`),
			nil},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			a, err := Decode(tc.data) // must not panic
			if err == nil {
				t.Fatalf("Decode accepted forged approx artifact, envelope %+v", a.Envelope)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("error %v does not wrap %v", err, tc.want)
			}
		})
	}
}

// TestValidateModelCatchesNonFinite: JSON cannot express NaN/Inf
// directly, but validateModel is the last line of defense for any
// future transport that can — and for in-process corruption.
func TestValidateModelCatchesNonFinite(t *testing.T) {
	nan := math.NaN()
	inf := math.Inf(1)
	leaf := func(v float64) *tree.Node { return &tree.Node{Leaf: true, Value: v} }
	// compiledRFF builds an in-process ApproxModel around raw components,
	// bypassing the decoders — validateModel is the last line of defense.
	compiledRFF := func(omega, phase, w []float64, bias float64) *ApproxModel {
		om := linalg.NewMatrix(2, 2)
		copy(om.Data, omega)
		fm, err := approx.RestoreRFF(om, phase)
		if err != nil {
			t.Fatal(err)
		}
		return &ApproxModel{
			SourceKind: KindSVC,
			Spec:       ApproxSpec{Method: ApproxRFF, Dim: 2, Seed: 1},
			Kernel:     rbfSpec(),
			Lin:        &approx.Linear{Map: fm, W: w, Bias: bias},
			Classes:    [2]float64{-1, 1},
		}
	}
	cases := []struct {
		name     string
		m        any
		features int
	}{
		{"approx nan in projection",
			compiledRFF([]float64{1, nan, 0, 1}, []float64{0, 0}, []float64{1, 1}, 0), 2},
		{"approx inf phase",
			compiledRFF([]float64{1, 0, 0, 1}, []float64{0, inf}, []float64{1, 1}, 0), 2},
		{"approx nan weight",
			compiledRFF([]float64{1, 0, 0, 1}, []float64{0, 0}, []float64{nan, 1}, 0), 2},
		{"ridge nan weight", &linear.Regression{W: []float64{1, nan}, B: 0}, 2},
		{"ridge inf intercept", &linear.Regression{W: []float64{1}, B: inf}, 1},
		{"tree nan threshold", &tree.Tree{Root: &tree.Node{Feature: 0, Threshold: nan, Left: leaf(0), Right: leaf(1)}}, 1},
		{"tree inf leaf", &tree.Tree{Root: leaf(inf)}, 0},
		{"ruleset nan threshold", &rules.RuleSet{Rules: []*rules.Rule{
			{Conditions: []rules.Condition{{Feature: 0, Op: rules.LE, Threshold: nan}}, Class: 1},
		}, Target: 1}, 1},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			env := &Envelope{Features: tc.features}
			if err := validateModel(tc.m, env); !errors.Is(err, ErrInvalid) {
				t.Fatalf("validateModel = %v, want ErrInvalid", err)
			}
		})
	}

	// A sane model passes.
	if err := validateModel(&linear.Regression{W: []float64{1, 2}, B: 0.5}, &Envelope{Features: 2}); err != nil {
		t.Fatalf("valid ridge rejected: %v", err)
	}
}

// TestOversizedArtifactRejected: both Decode (bytes) and Load (file)
// refuse oversized envelopes with ErrOversize before allocating for
// the parse. Load stops one byte past the cap even on a device that
// reports size 0 and never ends.
func TestOversizedArtifactRejected(t *testing.T) {
	big := make([]byte, MaxArtifactBytes+1)
	if _, err := Decode(big); !errors.Is(err, ErrOversize) {
		t.Fatalf("Decode(oversized) = %v, want ErrOversize", err)
	}

	path := filepath.Join(t.TempDir(), "huge.model.json")
	if err := os.WriteFile(path, big, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrOversize) {
		t.Fatalf("Load(oversized) = %v, want ErrOversize", err)
	}

	if _, err := os.Stat("/dev/zero"); err != nil {
		t.Skipf("no /dev/zero: %v", err)
	}
	if _, err := Load("/dev/zero"); !errors.Is(err, ErrOversize) {
		t.Fatalf("Load(/dev/zero) = %v, want ErrOversize", err)
	}
}

// TestDecodeFaultSite: the model.decode injection site turns chaos-plan
// errors into typed load failures and catches injected corruption via
// the checksum, exactly like real bit rot.
func TestDecodeFaultSite(t *testing.T) {
	defer fault.Deactivate()
	art, err := Encode(&linear.Regression{W: []float64{1, 2}, B: 3}, Meta{Name: "f"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := art.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	// Sanity: decodes cleanly with no plan.
	if _, err := Decode(data); err != nil {
		t.Fatalf("clean decode: %v", err)
	}

	fault.Activate(fault.Plan{Seed: 1, Sites: map[string]fault.SiteConfig{
		fault.SiteModelDecode: {ErrRate: 1},
	}})
	if _, err := Decode(data); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Decode under ErrRate=1 = %v, want ErrInjected", err)
	}

	// Corruption: flipping any byte must be caught loudly — either the
	// JSON no longer parses or the checksum no longer matches.
	fault.Activate(fault.Plan{Seed: 2, Sites: map[string]fault.SiteConfig{
		fault.SiteModelDecode: {CorruptRate: 1},
	}})
	sawError := false
	for i := 0; i < 32; i++ {
		if _, err := Decode(data); err != nil {
			sawError = true
			if strings.Contains(err.Error(), "panic") {
				t.Fatalf("corruption produced a panic-shaped error: %v", err)
			}
		}
	}
	if !sawError {
		t.Fatal("32 corrupted decodes all succeeded — corruption is not biting")
	}
}
