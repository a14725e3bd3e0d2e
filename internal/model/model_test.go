package model_test

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/linear"
	"repro/internal/model"
	"repro/internal/rules"
	"repro/internal/svm"
	"repro/internal/tree"
)

// fixtures builds one small fitted model per kind plus a probe matrix.
func fixtures(t *testing.T) map[model.Kind]struct {
	m      any
	probes *linalg.Matrix
} {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	out := map[model.Kind]struct {
		m      any
		probes *linalg.Matrix
	}{}

	d2 := dataset.TwoGaussians(rng, 60, 3, 2.5, 1.0)
	svc, err := svm.FitSVC(d2, kernel.RBF{Gamma: 0.7}, svm.SVCConfig{Seed: 3})
	if err != nil {
		t.Fatalf("fit svc: %v", err)
	}
	out[model.KindSVC] = struct {
		m      any
		probes *linalg.Matrix
	}{svc, dataset.TwoGaussians(rng, 20, 3, 2.5, 1.0).X}

	blob := dataset.Blobs(rng, 1, 50, 2, 0, 1.0)
	oc, err := svm.FitOneClass(blob.X, kernel.RBF{Gamma: 0.5}, svm.OneClassConfig{Nu: 0.2})
	if err != nil {
		t.Fatalf("fit oneclass: %v", err)
	}
	out[model.KindOneClass] = struct {
		m      any
		probes *linalg.Matrix
	}{oc, dataset.Blobs(rng, 1, 20, 2, 0, 2.0).X}

	fr := dataset.Friedman1(rng, 80, 6, 0.3)
	ridge, err := linear.FitRidge(fr, 0.5)
	if err != nil {
		t.Fatalf("fit ridge: %v", err)
	}
	out[model.KindRidge] = struct {
		m      any
		probes *linalg.Matrix
	}{ridge, dataset.Friedman1(rng, 20, 6, 0.3).X}

	sine := dataset.NoisySine(rng, 40, 0.1)
	gpr, err := gp.Fit(sine, gp.Config{Kernel: kernel.RBF{Gamma: 1.5}, Noise: 0.05})
	if err != nil {
		t.Fatalf("fit gp: %v", err)
	}
	out[model.KindGP] = struct {
		m      any
		probes *linalg.Matrix
	}{gpr, dataset.NoisySine(rng, 20, 0.1).X}

	xor := dataset.XOR(rng, 25, 0.3)
	tr, err := tree.Fit(xor, tree.Config{MaxDepth: 5, MinLeaf: 2})
	if err != nil {
		t.Fatalf("fit tree: %v", err)
	}
	out[model.KindTree] = struct {
		m      any
		probes *linalg.Matrix
	}{tr, dataset.XOR(rng, 6, 0.3).X}

	rset, err := rules.CN2SD(d2, 1, rules.CN2SDConfig{MaxRules: 3, MaxConditions: 2})
	if err != nil {
		t.Fatalf("cn2sd: %v", err)
	}
	out[model.KindRuleSet] = struct {
		m      any
		probes *linalg.Matrix
	}{&rules.RuleSet{Rules: rset, Target: 1, Default: 0}, d2.X}

	return out
}

// TestRoundTripAllKinds saves and loads every kind through a real file
// and asserts bit-identical predictions plus envelope integrity.
func TestRoundTripAllKinds(t *testing.T) {
	dir := t.TempDir()
	for kind, fx := range fixtures(t) {
		kind, fx := kind, fx
		t.Run(string(kind), func(t *testing.T) {
			path := filepath.Join(dir, string(kind)+".model.json")
			saved, err := model.Save(path, fx.m, model.Meta{Name: "t-" + string(kind), Seed: 99, ManifestRef: "manifest.json"})
			if err != nil {
				t.Fatalf("save: %v", err)
			}
			if saved.Envelope.Kind != kind {
				t.Fatalf("saved kind = %q, want %q", saved.Envelope.Kind, kind)
			}
			loaded, err := model.Load(path)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if loaded.Envelope.SchemaVersion != model.SchemaVersion {
				t.Fatalf("schema version = %d", loaded.Envelope.SchemaVersion)
			}
			if loaded.Envelope.Seed != 99 || loaded.Envelope.ManifestRef != "manifest.json" {
				t.Fatalf("metadata lost: %+v", loaded.Envelope)
			}
			if loaded.Envelope.Checksum != saved.Envelope.Checksum {
				t.Fatalf("checksum changed across save/load")
			}

			wantScorer := mustScorer(t, &model.Artifact{Envelope: saved.Envelope, Model: fx.m})
			gotScorer := mustScorer(t, loaded)
			for i := 0; i < fx.probes.Rows; i++ {
				x := fx.probes.Row(i)
				want, got := wantScorer.ScoreRow(x), gotScorer.ScoreRow(x)
				if want != got {
					t.Fatalf("probe %d: loaded model predicts %v, original %v", i, got, want)
				}
			}
			// The batch path must agree with the serial path bit for bit.
			batch := gotScorer.ScoreBatchInto(fx.probes, make([]float64, fx.probes.Rows))
			for i := range batch {
				if batch[i] != gotScorer.ScoreRow(fx.probes.Row(i)) {
					t.Fatalf("probe %d: batch %v != serial %v", i, batch[i], gotScorer.ScoreRow(fx.probes.Row(i)))
				}
			}
		})
	}
}

func mustScorer(t *testing.T, a *model.Artifact) model.Scorer {
	t.Helper()
	s, err := a.Scorer()
	if err != nil {
		t.Fatalf("scorer: %v", err)
	}
	return s
}

// TestSaveIsDeterministic asserts that saving the same model twice
// produces byte-identical files — the content-addressability contract.
func TestSaveIsDeterministic(t *testing.T) {
	fx := fixtures(t)[model.KindSVC]
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if _, err := model.Save(p1, fx.m, model.Meta{Name: "x", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := model.Save(p2, fx.m, model.Meta{Name: "x", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if string(b1) != string(b2) {
		t.Fatal("two saves of the same model differ byte-for-byte")
	}
}

// TestLoadFailsLoudly covers the three rejection paths: checksum
// mismatch, unknown schema version, unknown kind.
func TestLoadFailsLoudly(t *testing.T) {
	fx := fixtures(t)[model.KindRidge]
	art, err := model.Encode(fx.m, model.Meta{Name: "r"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := art.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("tampered payload", func(t *testing.T) {
		bad := strings.Replace(string(data), `"b":`, `"b": 1e9, "zz":`, 1)
		if bad == string(data) {
			t.Fatal("tamper replacement did not apply")
		}
		_, err := model.Decode([]byte(bad))
		if !errors.Is(err, model.ErrChecksum) {
			t.Fatalf("want ErrChecksum, got %v", err)
		}
	})

	t.Run("future schema version", func(t *testing.T) {
		var env map[string]any
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		env["schema_version"] = model.SchemaVersion + 1
		bad, _ := json.Marshal(env)
		_, err := model.Decode(bad)
		if !errors.Is(err, model.ErrSchemaVersion) {
			t.Fatalf("want ErrSchemaVersion, got %v", err)
		}
	})

	t.Run("unknown kind", func(t *testing.T) {
		bad := strings.Replace(string(data), `"kind": "ridge"`, `"kind": "quantum"`, 1)
		if bad == string(data) {
			t.Fatal("kind replacement did not apply")
		}
		_, err := model.Decode([]byte(bad))
		if !errors.Is(err, model.ErrKind) {
			t.Fatalf("want ErrKind, got %v", err)
		}
	})

	t.Run("garbage", func(t *testing.T) {
		if _, err := model.Decode([]byte("not json")); err == nil {
			t.Fatal("garbage decoded without error")
		}
	})
}

// TestUnsupportedKernelRejected: models over data-dependent kernels
// (the n-gram spectrum family) must fail at save time, not load time.
func TestUnsupportedKernelRejected(t *testing.T) {
	oc := &svm.OneClass{
		K:     stubKernel{},
		SV:    linalg.NewMatrix(1, 2),
		Alpha: []float64{1},
	}
	if _, err := model.Encode(oc, model.Meta{}); !errors.Is(err, model.ErrKernel) {
		t.Fatalf("want ErrKernel, got %v", err)
	}
}

type stubKernel struct{}

func (stubKernel) Eval(a, b []float64) float64 { return 0 }
func (stubKernel) Name() string                { return "stub" }

// TestKernelSpecRoundTrip covers every persistable kernel shape.
func TestKernelSpecRoundTrip(t *testing.T) {
	kernels := []kernel.Kernel{
		kernel.Linear{},
		kernel.Poly{Degree: 2, Gamma: 1, Coef0: 0.5},
		kernel.RBF{Gamma: 0.25},
		kernel.Sigmoid{Gamma: 0.1, Coef0: -1},
		kernel.HistogramIntersection{},
		kernel.Normalize{K: kernel.Poly{Degree: 3, Gamma: 2}},
	}
	a, b := []float64{0.3, 1.7}, []float64{-0.4, 0.9}
	for _, k := range kernels {
		spec, err := model.SpecOf(k)
		if err != nil {
			t.Fatalf("%s: %v", k.Name(), err)
		}
		back, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", k.Name(), err)
		}
		if !reflect.DeepEqual(k, back) {
			t.Fatalf("%s: round-trip %#v -> %#v", k.Name(), k, back)
		}
		if k.Eval(a, b) != back.Eval(a, b) {
			t.Fatalf("%s: eval differs after round-trip", k.Name())
		}
	}
	if _, err := (&model.KernelSpec{Name: "warp"}).Build(); !errors.Is(err, model.ErrKernel) {
		t.Fatalf("want ErrKernel for unknown spec, got %v", err)
	}
}

// TestEncodeRejectsUnknownType: only the six supported kinds persist.
func TestEncodeRejectsUnknownType(t *testing.T) {
	if _, err := model.Encode(struct{}{}, model.Meta{}); !errors.Is(err, model.ErrKind) {
		t.Fatalf("want ErrKind, got %v", err)
	}
}
