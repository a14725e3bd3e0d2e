package serve

import (
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/svm"
)

func synthSVC(t *testing.T, gamma float64, seed int64) *svm.SVC {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	sv := linalg.NewMatrix(12, 3)
	alpha := make([]float64, sv.Rows)
	for i := range sv.Data {
		sv.Data[i] = r.NormFloat64()
	}
	for i := range alpha {
		alpha[i] = r.NormFloat64()
	}
	return svm.RestoreSVC(kernel.RBF{Gamma: gamma}, sv, alpha, 0.1, [2]float64{-1, 1})
}

// TestHotReloadPurgesKernelRows is the stale-memo regression test:
// after /models/load replaces a model, a prediction for an input whose
// score was memoized under the old model must come from the new model —
// never from the old memo. The replacement owns a fresh memo, so the old
// entries are unreachable by construction.
func TestHotReloadPurgesKernelRows(t *testing.T) {
	s := New(Config{MaxBatch: 1, CacheRows: 64, DrainTimeout: time.Second})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Two models with the same shape but different kernels, so a stale
	// row is guaranteed to produce a different (wrong) score.
	mA := synthSVC(t, 0.5, 1)
	mB := synthSVC(t, 5.0, 1)
	x := []float64{0.3, -0.8, 0.25}
	if math.Float64bits(mA.Decision(x)) == math.Float64bits(mB.Decision(x)) {
		t.Fatal("test models agree on the probe; pick a better probe")
	}

	load := func(m *svm.SVC) {
		a, err := model.Encode(m, model.Meta{Name: "clf", Seed: testSeed})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Load("", a); err != nil {
			t.Fatal(err)
		}
	}
	load(mA)
	oldEntry := s.model("clf")
	// Prime the memo: this prediction computes and stores the score of x.
	if code, pr := postPredict(t, ts.URL, "clf", [][]float64{x}); code != 200 ||
		math.Float64bits(pr.Predictions[0]) != math.Float64bits(mA.Predict(x)) {
		t.Fatalf("priming predict: code %d, got %v want %v", code, pr.Predictions, mA.Predict(x))
	}
	if oldEntry.cache.len() == 0 {
		t.Fatal("priming predict did not populate the score memo")
	}

	load(mB)
	code, pr := postPredict(t, ts.URL, "clf", [][]float64{x})
	if code != 200 {
		t.Fatalf("post-reload predict: code %d", code)
	}
	if got, want := pr.Predictions[0], mB.Predict(x); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("stale-memo prediction after reload: got %v, want new model's %v (old model says %v)",
			got, want, mA.Predict(x))
	}
}

// TestCompiledModelSkipsCache: a compiled approx-linear model must be
// served through the plain scorer path — no score memo — with the
// approx.* observability reflecting it, and its HTTP
// predictions bit-identical to in-process scoring.
func TestCompiledModelSkipsCache(t *testing.T) {
	s := New(Config{MaxBatch: 4, CacheRows: 64})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	am, err := model.CompileApprox(synthSVC(t, 0.5, 3),
		model.ApproxSpec{Method: model.ApproxRFF, Dim: 128, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	a, err := model.Encode(am, model.Meta{Name: "fast", Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load("", a); err != nil {
		t.Fatal(err)
	}
	sm := s.model("fast")
	if !sm.compiled || sm.cache != nil {
		t.Fatalf("compiled model served with compiled=%v cache=%v; want true,nil", sm.compiled, sm.cache)
	}
	if approxCompiled.Value() < 1 {
		t.Errorf("approx.compiled_models = %d, want >= 1", approxCompiled.Value())
	}

	before := approxFastPath.Value()
	probes := [][]float64{{0.1, 0.2, 0.3}, {-1, 0.5, 2}, {0, 0, 0}}
	code, pr := postPredict(t, ts.URL, "fast", probes)
	if code != 200 {
		t.Fatalf("predict: code %d", code)
	}
	for i, p := range probes {
		if math.Float64bits(pr.Predictions[i]) != math.Float64bits(am.ScoreRow(p)) {
			t.Errorf("probe %d: HTTP %v, in-process %v", i, pr.Predictions[i], am.ScoreRow(p))
		}
	}
	if got := approxFastPath.Value() - before; got < int64(len(probes)) {
		t.Errorf("approx.fast_path_hits advanced by %d, want >= %d", got, len(probes))
	}
}
