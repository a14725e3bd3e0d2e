package repro_test

// Exact-vs-compiled predict benchmarks (ISSUE 6 tentpole). The serve
// path's single-row cost for a kernel model is the kernel expansion
// against every support vector / training row — O(n·d) with n kernel
// evaluations for SVC, plus an O(n²) triangular solve for the GP
// (Predict goes through PredictVar). Compiling through
// internal/kernel/approx collapses that to one D-dimensional feature
// map and a dot product. These benchmarks measure both sides at the
// scale the paper's deployment story needs (thousands of retained
// rows), where the approx-linear payload exists to deliver a speedup of
// ≥10× for SVC and GP at RFF D=512 or Nyström m=128.
//
// The models are Restore-constructed synthetics (no training in the
// timed loop) with N(0,1) support vectors and duals — the kernel
// expansion's cost depends only on n and d, not on the values.

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/svm"
)

// benchDim is the feature dimensionality of the synthetic models.
const benchDim = 16

// benchModels builds the exact SVC and GP the benchmarks score, sized
// by -short: n retained rows each, standard-normal basis and duals.
func benchModels(n int) (*svm.SVC, *gp.Regressor) {
	r := rand.New(rand.NewSource(82))
	basis := linalg.NewMatrix(n, benchDim)
	for i := range basis.Data {
		basis.Data[i] = r.NormFloat64()
	}
	alpha := make([]float64, n)
	for i := range alpha {
		alpha[i] = r.NormFloat64()
	}
	k := kernel.RBF{Gamma: 1.0 / benchDim}
	svc := svm.RestoreSVC(k, basis, alpha, 0.25, [2]float64{-1, 1})
	// Identity Cholesky factor: PredictVar's O(n²) forward substitution
	// costs the same regardless of the factor's values.
	chol := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		chol.Set(i, i, 1)
	}
	g := gp.Restore(k, basis, alpha, chol, 0.1, 1e-2)
	return svc, g
}

// benchProbes returns rows drawn from the same distribution as the
// basis, cycled through by the timed loops.
func benchProbes(n int) *linalg.Matrix {
	r := rand.New(rand.NewSource(83))
	x := linalg.NewMatrix(n, benchDim)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	return x
}

// TestApproxTradeoffCurve regenerates the accuracy-vs-speedup table in
// EXPERIMENTS.md ("Approximate scoring"): for each feature-map size it
// compiles the benchmark models (2048 retained rows, d=16) and reports
// the worst |approx − exact| decision gap over the probe set next to
// the measured single-row speedup. Gated behind REPRO_CURVE=1 — it
// times ~25 configurations with testing.Benchmark, which is minutes of
// wall clock, not unit-test material.
func TestApproxTradeoffCurve(t *testing.T) {
	if os.Getenv("REPRO_CURVE") == "" {
		t.Skip("set REPRO_CURVE=1 to regenerate the EXPERIMENTS.md tradeoff curve")
	}
	const n = 2048
	svc, g := benchModels(n)
	probes := benchProbes(64)

	perRow := func(score func([]float64) float64) float64 {
		_ = score(probes.Row(0)) // warm lazy state (Nyström fold)
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = score(probes.Row(i % probes.Rows))
			}
		})
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	curve := func(name string, exact func([]float64) float64, m any, specs []model.ApproxSpec) {
		base := perRow(exact)
		t.Logf("%s exact: %.0f ns/row (n=%d, d=%d)", name, base, n, benchDim)
		for _, spec := range specs {
			am, err := model.CompileApprox(m, spec)
			if err != nil {
				t.Fatalf("%s %s: %v", name, spec, err)
			}
			worst := 0.0
			for i := 0; i < probes.Rows; i++ {
				x := probes.Row(i)
				if e := math.Abs(am.Decision(x) - exact(x)); e > worst {
					worst = e
				}
			}
			ns := perRow(am.ScoreRow)
			t.Logf("%s %-12s max|err| %.4f  %8.0f ns/row  %6.1fx", name, spec, worst, ns, base/ns)
		}
	}

	var rffs, nys []model.ApproxSpec
	for _, d := range []int{64, 128, 256, 512, 1024, 2048} {
		rffs = append(rffs, model.ApproxSpec{Method: model.ApproxRFF, Dim: d, Seed: 84})
	}
	for _, m := range []int{16, 32, 64, 128, 256, 512} {
		nys = append(nys, model.ApproxSpec{Method: model.ApproxNystrom, Dim: m, Seed: 84})
	}
	curve("svc", svc.Decision, svc, append(append([]model.ApproxSpec{}, rffs...), nys...))
	curve("gp", g.Predict, g, append(append([]model.ApproxSpec{}, rffs...), nys...))
}

// BenchmarkPredictExactVsApprox is the tentpole's acceptance benchmark:
// single-row predict throughput of the exact kernel models versus their
// compiled approx-linear forms at RFF D=512 and Nyström m=128. Compare
// the <kind>/exact sub-benchmark against the same kind's compiled ones.
func BenchmarkPredictExactVsApprox(b *testing.B) {
	n := benchScale(256, 2048)
	svc, g := benchModels(n)
	probes := benchProbes(64)

	compile := func(m any, spec model.ApproxSpec) *model.ApproxModel {
		am, err := model.CompileApprox(m, spec)
		if err != nil {
			b.Fatal(err)
		}
		return am
	}
	rff := model.ApproxSpec{Method: model.ApproxRFF, Dim: 512, Seed: 84}
	nys := model.ApproxSpec{Method: model.ApproxNystrom, Dim: 128, Seed: 84}

	for _, tc := range []struct {
		name  string
		score func([]float64) float64
	}{
		{"svc/exact", svc.Predict},
		{"svc/rff512", compile(svc, rff).ScoreRow},
		{"svc/nystrom128", compile(svc, nys).ScoreRow},
		{"gp/exact", g.Predict},
		{"gp/rff512", compile(g, rff).ScoreRow},
		{"gp/nystrom128", compile(g, nys).ScoreRow},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportMetric(float64(n), "basis_rows")
			// Warm one-time lazy state (the Nyström weight fold) so the
			// 1x CI runs time the steady-state path.
			_ = tc.score(probes.Row(0))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = tc.score(probes.Row(i % probes.Rows))
			}
		})
	}
}
