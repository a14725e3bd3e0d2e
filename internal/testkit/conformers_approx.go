package testkit

import (
	"fmt"
	"math/rand"

	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/svm"
)

// Conformers for the compiled approx-linear kinds (model.CompileApprox).
// Each fits the exact kernel model, compiles it through a seeded feature
// map, and registers the *compiled* model as the persisted artifact —
// so the differential driver (DiffPaths) pins every scoring path over
// the compiled form bit-for-bit, while the invariant refits the exact
// model (deterministic: same case streams) and bounds the compiled
// decision against it with the lane's Approx tolerance.
//
// The feature-map seed draws from its own stream so it is independent
// of the kernel and fit randomness, and RefitIdentity stays Exact: the
// same case recompiles to the bit-identical scorer.

const approxStream = 109

// Exact-vs-approx decision tolerances, set at ~2× the worst error a
// 30-case sweep observes (TestApproxLaneErrorHeadroom logs the live
// margin; the nightly slowconformance run sweeps 24 cases per
// conformer). RFF at D=512 carries O(1/√D) Monte-Carlo error scaled by
// the dual mass — measured worst 0.60 for the SVC margins — while
// Nyström at m=32 of a ≤50-row basis is an order of magnitude tighter
// (0.034 one-class, 0.18 GP) because the landmarks span most of it.
var (
	svcApproxTol      = Approx(1.2, 0.05)
	oneClassApproxTol = Approx(0.1, 0.05)
	gpApproxTol       = Approx(0.35, 0.05)
)

func init() {
	registerSVCApprox()
	registerOneClassApprox()
	registerGPApprox()
}

// fitSVCRBF fits the exact SVC the svc-approx conformer compiles. RFF
// approximates only the RBF kernel, so the kernel stream draws a gamma,
// not a kernel family.
func fitSVCRBF(cs *Case) (*svm.SVC, error) {
	r := cs.Rng(kernelStream)
	k := kernel.RBF{Gamma: (0.2 + r.Float64()) / float64(cs.Train.Dim())}
	return svm.FitSVC(cs.Train, k, svm.SVCConfig{C: 1, Seed: Mix(cs.stream, fitStream)})
}

func svcApproxSpec(cs *Case) model.ApproxSpec {
	return model.ApproxSpec{Method: model.ApproxRFF, Dim: 512, Seed: Mix(cs.stream, approxStream)}
}

func registerSVCApprox() {
	Register(Conformer{
		Name:      "svm/svc-approx",
		Pkg:       "svm",
		Persisted: true,
		Cases:     3,
		Gen: func(r *rand.Rand, _ int) *Case {
			d := GenClassification(r, 50, 4, 2.2)
			return &Case{Train: d, Probes: probesFor(r, d, 40)}
		},
		Fit: func(cs *Case) (*Fit, error) {
			m, err := fitSVCRBF(cs)
			if err != nil {
				return nil, err
			}
			am, err := model.CompileApprox(m, svcApproxSpec(cs))
			if err != nil {
				return nil, fmt.Errorf("compile: %w", err)
			}
			return &Fit{Predict: into(am.ScoreBatchInto), Model: am}, nil
		},
		Invariants: func(cs *Case, f *Fit) error {
			am := f.Model.(*model.ApproxModel)
			exact, err := fitSVCRBF(cs)
			if err != nil {
				return err
			}
			if err := CompareApproxDecisions(exact, am, cs.Probes, svcApproxTol); err != nil {
				return fmt.Errorf("exact-vs-approx margin: %w", err)
			}
			return CheckInSet("svc-approx prediction", f.Predict(cs.Probes), am.Classes[0], am.Classes[1])
		},
		Relations: []Relation{Rel(RefitIdentity(), Exact)},
	})
}

// fitOneClassPSD fits the exact one-class detector the oneclass-approx
// conformer compiles. Nyström handles any persistable PSD kernel, so
// this conformer keeps the full GenPSDKernel family.
func fitOneClassPSD(cs *Case) (*svm.OneClass, error) {
	k := GenPSDKernel(cs.Rng(kernelStream), cs.Train.Dim())
	return svm.FitOneClass(cs.Train.X, k, svm.OneClassConfig{Nu: 0.2})
}

func oneClassApproxSpec(cs *Case) model.ApproxSpec {
	return model.ApproxSpec{Method: model.ApproxNystrom, Dim: 32, Seed: Mix(cs.stream, approxStream)}
}

func registerOneClassApprox() {
	Register(Conformer{
		Name:      "svm/oneclass-approx",
		Pkg:       "svm",
		Persisted: true,
		Cases:     3,
		Gen: func(r *rand.Rand, _ int) *Case {
			d := GenClassification(r, 50, 4, 2.0)
			return &Case{Train: d, Probes: probesFor(r, d, 40)}
		},
		Fit: func(cs *Case) (*Fit, error) {
			m, err := fitOneClassPSD(cs)
			if err != nil {
				return nil, err
			}
			am, err := model.CompileApprox(m, oneClassApproxSpec(cs))
			if err != nil {
				return nil, fmt.Errorf("compile: %w", err)
			}
			return &Fit{Predict: into(am.ScoreBatchInto), Model: am}, nil
		},
		Invariants: func(cs *Case, f *Fit) error {
			am := f.Model.(*model.ApproxModel)
			exact, err := fitOneClassPSD(cs)
			if err != nil {
				return err
			}
			return CompareApproxDecisions(exact, am, cs.Probes, oneClassApproxTol)
		},
		Relations: []Relation{Rel(RefitIdentity(), Exact)},
	})
}

// fitGPRBF fits the exact GP the gp-approx conformer compiles, with the
// same kernel-stream discipline as the exact gp conformer. Noise is one
// decade above the exact conformer's: the RFF error of the compiled
// form scales with the dual mass ‖α‖ = ‖(K+σ²I)⁻¹(y−μ)‖, and a near-
// interpolating GP (σ² = 1e-2) is exactly the regime one would not
// compile — the tradeoff curve in EXPERIMENTS.md records both regimes.
func fitGPRBF(cs *Case) (*gp.Regressor, error) {
	r := cs.Rng(kernelStream)
	k := kernel.RBF{Gamma: (0.2 + r.Float64()) / float64(cs.Train.Dim())}
	return gp.Fit(cs.Train, gp.Config{Kernel: k, Noise: 1e-1})
}

// gpApproxSpec compiles the GP through Nyström rather than RFF: the
// GP's basis is its entire training set, so landmarks sampled from it
// reconstruct the posterior mean far more efficiently than Monte-Carlo
// features — 32 landmarks beat D=512 RFF by an order of magnitude here
// (the EXPERIMENTS.md curve quantifies the gap).
func gpApproxSpec(cs *Case) model.ApproxSpec {
	return model.ApproxSpec{Method: model.ApproxNystrom, Dim: 32, Seed: Mix(cs.stream, approxStream)}
}

func registerGPApprox() {
	Register(Conformer{
		Name:      "gp-approx",
		Pkg:       "gp",
		Persisted: true,
		Cases:     3,
		Gen: func(r *rand.Rand, _ int) *Case {
			d := GenRegression(r, 40, 5, 0.3)
			return &Case{Train: d, Probes: probesFor(r, d, 30)}
		},
		Fit: func(cs *Case) (*Fit, error) {
			m, err := fitGPRBF(cs)
			if err != nil {
				return nil, err
			}
			am, err := model.CompileApprox(m, gpApproxSpec(cs))
			if err != nil {
				return nil, fmt.Errorf("compile: %w", err)
			}
			return &Fit{Predict: into(am.ScoreBatchInto), Model: am}, nil
		},
		Invariants: func(cs *Case, f *Fit) error {
			am := f.Model.(*model.ApproxModel)
			exact, err := fitGPRBF(cs)
			if err != nil {
				return err
			}
			return CompareApproxDecisions(exact, am, cs.Probes, gpApproxTol)
		},
		Relations: []Relation{Rel(RefitIdentity(), Exact)},
	})
}
