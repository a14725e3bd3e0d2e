package testkit

import (
	"math"
	"strings"
	"testing"

	"repro/internal/model"
)

// approxConformers are the compiled-kind registrations the lane test
// sweeps; each pairs the conformer with its spec and tolerance.
var approxLane = []struct {
	name string
	spec func(cs *Case) model.ApproxSpec
	fit  func(cs *Case) (any, error)
	tol  Tolerance
}{
	{"svm/svc-approx", svcApproxSpec,
		func(cs *Case) (any, error) { return fitSVCRBF(cs) }, svcApproxTol},
	{"svm/oneclass-approx", oneClassApproxSpec,
		func(cs *Case) (any, error) { return fitOneClassPSD(cs) }, oneClassApproxTol},
	{"gp-approx", gpApproxSpec,
		func(cs *Case) (any, error) { return fitGPRBF(cs) }, gpApproxTol},
}

// TestDiffPathsApproxLane drives the exact-vs-approx lane directly for
// every compiled kind: fit the exact model, then DiffPathsApprox must
// pass — tolerance-bounded decisions on finite probes plus full
// bit-identity DiffPaths (batch workers 1/2/8, decode, HTTP MaxBatch
// 1 and 8) on the compiled model.
func TestDiffPathsApproxLane(t *testing.T) {
	const seed = 20240806
	for _, lane := range approxLane {
		lane := lane
		t.Run(strings.ReplaceAll(lane.name, "/", "_"), func(t *testing.T) {
			c, ok := Lookup(lane.name)
			if !ok {
				t.Fatalf("conformer %q not registered", lane.name)
			}
			for idx := 0; idx < 3; idx++ {
				cs := c.Case(seed, idx)
				exact, err := lane.fit(cs)
				if err != nil {
					t.Fatalf("case %d: fit: %v", idx, err)
				}
				if err := DiffPathsApprox(exact, lane.spec(cs), cs.Probes, lane.tol); err != nil {
					t.Errorf("case %d: %v", idx, err)
				}
			}
		})
	}
}

// TestApproxLaneErrorHeadroom measures the worst exact-vs-approx
// decision error over a wider sweep and logs it next to the registered
// tolerance, so a tolerance drifting toward its bound is visible before
// the nightly 8x sweep trips.
func TestApproxLaneErrorHeadroom(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is not -short material")
	}
	const seed, cases = 20240806, 30
	for _, lane := range approxLane {
		lane := lane
		t.Run(strings.ReplaceAll(lane.name, "/", "_"), func(t *testing.T) {
			c, ok := Lookup(lane.name)
			if !ok {
				t.Fatalf("conformer %q not registered", lane.name)
			}
			worst := 0.0
			for idx := 0; idx < cases; idx++ {
				cs := c.Case(seed, idx)
				exact, err := lane.fit(cs)
				if err != nil {
					t.Fatalf("case %d: fit: %v", idx, err)
				}
				am, err := model.CompileApprox(exact, lane.spec(cs))
				if err != nil {
					t.Fatalf("case %d: compile: %v", idx, err)
				}
				e, ok := model.ExpansionOf(exact)
				if !ok {
					t.Fatalf("case %d: %T is not an exact kernel model", idx, exact)
				}
				lo, hi := basisEnvelope(e.Basis)
				for i := 0; i < cs.Probes.Rows; i++ {
					x := cs.Probes.Row(i)
					if !allFinite(x) || !inBox(x, lo, hi) {
						continue
					}
					if d := math.Abs(am.Decision(x) - e.Decision(x)); d > worst {
						worst = d
					}
				}
			}
			t.Logf("%s: worst |approx − exact| = %.4g over %d cases (tol abs %g)",
				lane.name, worst, cases, lane.tol.Abs)
			if worst > lane.tol.Abs {
				t.Errorf("worst error %g exceeds the lane's abs tolerance %g", worst, lane.tol.Abs)
			}
		})
	}
}
