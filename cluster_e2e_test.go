package repro_test

// Cluster conformance lane: every persisted model kind, scored through
// a real 3-node cluster — three serve.Servers on loopback listeners
// behind the consistent-hash router, each at its binary's shipped
// configuration — must be bit-identical to single-node per-row scoring,
// on a fresh batch, on the same batch again from the score memo, and
// row by row (testkit.DiffPathsCluster).

import (
	"testing"

	"repro/internal/apps/modelzoo"
	"repro/internal/testkit"
)

func TestClusterConformanceAllKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster e2e skipped in -short")
	}
	trained, err := modelzoo.TrainAll(13, 48, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(trained) != 6 {
		t.Fatalf("model zoo trained %d kinds, want 6", len(trained))
	}
	for _, tr := range trained {
		tr := tr
		t.Run(string(tr.Kind), func(t *testing.T) {
			t.Parallel()
			if err := testkit.DiffPathsCluster(tr.Model, tr.Probes); err != nil {
				t.Errorf("%s: %v", tr.Kind, err)
			}
		})
	}
}
