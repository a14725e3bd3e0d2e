package model_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apps/modelzoo"
	"repro/internal/linalg"
	"repro/internal/model"
)

// The golden files freeze schema v1: artifacts written by the current
// code at the time the schema was introduced, committed to testdata/.
// Future schema bumps must keep loading them (backward compatibility is
// the whole point of the version field). Regenerate only when
// intentionally re-baselining:
//
//	go test ./internal/model -run TestGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden artifacts from current code")

const goldenSeed = 42

// goldenExpect pins each golden artifact's probe set and the exact
// predictions the loaded model must produce. encoding/json round-trips
// float64 exactly, so == comparison is sound.
type goldenExpect struct {
	Kind        model.Kind  `json:"kind"`
	Checksum    string      `json:"payload_sha256"`
	ProbeCols   int         `json:"probe_cols"`
	Probes      [][]float64 `json:"probes"`
	Predictions []float64   `json:"predictions"`
}

func goldenPath(kind model.Kind) string {
	return filepath.Join("testdata", "golden_v1_"+string(kind)+".json")
}

func goldenExpectPath() string {
	return filepath.Join("testdata", "golden_v1_expect.json")
}

func TestGoldenArtifactsLoad(t *testing.T) {
	if *updateGolden {
		writeGolden(t)
	}

	raw, err := os.ReadFile(goldenExpectPath())
	if err != nil {
		t.Fatalf("read expectations (run with -update-golden to create): %v", err)
	}
	var expects []goldenExpect
	if err := json.Unmarshal(raw, &expects); err != nil {
		t.Fatalf("parse expectations: %v", err)
	}
	if len(expects) != len(model.Kinds()) {
		t.Fatalf("expectations cover %d kinds, want %d", len(expects), len(model.Kinds()))
	}

	for _, exp := range expects {
		exp := exp
		t.Run(string(exp.Kind), func(t *testing.T) {
			art, err := model.Load(goldenPath(exp.Kind))
			if err != nil {
				t.Fatalf("golden v1 artifact no longer loads: %v", err)
			}
			if art.Envelope.SchemaVersion != 1 {
				t.Fatalf("golden artifact schema version = %d, want 1", art.Envelope.SchemaVersion)
			}
			if art.Envelope.Checksum != exp.Checksum {
				t.Fatalf("golden checksum drifted: file %s, expectations %s",
					art.Envelope.Checksum, exp.Checksum)
			}
			scorer, err := art.Scorer()
			if err != nil {
				t.Fatalf("scorer: %v", err)
			}
			probes := linalg.NewMatrix(len(exp.Probes), exp.ProbeCols)
			for i, row := range exp.Probes {
				copy(probes.Row(i), row)
			}
			for i := 0; i < probes.Rows; i++ {
				got := scorer.ScoreRow(probes.Row(i))
				if got != exp.Predictions[i] {
					t.Fatalf("probe %d: golden model predicts %v, pinned %v — "+
						"loading a v1 artifact no longer reproduces its training-time predictions",
						i, got, exp.Predictions[i])
				}
			}
			batch := scorer.ScoreBatchInto(probes, make([]float64, probes.Rows))
			for i := range batch {
				if batch[i] != exp.Predictions[i] {
					t.Fatalf("probe %d: batch path %v != pinned %v", i, batch[i], exp.Predictions[i])
				}
			}
		})
	}
}

// writeGolden regenerates the committed artifacts and expectations.
func writeGolden(t *testing.T) {
	t.Helper()
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	trained, err := modelzoo.TrainAll(goldenSeed, 48, 8)
	if err != nil {
		t.Fatal(err)
	}
	var expects []goldenExpect
	for _, tr := range trained {
		art, err := model.Save(goldenPath(tr.Kind), tr.Model, model.Meta{
			Name: "golden-" + string(tr.Kind),
			Seed: goldenSeed,
		})
		if err != nil {
			t.Fatalf("%s: %v", tr.Kind, err)
		}
		probes := make([][]float64, tr.Probes.Rows)
		for i := range probes {
			probes[i] = append([]float64(nil), tr.Probes.Row(i)...)
		}
		scorer, err := art.Scorer()
		if err != nil {
			t.Fatalf("%s: %v", tr.Kind, err)
		}
		preds := make([]float64, tr.Probes.Rows)
		for i := range preds {
			preds[i] = scorer.ScoreRow(tr.Probes.Row(i))
		}
		expects = append(expects, goldenExpect{
			Kind:        tr.Kind,
			Checksum:    art.Envelope.Checksum,
			ProbeCols:   tr.Probes.Cols,
			Probes:      probes,
			Predictions: preds,
		})
	}
	data, err := json.MarshalIndent(expects, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenExpectPath(), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %d golden artifacts + expectations", len(trained))
}
