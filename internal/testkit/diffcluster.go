package testkit

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/serve/cluster"
)

// DiffPathsCluster is the cluster lane of the differential driver: the
// same fitted model, scored through a real 3-node cluster (three
// serve.Servers on loopback behind one Router), must be bit-identical
// to single-node per-row scoring. Replication 3 puts every replica in
// the owner set and SpreadMin 2 forces even small probe batches to fan
// out, so the merged response genuinely crosses nodes. Both the
// whole-batch route (split across replicas, merged in order) and the
// per-row route (each row a separate request, possibly landing on
// different replicas) are checked against the per-row reference.
//
// Like the HTTP lane in DiffPaths, only all-finite probe rows with
// finite reference scores ride this path — JSON cannot carry ±Inf/NaN
// — and those rows are already pinned bitwise by the in-process lanes.
func DiffPathsCluster(m any, probes *linalg.Matrix) error {
	art, err := model.Encode(m, model.Meta{Name: "testkit-diff"})
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	scorer, err := art.Scorer()
	if err != nil {
		return fmt.Errorf("scorer: %w", err)
	}
	ref := scoreRows(scorer, probes, 1)

	finite := finiteProbeRows(probes, ref)
	if len(finite) == 0 {
		return nil
	}
	sub := linalg.NewMatrix(len(finite), probes.Cols)
	want := make([]float64, len(finite))
	for to, from := range finite {
		copy(sub.Row(to), probes.Row(from))
		want[to] = ref[from]
	}

	const name = "diff"
	lc, err := cluster.NewLocal(3, serve.Config{MaxBatch: 8, MaxWait: time.Millisecond}, cluster.Config{
		Replication: 3,
		SpreadMin:   2,
	})
	if err != nil {
		return fmt.Errorf("boot cluster: %w", err)
	}
	defer lc.Close()
	// Load first: a replica's /readyz stays 503 until it serves a model.
	if err := lc.LoadDirect(name, art); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	if n := lc.ProbeAll(context.Background()); n != 3 {
		return fmt.Errorf("probe: %d/3 replicas healthy", n)
	}

	// Whole batch through the router: split across all three replicas
	// (SpreadMin 2 guarantees fan-out for any probe set of ≥2 rows),
	// merged back in request order.
	got, err := clusterPredict(lc.Router.Handler(), name, matrixRows(sub))
	if err != nil {
		return fmt.Errorf("cluster batch path: %w", err)
	}
	if err := Exact.Compare(want, got); err != nil {
		return fmt.Errorf("cluster batch path: %w", err)
	}

	// Row at a time: each request is its own routing decision, so rows
	// land wherever their owner set's health points — still the same
	// bits.
	for i := 0; i < sub.Rows; i++ {
		got, err := clusterPredict(lc.Router.Handler(), name, [][]float64{sub.Row(i)})
		if err != nil {
			return fmt.Errorf("cluster row path, row %d: %w", i, err)
		}
		if err := Exact.Compare(want[i:i+1], got); err != nil {
			return fmt.Errorf("cluster row path, row %d: %w", i, err)
		}
	}
	return nil
}

// matrixRows views a matrix as a slice of row slices.
func matrixRows(x *linalg.Matrix) [][]float64 {
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	return rows
}

// clusterPredict posts one predict request through the router handler.
func clusterPredict(h http.Handler, name string, instances [][]float64) ([]float64, error) {
	body, err := json.Marshal(serve.PredictRequest{Instances: instances})
	if err != nil {
		return nil, fmt.Errorf("marshal request: %w", err)
	}
	req := httptest.NewRequest(http.MethodPost, "/predict/"+name, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp serve.PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return nil, fmt.Errorf("unmarshal response: %w", err)
	}
	return resp.Predictions, nil
}
