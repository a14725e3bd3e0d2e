package testkit

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/serve/cluster"
)

// DiffPathsCluster is the cluster lane of the differential driver: the
// same fitted model, scored through a real 3-node cluster (three
// serve.Servers on loopback behind one Router), must be bit-identical
// to single-node per-row scoring. Every part runs as shipped: the
// replicas at edaserved's flag defaults (ShippedServeConfig, score memo
// included) and the router at edarouter's (the zero cluster.Config).
// The whole batch goes through the router twice, so the second pass is
// answered from the owner's memo, as in diffViaHTTP; then each row goes
// as a request of its own.
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
	lc, err := cluster.NewLocal(3, ShippedServeConfig, cluster.Config{})
	if err != nil {
		return fmt.Errorf("boot cluster: %w", err)
	}
	defer lc.Close()
	// Load first: a replica's /readyz stays 503 until it serves a model.
	if err := lc.LoadDirect(name, art); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	if n, owners := lc.ProbeAll(context.Background()), len(lc.Router.Owners(name)); n != owners {
		return fmt.Errorf("probe: %d replicas healthy, want the %d owners", n, owners)
	}

	for pass := 1; pass <= 2; pass++ {
		got, err := clusterPredict(lc.Router.Handler(), name, matrixRows(sub))
		if err != nil {
			return fmt.Errorf("cluster batch path, pass %d: %w", pass, err)
		}
		if err := Exact.Compare(want, got); err != nil {
			return fmt.Errorf("cluster batch path, pass %d: %w", pass, err)
		}
	}

	// Row at a time: each row is its own routing decision — still the
	// same bits.
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
