package repro_test

// End-to-end acceptance test for the model-persistence + serving stack
// (ISSUE 3): train every persistable model kind, save versioned
// artifacts the way `edamine -save-model` does, boot the inference
// server on them, and assert that HTTP predictions are bit-identical to
// scoring the freshly trained models in-process — through the
// single-request path (MaxBatch=1), through the micro-batching path
// (MaxBatch>1 under concurrency), and through edaserved's shipped flag
// defaults, score memo included. Every lane posts the probes twice, so
// with a memo the second pass is answered from it. This is the serving
// extension of the
// repo-wide determinism contract: batching, caching, HTTP transport,
// and JSON encoding must change how predictions are delivered, never
// what they are.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/apps/modelzoo"
	"repro/internal/serve"
	"repro/internal/testkit"
)

func TestServeEndToEnd(t *testing.T) {
	const seed = 11
	trained, err := modelzoo.TrainAll(seed, 64, 24)
	if err != nil {
		t.Fatal(err)
	}

	// Stage 1: persist artifacts exactly like `edamine -save-model DIR models`.
	dir := t.TempDir()
	res, err := modelzoo.Run(modelzoo.Config{Seed: seed, SaveDir: dir, Train: 64, Probes: 24})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Models {
		if !m.BitIdentical {
			t.Fatalf("%s: artifact round-trip is not bit-identical before serving", m.Kind)
		}
	}

	// Stage 2: boot the server on the saved artifacts and compare HTTP
	// predictions against the in-process reference: serial, batched, and
	// as shipped.
	for _, tc := range []struct {
		name string
		cfg  serve.Config
	}{
		{"serial/maxBatch=1", serve.Config{MaxBatch: 1, CacheRows: 0}},
		{"batched/maxBatch=8", serve.Config{MaxBatch: 8, CacheRows: 128}},
		{"shipped/edaserved-defaults", testkit.ShippedServeConfig},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			srv := serve.New(tc.cfg)
			defer srv.Close()
			for _, tr := range trained {
				if _, err := srv.LoadFile(modelzoo.ArtifactFile(dir, tr.Kind), string(tr.Kind)); err != nil {
					t.Fatal(err)
				}
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("/readyz not ready: %v %v", err, resp.StatusCode)
			} else {
				resp.Body.Close()
			}

			for _, tr := range trained {
				tr := tr
				t.Run(string(tr.Kind), func(t *testing.T) {
					// Concurrent single-instance requests: under the batched
					// configs these interleave into shared micro-batches.
					for pass := 1; pass <= 2; pass++ {
						got := make([]float64, tr.Probes.Rows)
						errs := make(chan error, tr.Probes.Rows)
						var wg sync.WaitGroup
						for i := 0; i < tr.Probes.Rows; i++ {
							wg.Add(1)
							go func(i int) {
								defer wg.Done()
								p, err := predictOne(ts.URL, string(tr.Kind), tr.Probes.Row(i))
								if err != nil {
									errs <- fmt.Errorf("pass %d probe %d: %w", pass, i, err)
									return
								}
								got[i] = p
							}(i)
						}
						wg.Wait()
						close(errs)
						for err := range errs {
							t.Fatal(err)
						}
						for i := range got {
							if got[i] != tr.Want[i] {
								t.Fatalf("pass %d probe %d over HTTP = %v, in-process = %v (not bit-identical)",
									pass, i, got[i], tr.Want[i])
							}
						}
					}
				})
			}
		})
	}
}

func predictOne(baseURL, name string, x []float64) (float64, error) {
	body, err := json.Marshal(serve.PredictRequest{Instances: [][]float64{x}})
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(baseURL+"/predict/"+name, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	var pr serve.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return 0, err
	}
	if len(pr.Predictions) != 1 {
		return 0, fmt.Errorf("got %d predictions, want 1", len(pr.Predictions))
	}
	return pr.Predictions[0], nil
}
