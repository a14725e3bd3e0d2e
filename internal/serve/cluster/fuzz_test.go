package cluster

// FuzzRouterPredict holds the router's POST /predict to the contract
// FuzzPredictHandler holds a single node to: every body, however
// malformed, gets either a 200 with one prediction per instance or a
// 4xx/5xx with an error body, and never a panic (not even one the
// recovery wrapper would turn into a 500). The fuzz job runs this
// target via scripts/fuzz.sh.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
)

// fuzzRouter is one router over two fake replicas, shared across fuzz
// executions in this process. SpreadMin 2 fans any multi-row body out
// across both.
var (
	fuzzRouterOnce sync.Once
	fuzzRouter     http.Handler
)

func fuzzRouterHandler(tb testing.TB) http.Handler {
	fuzzRouterOnce.Do(func() {
		bases := make([]string, 2)
		for i := range bases {
			// Shared across executions, so never closed: the fuzz
			// process exit tears the fakes down.
			bases[i] = httptest.NewServer((&fakeReplica{status: http.StatusOK}).handler()).URL
		}
		rt := NewRouter(Config{Replication: 2, SpreadMin: 2}, bases)
		if n := rt.ProbeAll(context.Background()); n != len(bases) {
			tb.Fatalf("probe: %d/%d healthy", n, len(bases))
		}
		fuzzRouter = rt.Handler()
	})
	return fuzzRouter
}

func FuzzRouterPredict(f *testing.F) {
	f.Add([]byte(`{"instances": [[1, 2]]}`))
	f.Add([]byte(`{"instances": [[1, 2], [3, 4], [5, 6]]}`))
	f.Add([]byte(`{"instances": []}`))
	f.Add([]byte(`{"instances": [[]]}`))
	f.Add([]byte(`{"instances": [[1e308, -1e308]]}`))
	f.Add([]byte(`{"instances": "not an array"}`))
	f.Add([]byte(`{"instances": [[null, {}]]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte("\x00\x01\xff binary"))
	f.Add([]byte(`[[1,2]]`))

	h := fuzzRouterHandler(f)
	panics := obs.GetCounter("cluster.panics_recovered")
	f.Fuzz(func(t *testing.T, body []byte) {
		before := panics.Value()
		req := httptest.NewRequest(http.MethodPost, "/predict/m", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if panics.Value() != before {
			t.Fatalf("handler panicked for body %q: %s", body, rec.Body.String())
		}
		switch {
		case rec.Code == http.StatusOK:
			var preq serve.PredictRequest
			if err := json.Unmarshal(body, &preq); err != nil {
				t.Fatalf("200 for a body that does not parse: %q", body)
			}
			var presp serve.PredictResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &presp); err != nil {
				t.Fatalf("200 with unparseable response: %v", err)
			}
			if len(presp.Predictions) != len(preq.Instances) {
				t.Fatalf("%d instances, %d predictions", len(preq.Instances), len(presp.Predictions))
			}
		case rec.Code >= 400 && rec.Code <= 599:
			var eb serve.ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
				t.Fatalf("status %d without an error body: %q", rec.Code, rec.Body.String())
			}
		default:
			t.Fatalf("unexpected status %d for body %q", rec.Code, body)
		}
	})
}
