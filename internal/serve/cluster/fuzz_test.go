package cluster

// FuzzRouterPredict holds the router's POST /predict to the contract
// FuzzPredictHandler holds a single node to: every body, however
// malformed, gets either a 200 with one prediction per instance or a
// 4xx/5xx with an error body, and never a panic (not even one the
// recovery wrapper would turn into a 500). FuzzRouterLoad does the same
// for PUT /models/{name}, the contract FuzzLoadHandler holds a single
// node to, and adds that a body the front refuses reaches no replica.
// The fuzz job runs both targets via scripts/fuzz.sh.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/linear"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
)

// fuzzRouter is one router over two fake replicas, both owning every
// model, shared across fuzz executions in this process. SpreadMin 2
// fans any multi-row body out across both.
var (
	fuzzRouterOnce sync.Once
	fuzzRouter     http.Handler
	fuzzFakes      []*fakeReplica
)

func fuzzRouterHandler(tb testing.TB) (http.Handler, []*fakeReplica) {
	fuzzRouterOnce.Do(func() {
		fuzzFakes = make([]*fakeReplica, 2)
		bases := make([]string, len(fuzzFakes))
		for i := range bases {
			// Shared across executions, so never closed: the fuzz
			// process exit tears the fakes down.
			fuzzFakes[i] = &fakeReplica{status: http.StatusOK}
			bases[i] = httptest.NewServer(fuzzFakes[i].handler()).URL
		}
		rt := NewRouter(Config{Replication: 2, SpreadMin: 2}, bases)
		if n := rt.ProbeAll(context.Background()); n != len(bases) {
			tb.Fatalf("probe: %d/%d healthy", n, len(bases))
		}
		fuzzRouter = rt.Handler()
	})
	return fuzzRouter, fuzzFakes
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

	h, _ := fuzzRouterHandler(f)
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

// loadSeeds is the load-route seed corpus: a small valid envelope, a
// truncated one, one whose payload no longer matches its checksum, and
// one from a future schema.
func loadSeeds(tb testing.TB) [][]byte {
	a, err := model.Encode(&linear.Regression{W: []float64{0.5, -2}, B: 1}, model.Meta{Name: "m"})
	if err != nil {
		tb.Fatalf("encode seed model: %v", err)
	}
	data, err := a.Marshal()
	if err != nil {
		tb.Fatalf("marshal seed model: %v", err)
	}
	return [][]byte{
		data,
		data[:len(data)/2],
		bytes.Replace(data, []byte(a.Envelope.Checksum), []byte(strings.Repeat("0", 64)), 1),
		bytes.Replace(data, []byte(`"schema_version": 1`), []byte(`"schema_version": 2`), 1),
	}
}

func FuzzRouterLoad(f *testing.F) {
	for _, seed := range loadSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte(`{"path": "/dev/zero"}`))
	f.Add([]byte(``))

	h, fakes := fuzzRouterHandler(f)
	panics := obs.GetCounter("cluster.panics_recovered")
	loads := func() int64 { return fakes[0].loads.Load() + fakes[1].loads.Load() }
	f.Fuzz(func(t *testing.T, body []byte) {
		before, loadsBefore := panics.Value(), loads()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/models/m", bytes.NewReader(body)))
		if panics.Value() != before {
			t.Fatalf("handler panicked for body %q: %s", body, rec.Body.String())
		}
		_, derr := model.Decode(body)
		switch {
		case rec.Code == http.StatusOK:
			if derr != nil {
				t.Fatalf("200 for a body model.Decode refuses (%v): %q", derr, body)
			}
			if got := loads() - loadsBefore; got != int64(len(fakes)) {
				t.Fatalf("accepted body reached %d replicas, want %d", got, len(fakes))
			}
		case rec.Code >= 400 && rec.Code <= 499:
			if derr == nil {
				t.Fatalf("status %d for a body model.Decode accepts: %s", rec.Code, rec.Body.String())
			}
			if got := loads() - loadsBefore; got != 0 {
				t.Fatalf("refused body reached %d replicas: %q", got, body)
			}
			var eb serve.ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
				t.Fatalf("status %d without an error body: %q", rec.Code, rec.Body.String())
			}
		default:
			t.Fatalf("unexpected status %d for body %q", rec.Code, body)
		}
	})
}
