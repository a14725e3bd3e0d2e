package serve

// FuzzPredictHandler: POST /predict must answer every body — truncated
// JSON, absurd numbers, wrong shapes, binary garbage — with an HTTP
// status, never a panic (the recovery middleware is the last line; the
// handler itself should not need it for malformed input).
// FuzzLoadHandler holds PUT /models/{name} to its contract: a 200
// exactly for the bytes model.Decode accepts, otherwise a 4xx with an
// error body. Seed corpora live under testdata/fuzz/; the fuzz job runs
// both targets via scripts/fuzz.sh.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/linear"
	"repro/internal/model"
	"repro/internal/obs"
)

// fuzzServer builds one tiny server (a 2-feature ridge model, batching
// disabled) shared across fuzz executions in this process.
var (
	fuzzServerOnce sync.Once
	fuzzHandler    http.Handler
)

func fuzzPredictHandler(tb testing.TB) http.Handler {
	fuzzServerOnce.Do(func() {
		a, err := model.Encode(&linear.Regression{W: []float64{0.5, -2}, B: 1}, model.Meta{Name: "m"})
		if err != nil {
			tb.Fatalf("encode fuzz model: %v", err)
		}
		s := New(Config{MaxBatch: 1})
		if err := s.Load("", a); err != nil {
			tb.Fatalf("load fuzz model: %v", err)
		}
		fuzzHandler = s.Handler()
	})
	return fuzzHandler
}

func FuzzPredictHandler(f *testing.F) {
	f.Add([]byte(`{"instances": [[1, 2]]}`))
	f.Add([]byte(`{"instances": [[1, 2], [3, 4], [5, 6]]}`))
	f.Add([]byte(`{"instances": []}`))
	f.Add([]byte(`{"instances": [[1]]}`))
	f.Add([]byte(`{"instances": [[1e308, -1e308]]}`))
	f.Add([]byte(`{"instances": "not an array"}`))
	f.Add([]byte(`{"instances": [[null, {}]]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte("\x00\x01\xff binary"))
	f.Add([]byte(`[[1,2]]`))

	h := fuzzPredictHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/predict/m", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // must not panic
		switch rec.Code {
		case http.StatusOK:
			// An accepted body must produce a well-formed response with
			// one prediction per instance.
			var preq PredictRequest
			if err := json.Unmarshal(body, &preq); err != nil {
				t.Fatalf("200 for a body that does not parse: %q", body)
			}
			var presp PredictResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &presp); err != nil {
				t.Fatalf("200 with unparseable response: %v", err)
			}
			if len(presp.Predictions) != len(preq.Instances) {
				t.Fatalf("%d instances, %d predictions", len(preq.Instances), len(presp.Predictions))
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusInternalServerError,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			// Loud, typed refusals are the contract.
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

func FuzzLoadHandler(f *testing.F) {
	for _, seed := range loadSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte(`{"path": "/dev/zero"}`))
	f.Add([]byte(``))

	s := New(Config{MaxBatch: 1})
	f.Cleanup(s.Close)
	h := s.Handler()
	panics := obs.GetCounter("serve.panics_recovered")
	f.Fuzz(func(t *testing.T, body []byte) {
		before := panics.Value()
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
		case rec.Code >= 400 && rec.Code <= 499:
			if derr == nil {
				t.Fatalf("status %d for a body model.Decode accepts: %s", rec.Code, rec.Body.String())
			}
			var eb ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
				t.Fatalf("status %d without an error body: %q", rec.Code, rec.Body.String())
			}
		default:
			t.Fatalf("unexpected status %d for body %q", rec.Code, body)
		}
	})
}
