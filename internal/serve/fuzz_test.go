package serve

// FuzzPredictHandler: POST /predict must answer every body — truncated
// JSON, absurd numbers, wrong shapes, binary garbage — with an HTTP
// status, never a panic (the recovery middleware is the last line; the
// handler itself should not need it for malformed input).
// FuzzLoadHandler holds PUT /models/{name} to its contract: a 200
// exactly for the bytes model.Decode accepts, otherwise a 4xx with an
// error body. FuzzDecodePredict holds the predict decoder to
// encoding/json: it accepts a body exactly when json.Unmarshal into
// PredictRequest does and no null sits inside "instances", with the
// same rows and the same bits. Seed corpora live under testdata/fuzz/;
// the fuzz job runs all three targets via scripts/fuzz.sh.

import (
	"bytes"
	"encoding/json"
	"math"
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
	for _, tc := range nullBodies {
		f.Add([]byte(tc.body))
	}

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

// nullBodies are predict bodies with a null inside "instances" or a
// repeated key, and the status the fuzz server (2 features, score
// 0.5·x0 − 2·x1 + 1) answers each with. A null row or value is a 400:
// encoding/json would score a null feature as 0, or keep the value an
// earlier key gave it. A repeated key is otherwise the last one.
var nullBodies = []struct {
	body   string
	status int
	score  float64 // the one prediction, when status is 200
}{
	{`{"instances": [[1, null]]}`, http.StatusBadRequest, 0},
	{`{"instances": [null]}`, http.StatusBadRequest, 0},
	{`{"instances": [[1, 2], null]}`, http.StatusBadRequest, 0},
	{`{"instances": null}`, http.StatusBadRequest, 0},
	{`{"instances": [[5]], "instances": [[null]]}`, http.StatusBadRequest, 0},
	{`{"instances": [[5, 1]], "instances": [[null, 1]]}`, http.StatusBadRequest, 0},
	{`{"instances": [[null, 1]], "instances": [[5, 1]]}`, http.StatusBadRequest, 0},
	{`{"instances": [[5, 1]], "instances": null}`, http.StatusBadRequest, 0},
	{`{"instances": [[5, 1]], "instances": []}`, http.StatusBadRequest, 0},
	{`{"instances": [[5, 1]], "instances": [[7, 1]]}`, http.StatusOK, 2.5},
	{`{"instances": [[5, 1]], "INSTANCES": [[7, 1]]}`, http.StatusOK, 2.5},
	{`{"instances": [[5, 1, 9], [3, 3]], "instances": [[7, 1]]}`, http.StatusOK, 2.5},
}

// TestPredictNulls answers each of nullBodies with its status, and each
// 200 with the last key's row scored.
func TestPredictNulls(t *testing.T) {
	h := fuzzPredictHandler(t)
	for _, tc := range nullBodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict/m", strings.NewReader(tc.body)))
		if rec.Code != tc.status {
			t.Errorf("%s: status %d (%s), want %d", tc.body, rec.Code, strings.TrimSpace(rec.Body.String()), tc.status)
			continue
		}
		if tc.status != http.StatusOK {
			continue
		}
		var pr PredictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
			t.Fatal(err)
		}
		if len(pr.Predictions) != 1 || pr.Predictions[0] != tc.score {
			t.Errorf("%s: predictions %v, want [%v]", tc.body, pr.Predictions, tc.score)
		}
	}
}

// nullProbe records whether a null sits inside any "instances" value of
// a body. encoding/json matches its key exactly as PredictRequest's.
type nullProbe struct {
	Instances nullScan `json:"instances"`
}

type nullScan struct{ null bool }

func (n *nullScan) UnmarshalJSON(data []byte) error {
	var rows []json.RawMessage
	if json.Unmarshal(data, &rows) != nil {
		return nil // not an array of values: PredictRequest refuses it
	}
	for _, row := range rows {
		var values []json.RawMessage
		if string(row) == "null" {
			n.null = true
		} else if json.Unmarshal(row, &values) == nil {
			for _, v := range values {
				n.null = n.null || string(v) == "null"
			}
		}
	}
	return nil
}

func FuzzDecodePredict(f *testing.F) {
	for _, body := range []string{
		`{"instances": [[1, 2], [3, 4]]}`,
		`{"instances": [[-0, 0, -0.0, 0.0]]}`,
		`{"instances": [[4.9e-324, -4.9e-324, 2.2250738585072014e-308, 1e-400]]}`,
		`{"instances": [[1e400]]}`,
		`{"instances": [[-1e400]]}`,
		`{"instances": [[1.7976931348623157e308, 1.7976931348623159e308]]}`,
		`{"instances": [[1E+2, 1e+2, 1E-2, 1e2, 1.5E2, -2e0, 0e0, 0E-0, 12345678901234567890123]]}`,
		`{"instances": [[0.1, 0.30000000000000004, 123456789.123456789e-5]]}`,
		" { \"instances\" \t:\n[ \r[ 1 ,\t2 ] , [\n3 ] ,[ ] ]\r} ",
		`{"INSTANCES": [[1, 2]]}`,
		`{"Instances": [[1]], "iNsTaNcEs": [[2, 3]]}`,
		`{"a": [null], "instances": [[1]], "b": {"instances": null}}`,
		`{"instances": [[1, 2]], "instances": [[3]]}`,
		`{"instances": [[5]], "instances": [[null]]}`,
		`{"instances": [[null]], "instances": [[5]]}`,
		`{"instances": [[5]], "instances": null}`,
		`{"instances": [[5]], "instances": []}`,
		`{"instances": [[5]], "instances": "x"}`,
		`{"instances": null}`,
		`{"instances": []}`,
		`{"instances": [[]]}`,
		`{"instances": [[1], [], [2, 3]]}`,
		`{"instances": [null]}`,
		`{"instances": [[1, null]]}`,
		`{"instances": "not an array"}`,
		`{"instances": [["1"]]}`,
		`{"instances": [[true]]}`,
		`{"instances": [{}]}`,
		`{"instances": [1, 2]}`,
		`{"instances": {"a": 1}}`,
		`{"instances": [[[1]]]}`,
		`{"instances": [[1, 2], [3, 4]]`,
		`{}`,
		`null`,
		`[[1, 2]]`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var raw Instances
		_ = raw.UnmarshalJSON(body) // any bytes at all: an error, never a panic

		var got predictBody
		gotErr := json.Unmarshal(body, &got)
		var want PredictRequest
		wantErr := json.Unmarshal(body, &want)
		var probe nullProbe
		_ = json.Unmarshal(body, &probe) // only the null scan matters
		accept := wantErr == nil && !probe.Instances.null
		if (gotErr == nil) != accept {
			t.Fatalf("decoder error %v; encoding/json error %v, null inside %v; body %q",
				gotErr, wantErr, probe.Instances.null, body)
		}
		if !accept {
			return
		}
		in := got.Instances
		if in.Len() != len(want.Instances) {
			t.Fatalf("%d rows, encoding/json %d; body %q", in.Len(), len(want.Instances), body)
		}
		for i, row := range want.Instances {
			if len(in.Row(i)) != len(row) {
				t.Fatalf("row %d has %d values, encoding/json %d; body %q", i, len(in.Row(i)), len(row), body)
			}
			for j, v := range row {
				if math.Float64bits(in.Row(i)[j]) != math.Float64bits(v) {
					t.Fatalf("row %d value %d is %v, encoding/json %v; body %q", i, j, in.Row(i)[j], v, body)
				}
			}
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
