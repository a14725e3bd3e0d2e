package cluster

// FuzzRouterPredict holds the router's POST /predict/{model} to the
// contract FuzzPredictHandler holds a single node to: every model name
// and body, however malformed, gets either a 200 with one prediction
// per instance or a 4xx/5xx with an error body, and never a panic (not
// even one the recovery wrapper would turn into a 500). A 200 reached
// the replicas under exactly the name sent, and since both replicas
// always answer, no input takes either out of service. The one other
// answer is http.ServeMux's redirect for a path it cleans (a name of
// "." or "..", say). FuzzRouterLoad does the same
// for PUT /models/{name}, the contract FuzzLoadHandler holds a single
// node to, and adds that a body the front refuses reaches no replica.
// FuzzRouterReply turns to the other network input, the replica's
// reply: whatever status and body the owners answer with, the router
// answers 200 only with one prediction per row, puts an error body on
// every other reply, and keeps every replica that answered in service.
// The three share one router, so each execution first probes both
// replicas back into service: an input is blamed only for what it does
// itself. The fuzz job runs all three targets via scripts/fuzz.sh.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path"
	"strings"
	"sync"
	"testing"

	"repro/internal/linear"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
)

// fuzzRouter is one router over two fake replicas, both owning every
// model, shared across fuzz executions in this process.
var (
	fuzzRouterOnce sync.Once
	fuzzRouter     *Router
	fuzzFakes      []*fakeReplica
)

func fuzzFleet() (*Router, []*fakeReplica) {
	fuzzRouterOnce.Do(func() {
		fuzzFakes = make([]*fakeReplica, 2)
		bases := make([]string, len(fuzzFakes))
		for i := range bases {
			// Shared across executions, so never closed: the fuzz
			// process exit tears the fakes down.
			fuzzFakes[i] = &fakeReplica{}
			bases[i] = httptest.NewServer(fuzzFakes[i].handler()).URL
		}
		fuzzRouter = NewRouter(Config{Replication: 2}, bases)
	})
	return fuzzRouter, fuzzFakes
}

// readmit probes the shared fleet back into service at the start of an
// execution, so a replica an earlier input took out is not blamed on
// this one.
func readmit(t *testing.T, rt *Router) {
	t.Helper()
	if n := rt.ProbeAll(context.Background()); n != len(rt.Replicas()) {
		t.Fatalf("probe: %d/%d replicas back in service", n, len(rt.Replicas()))
	}
}

// cleaned reports whether http.ServeMux rewrites the request path p
// instead of routing it, answering with a redirect to the clean form.
func cleaned(p string) bool {
	c := path.Clean(p)
	if strings.HasSuffix(p, "/") && c != "/" {
		c += "/"
	}
	return c != p
}

func FuzzRouterPredict(f *testing.F) {
	for _, body := range []string{
		`{"instances": [[1, 2]]}`,
		`{"instances": [[1, 2], [3, 4], [5, 6]]}`,
		`{"instances": []}`,
		`{"instances": [[]]}`,
		`{"instances": [[1e308, -1e308]]}`,
		`{"instances": "not an array"}`,
		`{"instances": [[null, {}]]}`,
		`{`,
		``,
		"\x00\x01\xff binary",
		`[[1,2]]`,
		`{"instances": [[1, null]]}`,
		`{"instances": [null]}`,
		`{"instances": null}`,
		`{"instances": [[5]], "instances": [[null]]}`,
		`{"instances": [[5, 1]], "instances": [[null, 1]]}`,
		`{"instances": [[5, 1]], "instances": [[7, 1]]}`,
		`{"instances": [[5, 1]], "instances": null}`,
	} {
		f.Add("m", []byte(body))
	}
	for _, name := range []string{"a%b", "a?b", "a#b", ""} {
		f.Add(name, []byte(`{"instances": [[1, 2], [3, 4]]}`))
	}

	rt, fakes := fuzzFleet()
	h := rt.Handler()
	panics := obs.GetCounter("cluster.panics_recovered")
	f.Fuzz(func(t *testing.T, name string, body []byte) {
		readmit(t, rt)
		before := panics.Value()
		hits := []int64{fakes[0].hits.Load(), fakes[1].hits.Load()}
		target := "/predict/" + url.PathEscape(name)
		req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if panics.Value() != before {
			t.Fatalf("handler panicked for name %q, body %q: %s", name, body, rec.Body.String())
		}
		for _, rep := range rt.Replicas() {
			if !rep.Healthy() {
				t.Fatalf("name %q, body %q took replica %d out of service", name, body, rep.Index)
			}
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
			for i, fake := range fakes {
				if fake.hits.Load() == hits[i] {
					continue
				}
				if got := fake.lastName.Load().(string); got != name {
					t.Fatalf("name %q reached replica %d as %q", name, i, got)
				}
			}
		case rec.Code >= 300 && rec.Code <= 399:
			if !cleaned(target) {
				t.Fatalf("status %d for %s, a path http.ServeMux does not clean", rec.Code, target)
			}
		case rec.Code >= 400 && rec.Code <= 599:
			var eb serve.ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
				t.Fatalf("status %d without an error body: %q", rec.Code, rec.Body.String())
			}
		default:
			t.Fatalf("unexpected status %d for name %q, body %q", rec.Code, name, body)
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

	rt, fakes := fuzzFleet()
	h := rt.Handler()
	panics := obs.GetCounter("cluster.panics_recovered")
	loads := func() int64 { return fakes[0].loads.Load() + fakes[1].loads.Load() }
	f.Fuzz(func(t *testing.T, body []byte) {
		readmit(t, rt)
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

func FuzzRouterReply(f *testing.F) {
	for _, seed := range []struct {
		status int
		body   string
	}{
		{http.StatusOK, `{"model": "m", "kind": "k", "predictions": [1, 2, 3]}`},
		{http.StatusOK, `{"model": "m", "kind": "k", "predictions": [1, 2]}`},
		{http.StatusOK, `{"model": "m", "kind": "k", "predictions": [1, 2, 3, 4]}`},
		{http.StatusOK, `{"model": "m", "kind": "k", "predictions": [1, `},
		{http.StatusOK, `not json`},
		{http.StatusOK, `{"model": "m", "kind": "k", "predictions": null}`},
		{http.StatusOK, `{"predictions": [1, 2, 3], "payload_sha256": "x", "extra": {"a": [1]}}`},
		{http.StatusOK, ``},
		{http.StatusNoContent, `{"predictions": [1, 2, 3]}`},
		{http.StatusOK, `{"predictions": [1e999, 2, 3]}`},
		{http.StatusServiceUnavailable, "\x00\xff<html>garbage"},
		{http.StatusInternalServerError, `{"error": "boom"}`},
		{http.StatusTooManyRequests, `{"error": "shed"}`},
		{http.StatusNotFound, ``},
	} {
		f.Add(seed.status, []byte(seed.body))
	}

	rt, fakes := fuzzFleet()
	h := rt.Handler()
	panics := obs.GetCounter("cluster.panics_recovered")
	const threeRows = `{"instances": [[0], [1], [2]]}`
	f.Fuzz(func(t *testing.T, status int, body []byte) {
		readmit(t, rt)
		// Fold the status onto those a replica sends, 2xx or 400 to 599,
		// leaving those as they are.
		status %= 600
		if status < 0 {
			status += 600
		}
		switch {
		case status < 200:
			status += 400
		case status >= 300 && status < 400:
			status -= 100
		}
		reply := &fakeReply{status: status, body: body}
		for _, fake := range fakes {
			fake.reply.Store(reply)
			defer fake.reply.Store(nil)
		}
		before := panics.Value()
		rec := postPredict(h, "m", threeRows, "")
		if panics.Value() != before {
			t.Fatalf("handler panicked for reply %d %q: %s", status, body, rec.Body.String())
		}
		for _, rep := range rt.Replicas() {
			if !rep.Healthy() {
				t.Fatalf("reply %d %q took replica %d out of service", status, body, rep.Index)
			}
		}
		switch {
		case rec.Code == http.StatusOK:
			var presp serve.PredictResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &presp); err != nil {
				t.Fatalf("200 with unparseable response: %v", err)
			}
			if len(presp.Predictions) != 3 {
				t.Fatalf("200 with %d predictions for 3 rows, from reply %d %q", len(presp.Predictions), status, body)
			}
		case rec.Code >= 400 && rec.Code <= 599:
			var eb serve.ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
				t.Fatalf("status %d without an error body: %q", rec.Code, rec.Body.String())
			}
		default:
			t.Fatalf("unexpected status %d for reply %d %q", rec.Code, status, body)
		}
		// A 4xx is the caller's and goes back as it is; anything else
		// that is not a 2xx fails over, here to the same reply, so 502.
		switch {
		case status >= 400 && status < 500 && rec.Code != status:
			t.Fatalf("replica's %d answered as %d", status, rec.Code)
		case status >= 500 && rec.Code != http.StatusBadGateway:
			t.Fatalf("replica's %d answered as %d, want 502", status, rec.Code)
		}
	})
}
