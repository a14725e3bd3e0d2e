package client

// Tests for the single-attempt Try surface (ISSUE 7) — the cluster
// router's calling convention: exactly one counted attempt, no retries,
// and StatusCode() carrying enough structure for the router to decide
// propagate-vs-failover and keep its record of replica health.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// TestTrySingleAttempt: Try hits the server exactly once, success or
// failure.
func TestTrySingleAttempt(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintln(w, `{"error":"boom"}`)
	}))
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL})
	err := c.Try(context.Background(), http.MethodGet, "/readyz", nil, nil, "")
	if err == nil {
		t.Fatal("Try against a 500 server succeeded")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want exactly 1", got)
	}
	if got := StatusCode(err); got != http.StatusInternalServerError {
		t.Fatalf("StatusCode = %d, want 500", got)
	}
}

// TestTryAlwaysAttempts: however many attempts failed before, every
// Try reaches the server and is counted, and the first one after the
// server recovers succeeds. The client keeps no verdict on the host;
// the cluster router's replica health is the only one.
func TestTryAlwaysAttempts(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		if failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	attempts := obs.GetCounter("client.attempts")
	before := attempts.Value()
	c := New(Config{BaseURL: ts.URL})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := c.TryReadyz(ctx); StatusCode(err) != http.StatusInternalServerError {
			t.Fatalf("probe %d against a failing server: %v, want its 500", i, err)
		}
	}
	failing.Store(false)
	if err := c.TryReadyz(ctx); err != nil {
		t.Fatalf("first probe after recovery: %v", err)
	}
	if got := hits.Load(); got != 11 {
		t.Fatalf("server saw %d of 11 attempts", got)
	}
	if got := attempts.Value() - before; got != 11 {
		t.Fatalf("client.attempts rose by %d, want 11", got)
	}
}

// TestTryPredictPriorityOverride: the per-call priority is sent as the
// X-Priority header, and an empty one sends no header at all.
func TestTryPredictPriorityOverride(t *testing.T) {
	var lastPrio atomic.Value // []string: X-Priority values of the last request
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lastPrio.Store(r.Header.Values("X-Priority"))
		fmt.Fprintln(w, `{"model":"m","kind":"k","predictions":[1]}`)
	}))
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL})
	ctx := context.Background()
	oneRow := []byte(`{"instances": [[1]]}`)
	if _, err := c.TryPredict(ctx, "m", oneRow, "high"); err != nil {
		t.Fatal(err)
	}
	if got := lastPrio.Load().([]string); len(got) != 1 || got[0] != "high" {
		t.Fatalf("tier high: server saw X-Priority %q, want [high]", got)
	}
	if _, err := c.TryPredict(ctx, "m", oneRow, ""); err != nil {
		t.Fatal(err)
	}
	if got := lastPrio.Load().([]string); len(got) != 0 {
		t.Fatalf("empty tier: server saw X-Priority %q, want no header", got)
	}
}

// TestTryLoadAndModels: the typed load/list round trip. A load is one
// PUT /models/{name} whose body is exactly the bytes the caller passed,
// under exactly the name it passed, even one a URL must escape.
func TestTryLoadAndModels(t *testing.T) {
	artifact := []byte(`{"schema_version": 1, "kind": "ridge"}` + "\n")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/models/m", "/models/m%?#":
			body, err := io.ReadAll(r.Body)
			if r.Method != http.MethodPut || err != nil || !bytes.Equal(body, artifact) {
				t.Errorf("load request: %s with body %q (%v), want PUT with %q", r.Method, body, err, artifact)
				w.WriteHeader(http.StatusBadRequest)
				return
			}
			fmt.Fprintln(w, `{"name":"m","kind":"ridge","features":8,"seed":7,"payload_sha256":"abc"}`)
		case "/models":
			fmt.Fprintln(w, `[{"name":"m","kind":"ridge","features":8,"seed":7,"payload_sha256":"abc"}]`)
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL})
	ctx := context.Background()
	info, err := c.TryLoad(ctx, "m", artifact)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "m" || info.Kind != "ridge" || info.Checksum != "abc" {
		t.Fatalf("TryLoad decoded %+v", info)
	}
	if _, err := c.TryLoad(ctx, "m%?#", artifact); err != nil {
		t.Fatalf("TryLoad of a name a URL must escape: %v", err)
	}
	models, err := c.TryModels(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Features != 8 {
		t.Fatalf("TryModels decoded %+v", models)
	}
}

// TestStatusCodeExtraction: StatusCode reads the status of every non-2xx
// reply, 4xx and 5xx alike, and of a 2xx whose body does not decode,
// and returns 0 for transport-level failures where no server answered.
func TestStatusCodeExtraction(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/teapot":
			w.WriteHeader(http.StatusTeapot)
		case "/throttle":
			w.WriteHeader(http.StatusTooManyRequests)
		case "/garbled":
			fmt.Fprint(w, "not json")
		default:
			w.WriteHeader(http.StatusBadGateway)
		}
	}))
	c := New(Config{BaseURL: ts.URL})
	ctx := context.Background()
	for path, want := range map[string]int{
		"/teapot": http.StatusTeapot, "/throttle": http.StatusTooManyRequests, "/x": http.StatusBadGateway,
	} {
		err := c.Try(ctx, http.MethodGet, path, nil, nil, "")
		if err == nil {
			t.Fatalf("%s: no error", path)
		}
		if got := StatusCode(err); got != want {
			t.Errorf("%s: StatusCode = %d, want %d", path, got, want)
		}
	}
	var out struct{}
	if got := StatusCode(c.Try(ctx, http.MethodGet, "/garbled", nil, &out, "")); got != http.StatusOK {
		t.Errorf("/garbled: StatusCode = %d, want 200, the status of the reply that did not decode", got)
	}
	ts.Close() // now every call is a refused connection
	err := c.Try(ctx, http.MethodGet, "/teapot", nil, nil, "")
	if err == nil {
		t.Fatal("Try against closed server succeeded")
	}
	if got := StatusCode(err); got != 0 {
		t.Errorf("transport failure StatusCode = %d, want 0", got)
	}
	if StatusCode(nil) != 0 {
		t.Errorf("StatusCode(nil) != 0")
	}
}
