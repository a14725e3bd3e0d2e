package client

// Property-based and table tests for the client's resilience
// machinery: the backoff schedule's bounds and determinism, the retry
// budget, and end-to-end retry behavior against flaky in-process
// servers. Everything runs race-clean (scripts/check.sh).

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBackoffBoundsProperty: for randomized configs and retry indices,
// every delay lies in [raw/2, raw] where raw = min(base·2^retry, max).
func TestBackoffBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		base := time.Duration(1+rng.Intn(50)) * time.Millisecond
		max := base * time.Duration(1+rng.Intn(64))
		c := New(Config{BaseURL: "http://x", BackoffBase: base, BackoffMax: max, Seed: rng.Int63()})
		for retry := 0; retry < 12; retry++ {
			raw := base
			for i := 0; i < retry && raw < max; i++ {
				raw *= 2
			}
			if raw > max {
				raw = max
			}
			got := c.backoff(retry)
			if got < raw/2 || got > raw {
				t.Fatalf("trial %d retry %d: backoff %v outside [%v, %v] (base %v max %v)",
					trial, retry, got, raw/2, raw, base, max)
			}
		}
	}
}

// TestBackoffDeterministicPerSeed: same seed, same schedule; different
// seed, (almost surely) different schedule.
func TestBackoffDeterministicPerSeed(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		c := New(Config{BaseURL: "http://x", Seed: seed})
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = c.backoff(i)
		}
		return out
	}
	a, b := schedule(42), schedule(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at retry %d: %v != %v", i, a[i], b[i])
		}
	}
	c := schedule(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestBackoffMonotoneNominal: the nominal (pre-jitter) schedule never
// decreases and caps at BackoffMax — jitter can only halve a step, so
// observed delays never exceed the cap.
func TestBackoffMonotoneNominal(t *testing.T) {
	c := New(Config{BaseURL: "http://x", BackoffBase: 10 * time.Millisecond, BackoffMax: 160 * time.Millisecond, Seed: 1})
	for retry := 0; retry < 20; retry++ {
		if got := c.backoff(retry); got > 160*time.Millisecond {
			t.Fatalf("retry %d: %v exceeds BackoffMax", retry, got)
		}
	}
}

// TestRetriesRecoverFromFlakyServer: a server failing the first two
// attempts with 500 then succeeding must yield a clean result through
// the retry path.
func TestRetriesRecoverFromFlakyServer(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, `{"error": "transient"}`)
			return
		}
		fmt.Fprint(w, `{"model": "m", "kind": "ridge", "predictions": [1.5]}`)
	}))
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, MaxAttempts: 4, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond, Seed: 1})
	pred, err := c.Predict(context.Background(), "m", [][]float64{{1, 2}})
	if err != nil {
		t.Fatalf("Predict through flakes: %v", err)
	}
	if len(pred.Predictions) != 1 || pred.Predictions[0] != 1.5 {
		t.Fatalf("prediction = %+v", pred)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 failures + 1 success)", got)
	}
}

// TestPermanentFailureNotRetried: a 400 is the caller's bug — exactly
// one attempt, ErrPermanent.
func TestPermanentFailureNotRetried(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error": "bad instance"}`)
	}))
	defer ts.Close()

	c := New(Config{BaseURL: ts.URL, MaxAttempts: 4, Seed: 1})
	_, err := c.Predict(context.Background(), "m", [][]float64{{1}})
	if !errors.Is(err, ErrPermanent) {
		t.Fatalf("err = %v, want ErrPermanent", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("400 retried: %d calls", got)
	}
}

// TestRetryBudgetExhaustion: with a hard-down server and a tiny budget,
// retries stop at the budget, not at MaxAttempts.
func TestRetryBudgetExhaustion(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()

	c := New(Config{
		BaseURL: ts.URL, MaxAttempts: 10, RetryBudget: 2,
		BackoffBase: time.Millisecond, BackoffMax: time.Millisecond,
		Seed: 1,
	})
	_, err := c.Predict(context.Background(), "m", [][]float64{{1}})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if got := calls.Load(); got != 3 { // 1 first try + 2 budgeted retries
		t.Fatalf("server saw %d calls, want 3", got)
	}
}

// TestClientRaceClean: concurrent Predicts against a healthy server.
func TestClientRaceClean(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"model": "m", "kind": "ridge", "predictions": [2]}`)
	}))
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL, Seed: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := c.Predict(context.Background(), "m", [][]float64{{1, 2}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestHealthEndpoints exercises the typed probes.
func TestHealthEndpoints(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			fmt.Fprint(w, `{"status": "ok"}`)
		case "/readyz":
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"status": "draining"}`)
		case "/metrics":
			fmt.Fprint(w, `[{"name": "serve.batches", "kind": "counter", "value": 3}]`)
		}
	}))
	defer ts.Close()
	c := New(Config{BaseURL: ts.URL, MaxAttempts: 1, Seed: 1})
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("Healthz: %v", err)
	}
	if err := c.Readyz(context.Background()); err == nil {
		t.Fatal("Readyz against a draining server succeeded")
	}
	ms, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	if len(ms) != 1 || ms[0].Name != "serve.batches" || ms[0].Value != 3 {
		t.Fatalf("metrics = %+v", ms)
	}
}
