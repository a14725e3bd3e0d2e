package client

// Property-based and table tests for the client's resilience machinery
// (ISSUE 4): the backoff schedule's bounds and determinism, the breaker
// state machine's transitions under every event ordering that matters,
// the retry budget, and end-to-end retry behavior against flaky
// in-process servers. Everything runs race-clean (scripts/check.sh).

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

// fakeClock is the injectable breaker clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

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

// TestBreakerStateMachine walks the transition table.
func TestBreakerStateMachine(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker(3, time.Second, clk.now)

	if b.state() != "closed" {
		t.Fatalf("initial state %q", b.state())
	}
	// Failures below the threshold keep it closed.
	b.onFailure()
	b.onFailure()
	if b.state() != "closed" {
		t.Fatalf("after 2/3 failures: %q", b.state())
	}
	// A success resets the consecutive count.
	b.onSuccess()
	b.onFailure()
	b.onFailure()
	if b.state() != "closed" {
		t.Fatalf("success did not reset the failure run: %q", b.state())
	}
	// The third consecutive failure opens it.
	b.onFailure()
	if b.state() != "open" {
		t.Fatalf("after 3 consecutive failures: %q", b.state())
	}
	// Open: calls are refused with the remaining cooldown.
	ok, retryAfter := b.allow()
	if ok || retryAfter <= 0 || retryAfter > time.Second {
		t.Fatalf("open allow = (%v, %v)", ok, retryAfter)
	}
	// Cooldown elapses: exactly one half-open probe is admitted.
	clk.advance(time.Second)
	ok, _ = b.allow()
	if !ok || b.state() != "half-open" {
		t.Fatalf("probe admission = %v, state %q", ok, b.state())
	}
	ok, _ = b.allow()
	if ok {
		t.Fatal("second caller admitted during half-open probe")
	}
	// Probe fails: re-open, cooldown restarts.
	b.onFailure()
	if b.state() != "open" {
		t.Fatalf("failed probe left state %q", b.state())
	}
	if ok, _ := b.allow(); ok {
		t.Fatal("re-opened breaker admitted a call before cooldown")
	}
	// Probe succeeds after the next cooldown: closed again.
	clk.advance(time.Second)
	if ok, _ := b.allow(); !ok {
		t.Fatal("second probe refused")
	}
	b.onSuccess()
	if b.state() != "closed" {
		t.Fatalf("successful probe left state %q", b.state())
	}
	if ok, _ := b.allow(); !ok {
		t.Fatal("closed breaker refused a call")
	}
}

// TestBreakerPropertyNeverStuck: under a random event sequence the
// breaker always re-admits traffic after at most one cooldown — there
// is no ordering that wedges it refusing forever.
func TestBreakerPropertyNeverStuck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		clk := &fakeClock{t: time.Unix(0, 0)}
		b := newBreaker(1+rng.Intn(5), time.Second, clk.now)
		for step := 0; step < 50; step++ {
			if ok, _ := b.allow(); ok {
				if rng.Intn(2) == 0 {
					b.onSuccess()
				} else {
					b.onFailure()
				}
			}
			if rng.Intn(4) == 0 {
				clk.advance(time.Duration(rng.Intn(1500)) * time.Millisecond)
			}
		}
		// However the walk ended, one full cooldown must re-admit.
		clk.advance(time.Second)
		if ok, _ := b.allow(); !ok {
			t.Fatalf("trial %d: breaker stuck refusing after a full cooldown (state %s)",
				trial, b.state())
		}
	}
}

// TestBreakerRaceClean hammers one breaker from many goroutines; run
// under -race this pins down the locking.
func TestBreakerRaceClean(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := newBreaker(3, time.Millisecond, clk.now)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if ok, _ := b.allow(); ok {
					if (g+i)%3 == 0 {
						b.onFailure()
					} else {
						b.onSuccess()
					}
				}
				if i%100 == 0 {
					clk.advance(time.Millisecond)
				}
			}
		}(g)
	}
	wg.Wait()
	_ = b.state()
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
// one attempt, ErrPermanent, breaker unaffected.
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
	if c.BreakerState() != "closed" {
		t.Fatalf("4xx moved the breaker to %q", c.BreakerState())
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
		BreakerThreshold: 100, Seed: 1,
	})
	_, err := c.Predict(context.Background(), "m", [][]float64{{1}})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if got := calls.Load(); got != 3 { // 1 first try + 2 budgeted retries
		t.Fatalf("server saw %d calls, want 3", got)
	}
}

// TestBreakerOpensAgainstDownServer: enough consecutive failures trip
// the breaker; subsequent calls fail fast without hitting the wire
// until the cooldown.
func TestBreakerOpensAgainstDownServer(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()

	clk := &fakeClock{t: time.Unix(0, 0)}
	noSleep := func(ctx context.Context, _ time.Duration) error { return ctx.Err() }
	cfg := Config{
		BaseURL: ts.URL, MaxAttempts: 3, RetryBudget: 100,
		BackoffBase: time.Millisecond, BackoffMax: time.Millisecond,
		BreakerThreshold: 3, BreakerCooldown: time.Minute, Seed: 1,
	}
	cfg.Now = clk.now
	cfg.sleep = noSleep
	c := New(cfg)

	// One call = 3 attempts = 3 consecutive failures: breaker opens.
	if _, err := c.Predict(context.Background(), "m", [][]float64{{1}}); err == nil {
		t.Fatal("down server produced a success")
	}
	if c.BreakerState() != "open" {
		t.Fatalf("breaker = %q after threshold failures", c.BreakerState())
	}
	wire := calls.Load()

	// While open every attempt is refused before the wire.
	if _, err := c.Predict(context.Background(), "m", [][]float64{{1}}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open-breaker err = %v, want ErrBreakerOpen", err)
	}
	if calls.Load() != wire {
		t.Fatalf("open breaker let %d calls through", calls.Load()-wire)
	}

	// After the cooldown one probe goes through; it fails, re-opening.
	clk.advance(time.Minute)
	_, err := c.Predict(context.Background(), "m", [][]float64{{1}})
	if err == nil {
		t.Fatal("probe against a down server succeeded")
	}
	if calls.Load() != wire+1 {
		t.Fatalf("half-open sent %d probes, want 1", calls.Load()-wire)
	}
	if c.BreakerState() != "open" {
		t.Fatalf("failed probe left breaker %q", c.BreakerState())
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
