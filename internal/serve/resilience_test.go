package serve

// Resilience tests (ISSUE 4): priority-aware load shedding, per-request
// deadlines, panic isolation, and bounded drain under injected stalls.
// The chaos harness at the repo root (chaos_e2e_test.go) composes these
// mechanisms end to end; here each one is pinned down in isolation.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/linalg"
	"repro/internal/obs"
)

// predictVia posts a predict request straight through the handler (no
// network) with an optional priority header.
func predictVia(h http.Handler, name, prio string, instances [][]float64) *httptest.ResponseRecorder {
	body, _ := json.Marshal(PredictRequest{Instances: instances})
	req := httptest.NewRequest(http.MethodPost, "/predict/"+name, bytes.NewReader(body))
	if prio != "" {
		req.Header.Set("X-Priority", prio)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestPrioritySheddingOrder: as in-flight load rises, the low tier
// sheds first (50% of MaxInFlight), then normal (90%), then high
// (100%) — overload sacrifices the least important traffic first.
func TestPrioritySheddingOrder(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 10, MaxBatch: 1})
	h := s.Handler()
	inst := [][]float64{make([]float64, 8)}

	cases := []struct {
		occupied int64
		want     map[string]int // priority -> expected status
	}{
		{0, map[string]int{"low": 200, "": 200, "high": 200}},
		{5, map[string]int{"low": 429, "": 200, "high": 200}},
		{9, map[string]int{"low": 429, "": 429, "high": 200}},
		{10, map[string]int{"low": 429, "": 429, "high": 429}},
	}
	for _, tc := range cases {
		for prio, want := range tc.want {
			s.front.adm.inflight.Store(tc.occupied)
			rec := predictVia(h, "ridge", prio, inst)
			if rec.Code != want {
				t.Errorf("occupied=%d priority=%q: status %d, want %d",
					tc.occupied, prio, rec.Code, want)
			}
		}
	}
	s.front.adm.inflight.Store(0)

	// Shed counters attribute rejections to the tier that was refused.
	before := obs.GetCounter("serve.shed.low").Value()
	s.front.adm.inflight.Store(10)
	predictVia(h, "ridge", "low", inst)
	s.front.adm.inflight.Store(0)
	if got := obs.GetCounter("serve.shed.low").Value(); got != before+1 {
		t.Fatalf("serve.shed.low = %d, want %d", got, before+1)
	}
}

// TestHealthProbesNeverShed: with every in-flight slot taken and
// predict traffic being 429'd, /healthz and /readyz answer instantly —
// they bypass the shedder entirely, so an overloaded pod still reports
// itself alive instead of getting killed and re-spawned into the same
// overload.
func TestHealthProbesNeverShed(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 4, MaxBatch: 1})
	h := s.Handler()
	s.front.adm.inflight.Store(4) // saturated
	defer s.front.adm.inflight.Store(0)

	// Keep hostile load arriving while we probe.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst := [][]float64{make([]float64, 8)}
			for {
				select {
				case <-stop:
					return
				default:
					predictVia(h, "ridge", "high", inst)
				}
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	if rec := predictVia(h, "ridge", "high", [][]float64{make([]float64, 8)}); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated predict = %d, want 429", rec.Code)
	}
	for _, path := range []string{"/healthz", "/readyz"} {
		best := time.Duration(1 << 62)
		for i := 0; i < 10; i++ {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			rec := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(rec, req)
			if d := time.Since(start); d < best {
				best = d
			}
			if rec.Code != http.StatusOK {
				t.Fatalf("%s under full load = %d, want 200", path, rec.Code)
			}
		}
		if best > time.Millisecond {
			t.Fatalf("%s best-of-10 latency %v under full load, want < 1ms", path, best)
		}
	}
}

// TestRequestDeadline504: a request whose deadline expires inside the
// serving path (here: injected kernel-eval latency far beyond the
// timeout) gets 504 and increments serve.deadline_exceeded, instead of
// holding the connection for the duration of the stall.
func TestRequestDeadline504(t *testing.T) {
	defer fault.Deactivate()
	s := newTestServer(t, Config{MaxBatch: 1, RequestTimeout: 50 * time.Millisecond})
	h := s.Handler()

	fault.Activate(fault.Plan{Seed: 1, Sites: map[string]fault.SiteConfig{
		fault.SiteKernelEval: {LatencyRate: 1, Latency: 30 * time.Second},
	}})
	before := s.front.deadlines.Value()
	start := time.Now()
	rec := predictVia(h, "ridge", "", [][]float64{make([]float64, 8)})
	elapsed := time.Since(start)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", rec.Code, rec.Body.String())
	}
	if elapsed > 5*time.Second {
		t.Fatalf("504 took %v — the deadline did not cut the stall short", elapsed)
	}
	if got := s.front.deadlines.Value(); got <= before {
		t.Fatalf("serve.deadline_exceeded did not increase (%d -> %d)", before, got)
	}

	// With the plan gone the same request succeeds immediately.
	fault.Deactivate()
	if rec := predictVia(h, "ridge", "", [][]float64{make([]float64, 8)}); rec.Code != http.StatusOK {
		t.Fatalf("post-chaos predict = %d, want 200", rec.Code)
	}
}

// TestRecoveryMiddleware: under either server's scope, a panicking
// handler answers 500 and bumps <scope>.panics_recovered; the process
// (and the test binary) survives.
func TestRecoveryMiddleware(t *testing.T) {
	for _, scope := range []string{"serve", "cluster"} {
		h := NewFront(scope, 1, 0).wrap("boom", func(http.ResponseWriter, *http.Request) {
			panic("kaboom")
		})
		panics := obs.GetCounter(scope + ".panics_recovered")
		before := panics.Value()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status = %d, want 500", scope, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "kaboom") {
			t.Fatalf("%s: panic message lost: %s", scope, rec.Body.String())
		}
		if got := panics.Value(); got != before+1 {
			t.Fatalf("%s.panics_recovered = %d, want %d", scope, got, before+1)
		}
	}
}

// TestRequestBodyCap: a predict body over MaxRequestBytes is refused
// with 413 before it can become an allocation problem.
func TestRequestBodyCap(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 1})
	h := s.Handler()
	big := bytes.Repeat([]byte("9"), MaxRequestBytes+2)
	req := httptest.NewRequest(http.MethodPost, "/predict/ridge", bytes.NewReader(big))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
}

// TestCloseBoundedUnderInjectedStall is the drain-bug regression test:
// with kernel eval stalled by a 10-minute injected latency and a
// request already in the queue, Close must return within the configured
// DrainTimeout (plus the cancellation grace) — the context cancel
// aborts the injected Wait. Before the fix, close() waited on the queue
// unboundedly and SIGTERM hung for the full stall.
func TestCloseBoundedUnderInjectedStall(t *testing.T) {
	defer fault.Deactivate()
	s := newTestServer(t, Config{MaxBatch: 1, DrainTimeout: 100 * time.Millisecond})
	h := s.Handler()

	fault.Activate(fault.Plan{Seed: 3, Sites: map[string]fault.SiteConfig{
		fault.SiteKernelEval: {LatencyRate: 1, Latency: 10 * time.Minute},
	}})
	// Park one request in the stalled queue (no request deadline, so
	// only the drain cancel can free it).
	started := make(chan struct{})
	doneReq := make(chan int, 1)
	go func() {
		close(started)
		rec := predictVia(h, "ridge", "", [][]float64{make([]float64, 8)})
		doneReq <- rec.Code
	}()
	<-started
	time.Sleep(20 * time.Millisecond) // let the batch enter the injected Wait

	start := time.Now()
	s.Close()
	elapsed := time.Since(start)
	if elapsed > 3*time.Second {
		t.Fatalf("Close took %v with a stalled queue, want ~DrainTimeout", elapsed)
	}
	select {
	case code := <-doneReq:
		if code != http.StatusGatewayTimeout && code != http.StatusInternalServerError &&
			code != http.StatusServiceUnavailable {
			t.Fatalf("stalled request finished with %d, want a 5xx", code)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stalled request never completed after Close")
	}
}

// TestCloseWithinAbandonsTrueStall: a scorer that ignores context
// cancellation entirely (blocked on something that is not ctx-aware)
// cannot hold shutdown hostage — closeWithin cancels, waits the grace,
// then abandons the goroutine and returns false.
func TestCloseWithinAbandonsTrueStall(t *testing.T) {
	release := make(chan struct{})
	score := func(context.Context, *linalg.Matrix, []float64) error {
		<-release // a true stall: no ctx arm
		return errors.New("released")
	}
	b := newBatcher(score, 1, 1)
	ch, err := b.submit(context.Background(), column(1), make([]float64, 1))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let the flush enter score

	start := time.Now()
	ok := b.closeWithin(50 * time.Millisecond)
	elapsed := time.Since(start)
	if ok {
		t.Fatal("closeWithin reported a clean drain around a stalled scorer")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("closeWithin took %v, want ~deadline+grace", elapsed)
	}
	close(release) // unblock the abandoned goroutine so the test exits clean
	if err := <-ch; err == nil {
		t.Fatal("abandoned request got a value")
	}
}

// TestCloseWithinDrainsCleanQueue: the bounded close is not trigger-
// happy — a healthy queue drains normally well inside the deadline and
// every accepted request is answered.
func TestCloseWithinDrainsCleanQueue(t *testing.T) {
	score := func(_ context.Context, x *linalg.Matrix, out []float64) error {
		for i := range out {
			out[i] = x.Row(i)[0] + 1
		}
		return nil
	}
	b := newBatcher(score, 1, 4)
	var chans []<-chan error
	values := make([]float64, 16)
	for i := range values {
		ch, err := b.submit(context.Background(), column(float64(i)), values[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	if !b.closeWithin(5 * time.Second) {
		t.Fatal("clean queue reported as stalled")
	}
	for i, ch := range chans {
		if err := <-ch; err != nil || values[i] != float64(i)+1 {
			t.Fatalf("request %d: value %v, error %v", i, values[i], err)
		}
	}
}

// TestSubmitHonorsContext: a deadlined context aborts both the closed
// check and a blocked enqueue.
func TestSubmitHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := newBatcher(func(context.Context, *linalg.Matrix, []float64) error {
		return nil
	}, 1, 1)
	defer b.close()
	if _, err := b.submit(ctx, column(1), make([]float64, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("submit with canceled ctx = %v, want context.Canceled", err)
	}
}

// TestPredictDecodeFaultSite: injected errors at the request-decode
// boundary surface as 500s carrying the injected-fault marker, and the
// server keeps serving afterwards.
func TestPredictDecodeFaultSite(t *testing.T) {
	defer fault.Deactivate()
	s := newTestServer(t, Config{MaxBatch: 1})
	h := s.Handler()

	fault.Activate(fault.Plan{Seed: 5, Sites: map[string]fault.SiteConfig{
		fault.SitePredictDecode: {ErrRate: 1},
	}})
	rec := predictVia(h, "ridge", "", [][]float64{make([]float64, 8)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "injected") {
		t.Fatalf("error does not identify the injected fault: %s", rec.Body.String())
	}
	fault.Deactivate()
	if rec := predictVia(h, "ridge", "", [][]float64{make([]float64, 8)}); rec.Code != http.StatusOK {
		t.Fatalf("post-chaos predict = %d, want 200", rec.Code)
	}
}

// TestShedValues sanity-pins the tier limits themselves.
func TestShedValues(t *testing.T) {
	s := New(Config{MaxInFlight: 100})
	defer s.Close()
	for _, tc := range []struct {
		p    Priority
		want int64
	}{{PriorityLow, 50}, {PriorityNormal, 90}, {PriorityHigh, 100}} {
		if got := s.front.adm.limitFor(tc.p); got != tc.want {
			t.Fatalf("limitFor(%d) = %d, want %d", tc.p, got, tc.want)
		}
	}
	tiny := New(Config{MaxInFlight: 1})
	defer tiny.Close()
	for _, p := range []Priority{PriorityLow, PriorityNormal, PriorityHigh} {
		if got := tiny.front.adm.limitFor(p); got < 1 {
			t.Fatalf("limitFor(%d) = %d with MaxInFlight=1 — a tier is starved", p, got)
		}
	}
	for _, tc := range []struct {
		header string
		want   Priority
	}{{"low", PriorityLow}, {"HIGH", PriorityHigh}, {"", PriorityNormal}, {"urgent", PriorityNormal}} {
		req := httptest.NewRequest(http.MethodPost, "/predict/x", nil)
		if tc.header != "" {
			req.Header.Set("X-Priority", tc.header)
		}
		if got := PriorityOf(req); got != tc.want {
			t.Fatalf("PriorityOf(%q) = %d, want %d", tc.header, got, tc.want)
		}
	}
}
