package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/linalg"
	"repro/internal/linear"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
)

// fakeReplica is a scripted stand-in for a serve.Server: accepting
// every load, and answering predict with a scripted status while
// recording what it saw. Its /readyz answers readyz (200 when zero).
// While stalls is set, a predict for the model "stall" never answers:
// it waits for the caller to give up. While reply is set, every other
// predict is answered with exactly its status and body.
type fakeReplica struct {
	readyz   int
	stalls   atomic.Bool
	reply    atomic.Pointer[fakeReply]
	status   atomic.Int64 // predict reply status; 0 or 200 serves real-looking predictions
	hits     atomic.Int64
	probes   atomic.Int64 // requests to /readyz
	loads    atomic.Int64 // requests to /models/{name}
	lastPrio atomic.Value // string: last X-Priority seen on predict
	lastName atomic.Value // string: the model name of the last predict
}

// fakeReply is a scripted predict reply, sent as it stands.
type fakeReply struct {
	status int
	body   []byte
}

func (f *fakeReplica) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		f.probes.Add(1)
		if f.readyz != 0 {
			w.WriteHeader(f.readyz)
			fmt.Fprintln(w, `{"status":"scripted"}`)
			return
		}
		fmt.Fprintln(w, `{"status":"ready"}`)
	})
	mux.HandleFunc("/models/", func(w http.ResponseWriter, r *http.Request) {
		f.loads.Add(1)
		io.Copy(io.Discard, r.Body) //nolint:errcheck — test fake
		fmt.Fprintln(w, `{"name":"m","kind":"fake","features":0,"seed":0,"payload_sha256":"fake"}`)
	})
	mux.HandleFunc("/predict/", func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		f.lastPrio.Store(r.Header.Get("X-Priority"))
		name := strings.TrimPrefix(r.URL.Path, "/predict/")
		f.lastName.Store(name)
		if f.stalls.Load() && name == "stall" {
			// The server notices the caller hang up only once the
			// body has been read.
			io.Copy(io.Discard, r.Body) //nolint:errcheck — test fake
			<-r.Context().Done()
			return
		}
		if rp := f.reply.Load(); rp != nil {
			w.WriteHeader(rp.status)
			w.Write(rp.body) //nolint:errcheck — test fake
			return
		}
		if st := int(f.status.Load()); st != 0 && st != http.StatusOK {
			w.WriteHeader(st)
			fmt.Fprintf(w, `{"error":"scripted %d"}`, st)
			return
		}
		var req serve.PredictRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		preds := make([]float64, len(req.Instances))
		for i, row := range req.Instances {
			if len(row) > 0 {
				preds[i] = row[0]
			}
		}
		json.NewEncoder(w).Encode(serve.PredictResponse{ //nolint:errcheck — test fake
			Model: "m", Kind: "fake", Predictions: preds,
		})
	})
	return mux
}

// start serves f on a loopback listener for the rest of the test and
// returns its base URL.
func (f *fakeReplica) start(t testing.TB) string {
	ts := httptest.NewServer(f.handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// fakeCluster boots scripted replicas behind a router and probes them
// healthy. Returns the router and the fakes indexed like the fleet.
func fakeCluster(t *testing.T, cfg Config, statuses ...int) (*Router, []*fakeReplica) {
	t.Helper()
	fakes := make([]*fakeReplica, len(statuses))
	bases := make([]string, len(statuses))
	for i, st := range statuses {
		fakes[i] = &fakeReplica{}
		fakes[i].status.Store(int64(st))
		bases[i] = fakes[i].start(t)
	}
	rt := NewRouter(cfg, bases)
	t.Cleanup(rt.Close)
	if n := rt.ProbeAll(context.Background()); n != len(statuses) {
		t.Fatalf("probe: %d/%d healthy", n, len(statuses))
	}
	return rt, fakes
}

func postPredict(h http.Handler, model string, body string, priority string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/predict/"+model, bytes.NewReader([]byte(body)))
	if priority != "" {
		req.Header.Set("X-Priority", priority)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

const oneRow = `{"instances": [[7]]}`

// TestPriorityForwardedEndToEnd: the caller's X-Priority tier rides
// through the router to the replica verbatim — the fleet sheds on the
// caller's priority, not the router's.
func TestPriorityForwardedEndToEnd(t *testing.T) {
	rt, fakes := fakeCluster(t, Config{Replication: 1}, http.StatusOK)
	h := rt.Handler()
	for _, prio := range []string{"low", "high", ""} {
		rec := postPredict(h, "m", oneRow, prio)
		if rec.Code != http.StatusOK {
			t.Fatalf("priority %q: status %d: %s", prio, rec.Code, rec.Body.String())
		}
		want := prio
		if want == "" {
			want = "normal" // the router normalizes the missing header to its parsed tier
		}
		if got := fakes[0].lastPrio.Load().(string); got != want {
			t.Errorf("priority %q: replica saw X-Priority %q, want %q", prio, got, want)
		}
	}
}

// TestShedLowFirstAtRouter: with the router's admission gate nearly
// full, a low request is shed with 429 while a high request is still
// admitted — and the shed happens at the router, before any replica
// sees traffic.
func TestShedLowFirstAtRouter(t *testing.T) {
	block := make(chan struct{})
	arrived := make(chan struct{}, 8)
	var hits atomic.Int64
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		hits.Add(1)
		arrived <- struct{}{}
		<-block
		fmt.Fprintln(w, `{"model":"m","kind":"fake","predictions":[1]}`)
	}))
	defer slow.Close()

	rt := NewRouter(Config{Replication: 1, MaxInFlight: 2}, []string{slow.URL})
	defer rt.Close()
	if n := rt.ProbeAll(context.Background()); n != 1 {
		t.Fatalf("probe: %d/1 healthy", n)
	}
	h := rt.Handler()
	shedLowBefore := obs.GetCounter("cluster.shed.low").Value()

	// Occupy one in-flight slot; MaxInFlight=2 puts the low tier's
	// limit at 1, so the next low request must shed.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postPredict(h, "m", oneRow, "high")
	}()
	<-arrived

	if rec := postPredict(h, "m", oneRow, "low"); rec.Code != http.StatusTooManyRequests {
		t.Errorf("low under load: status %d, want 429", rec.Code)
	} else if rec.Header().Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After")
	}
	if got := obs.GetCounter("cluster.shed.low").Value(); got != shedLowBefore+1 {
		t.Errorf("cluster.shed.low = %d, want %d", got, shedLowBefore+1)
	}
	// The shed request never reached the replica: only the in-flight
	// high request has arrived.
	if got := hits.Load(); got != 1 {
		t.Errorf("replica saw %d predicts, want 1 (shed request must not arrive)", got)
	}
	// High still gets through the gate (and then waits on the replica).
	wg.Add(1)
	go func() {
		defer wg.Done()
		if rec := postPredict(h, "m", oneRow, "high"); rec.Code != http.StatusOK {
			t.Errorf("high under load: status %d", rec.Code)
		}
	}()
	select {
	case <-arrived: // admitted: it reached the replica
	case <-time.After(5 * time.Second):
		t.Fatal("high-priority request was not admitted")
	}
	close(block)
	wg.Wait()
}

// Test429NeverRerouted: a replica's 429 propagates to the caller
// untouched; the router must not convert load-shedding into
// load-spreading by retrying the request on a different replica. A 429
// is an answer, so however many arrive, the shedding replica stays in
// service.
func Test429NeverRerouted(t *testing.T) {
	rt, fakes := fakeCluster(t, Config{Replication: 2}, http.StatusTooManyRequests, http.StatusTooManyRequests)
	// Make the primary the scripted 429; identify it via the ring.
	primary := rt.Owners("m")[0]
	other := 1 - primary
	fakes[other].status.Store(http.StatusOK)

	for i := 0; i < 10; i++ {
		rec := postPredict(rt.Handler(), "m", oneRow, "low")
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("request %d: status %d, want 429 propagated", i, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Errorf("request %d: propagated 429 lost Retry-After", i)
		}
	}
	if got := fakes[other].hits.Load(); got != 0 {
		t.Errorf("non-primary replica saw %d requests — a 429 was rerouted", got)
	}
	if !rt.Replicas()[primary].Healthy() {
		t.Errorf("a replica answering 429 was taken out of service")
	}
}

// TestFailoverOn5xx: a 500 from the primary fails the request over to
// the next owner, and the caller sees a clean 200. A 500 is an answer, so
// the primary stays in service and serves again as soon as it answers
// 200.
func TestFailoverOn5xx(t *testing.T) {
	rt, fakes := fakeCluster(t, Config{Replication: 2}, http.StatusInternalServerError, http.StatusInternalServerError)
	primary := rt.Owners("m")[0]
	fakes[1-primary].status.Store(http.StatusOK)
	failovers := obs.GetCounter("cluster.failovers")
	before := failovers.Value()

	for i := 0; i < 10; i++ {
		if rec := postPredict(rt.Handler(), "m", oneRow, ""); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200 via failover: %s", i, rec.Code, rec.Body.String())
		}
	}
	if got := fakes[primary].hits.Load(); got != 10 {
		t.Errorf("primary hits = %d, want 10", got)
	}
	if got := fakes[1-primary].hits.Load(); got != 10 {
		t.Errorf("secondary hits = %d, want 10", got)
	}
	if got := failovers.Value(); got != before+10 {
		t.Errorf("cluster.failovers = %d, want %d", got, before+10)
	}
	if !rt.Replicas()[primary].Healthy() {
		t.Fatalf("a replica answering 500 was taken out of service")
	}

	// The primary recovers: the next request is its, with no failover.
	fakes[primary].status.Store(http.StatusOK)
	if rec := postPredict(rt.Handler(), "m", oneRow, ""); rec.Code != http.StatusOK {
		t.Fatalf("after recovery: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := fakes[primary].hits.Load(); got != 11 {
		t.Errorf("after recovery: primary hits = %d, want 11", got)
	}
	if got := fakes[1-primary].hits.Load(); got != 10 {
		t.Errorf("after recovery: secondary hits = %d, want 10", got)
	}
	if got := failovers.Value(); got != before+10 {
		t.Errorf("after recovery: cluster.failovers = %d, want %d", got, before+10)
	}
}

// TestShortReplyFailsOver: a 200 with fewer predictions than the
// request has rows is a failed attempt (badReplyFailsOver).
func TestShortReplyFailsOver(t *testing.T) {
	badReplyFailsOver(t, `{"model": "m", "kind": "fake", "predictions": [0, 1]}`)
}

// TestUndecodableReplyFailsOver: so is a 200 whose body does not
// decode. The replica answered, so it stays in service.
func TestUndecodableReplyFailsOver(t *testing.T) {
	badReplyFailsOver(t, "not json")
}

// badReplyFailsOver: a primary answering 200 with body to a 3-row
// predict has failed the attempt. The request fails over to the next
// owner, the reply counts in the primary's failures, and the primary,
// which answered, stays in service. When no owner answers one
// prediction per row the caller gets 502, never a 200 with the wrong
// count.
func badReplyFailsOver(t *testing.T, body string) {
	t.Helper()
	rt, fakes := fakeCluster(t, Config{Replication: 2}, http.StatusOK, http.StatusOK)
	primary := rt.Owners("m")[0]
	bad := &fakeReply{status: http.StatusOK, body: []byte(body)}
	fakes[primary].reply.Store(bad)
	failures := obs.GetCounter(fmt.Sprintf("cluster.replica.%d.failures", primary))
	before := failures.Value()
	const threeRows = `{"instances": [[0],[1],[2]]}`

	rec := postPredict(rt.Handler(), "m", threeRows, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 from the second owner: %s", rec.Code, rec.Body.String())
	}
	var resp serve.PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if want := []float64{0, 1, 2}; fmt.Sprint(resp.Predictions) != fmt.Sprint(want) {
		t.Fatalf("predictions %v, want %v", resp.Predictions, want)
	}
	if got := failures.Value() - before; got != 1 {
		t.Errorf("cluster.replica.%d.failures rose by %d, want 1", primary, got)
	}
	if !rt.Replicas()[primary].Healthy() {
		t.Errorf("a replica that answered left the serving set")
	}

	fakes[1-primary].reply.Store(bad)
	if rec := postPredict(rt.Handler(), "m", threeRows, ""); rec.Code != http.StatusBadGateway {
		t.Fatalf("status %d with every owner answering %q, want 502: %s", rec.Code, body, rec.Body.String())
	}
}

// TestAttemptTimeoutFailsOver: AttemptTimeout is the one bound on a
// single attempt. A primary that stalls a predict is given up after it,
// the request fails over to the second owner long before the request
// deadline, and the stalled replica, which never answered, leaves the
// serving set.
func TestAttemptTimeoutFailsOver(t *testing.T) {
	rt, fakes := fakeCluster(t, Config{
		Replication:    2,
		AttemptTimeout: 50 * time.Millisecond,
		RequestTimeout: 5 * time.Second,
		DownAfter:      1,
	}, http.StatusOK, http.StatusOK)
	primary := rt.Owners("stall")[0]
	fakes[primary].stalls.Store(true)
	failovers := obs.GetCounter("cluster.failovers")
	before := failovers.Value()

	rec := postPredict(rt.Handler(), "stall", oneRow, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 from the second owner: %s", rec.Code, rec.Body.String())
	}
	if got := fakes[1-primary].hits.Load(); got != 1 {
		t.Errorf("second owner saw %d requests, want 1", got)
	}
	if got := failovers.Value() - before; got != 1 {
		t.Errorf("cluster.failovers rose by %d, want 1", got)
	}
	if rt.Replicas()[primary].Healthy() {
		t.Errorf("the replica that stalled past AttemptTimeout is still in the serving set")
	}
	if !rt.Replicas()[1-primary].Healthy() {
		t.Errorf("the replica that answered left the serving set")
	}
}

// TestReadyzProbesNothing: the router's /readyz reports the health
// already recorded and sends nothing over the network, not even to a
// replica that is out of service.
func TestReadyzProbesNothing(t *testing.T) {
	up := &fakeReplica{}
	notReady := &fakeReplica{readyz: http.StatusServiceUnavailable}
	rt := NewRouter(Config{Replication: 2}, []string{up.start(t), notReady.start(t)})
	t.Cleanup(rt.Close)
	if n := rt.ProbeAll(context.Background()); n != 1 {
		t.Fatalf("probe: %d healthy, want 1", n)
	}
	probes := notReady.probes.Load()
	h := rt.Handler()
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		var reply struct {
			Healthy  int `json:"healthy"`
			Replicas []struct {
				Healthy bool `json:"healthy"`
			} `json:"replicas"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("readyz %d: %v: %s", i, err, rec.Body.String())
		}
		if rec.Code != http.StatusOK || reply.Healthy != 1 || len(reply.Replicas) != 2 || reply.Replicas[1].Healthy {
			t.Fatalf("readyz %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	if got := notReady.probes.Load() - probes; got != 0 {
		t.Errorf("router /readyz probed the unready replica %d times, want 0", got)
	}
}

// TestNamesReachReplicaAsSent: a model name holding '%', '?' or '#'
// reaches the replica under exactly that name, not as a different path
// or an unparsable URL, and no such name takes a replica out of
// service.
func TestNamesReachReplicaAsSent(t *testing.T) {
	rt, fakes := fakeCluster(t, Config{Replication: 2}, http.StatusOK, http.StatusOK)
	h := rt.Handler()
	for _, name := range []string{"a%b", "a?b", "a#b"} {
		primary := fakes[rt.Owners(name)[0]]
		hits := primary.hits.Load()
		rec := postPredict(h, url.PathEscape(name), oneRow, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("%q: status %d: %s", name, rec.Code, rec.Body.String())
		}
		if got := primary.hits.Load() - hits; got != 1 {
			t.Fatalf("%q: primary saw %d requests, want 1", name, got)
		}
		if got := primary.lastName.Load().(string); got != name {
			t.Errorf("%q reached the replica as %q", name, got)
		}
	}
	for _, rep := range rt.Replicas() {
		if !rep.Healthy() {
			t.Errorf("replica %d taken out of service by a model name", rep.Index)
		}
	}
	if rec := postPredict(h, "m", oneRow, ""); rec.Code != http.StatusOK {
		t.Fatalf("/predict/m after the names: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestPermanent4xxPropagates: a 404 (unknown model) is the caller's
// bug on every replica alike — propagated, never failed over.
func TestPermanent4xxPropagates(t *testing.T) {
	rt, fakes := fakeCluster(t, Config{Replication: 2}, http.StatusNotFound, http.StatusNotFound)
	primary := rt.Owners("m")[0]
	fakes[1-primary].status.Store(http.StatusOK)

	rec := postPredict(rt.Handler(), "m", oneRow, "")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404 propagated", rec.Code)
	}
	if got := fakes[1-primary].hits.Load(); got != 0 {
		t.Errorf("secondary saw %d requests — a 4xx was rerouted", got)
	}
}

// TestPredictValidation: malformed requests die at the router, and a
// replica that stalls past the request deadline becomes a counted 504.
func TestPredictValidation(t *testing.T) {
	rt, fakes := fakeCluster(t, Config{Replication: 1, RequestTimeout: 50 * time.Millisecond}, http.StatusOK)
	fakes[0].stalls.Store(true)
	h := rt.Handler()
	deadlines := obs.GetCounter("cluster.deadline_exceeded")
	for _, tc := range []struct {
		name, method, model, body string
		want                      int
	}{
		{"method", http.MethodGet, "m", oneRow, http.StatusMethodNotAllowed},
		{"bad json", http.MethodPost, "m", "{", http.StatusBadRequest},
		{"no instances", http.MethodPost, "m", `{"instances": []}`, http.StatusBadRequest},
		{"too large", http.MethodPost, "m", strings.Repeat("9", serve.MaxRequestBytes+2), http.StatusRequestEntityTooLarge},
		{"replica stalls", http.MethodPost, "stall", oneRow, http.StatusGatewayTimeout},
	} {
		before := deadlines.Value()
		req := httptest.NewRequest(tc.method, "/predict/"+tc.model, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.want)
		}
		want := before
		if tc.want == http.StatusGatewayTimeout {
			want++
		}
		if got := deadlines.Value(); got != want {
			t.Errorf("%s: cluster.deadline_exceeded = %d, want %d", tc.name, got, want)
		}
	}
}

// TestPartitionShedsOwner: a replica_down fault partitions an owner for
// one request; with every owner partitioned the caller gets 503.
func TestPartitionShedsOwner(t *testing.T) {
	rt, fakes := fakeCluster(t, Config{Replication: 2}, http.StatusOK, http.StatusOK)
	fault.Activate(fault.Plan{Seed: 1, Sites: map[string]fault.SiteConfig{
		fault.SiteClusterReplicaDown: {ErrRate: 1.0},
	}})
	defer fault.Deactivate()
	before := obs.GetCounter("cluster.partitions").Value()

	rec := postPredict(rt.Handler(), "m", oneRow, "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 when all owners are partitioned", rec.Code)
	}
	if got := obs.GetCounter("cluster.partitions").Value(); got != before+2 {
		t.Errorf("cluster.partitions = %d, want %d", got, before+2)
	}
	if fakes[0].hits.Load()+fakes[1].hits.Load() != 0 {
		t.Errorf("partitioned replicas still saw traffic")
	}
}

// TestDrainingRefuses: a draining router answers 503 on readyz,
// predict and load, and no refused load reaches a replica, but it keeps
// healthz alive.
func TestDrainingRefuses(t *testing.T) {
	rt, fakes := fakeCluster(t, Config{Replication: 1}, http.StatusOK)
	_, data := ridgeArtifact(t, "m", 1e-3)
	rt.StartDraining()
	h := rt.Handler()
	if rec := postPredict(h, "m", oneRow, ""); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("predict while draining: %d, want 503", rec.Code)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/models/m", bytes.NewReader(data)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("load while draining: %d, want 503", rec.Code)
	}
	if got := fakes[0].loads.Load(); got != 0 {
		t.Errorf("replica saw %d loads from a draining router, want 0", got)
	}
	for path, want := range map[string]int{"/readyz": 503, "/healthz": 200} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != want {
			t.Errorf("%s while draining: %d, want %d", path, rec.Code, want)
		}
	}
}

// ridgeArtifact trains a deterministic toy ridge model at ridge penalty
// lambda and returns it with its envelope bytes.
func ridgeArtifact(t *testing.T, name string, lambda float64) (*model.Artifact, []byte) {
	t.Helper()
	x := linalg.NewMatrix(6, 2)
	ys := []float64{1, 3, 2, 4, 6, 5}
	for i, row := range [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 1}, {1, 2}} {
		copy(x.Row(i), row)
	}
	d, err := dataset.New(x, ys, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := linear.FitRidge(d, lambda)
	if err != nil {
		t.Fatal(err)
	}
	a, err := model.Encode(reg, model.Meta{Name: name, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	data, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return a, data
}

// TestClusterLifecycle drives the real harness end to end: boot, load
// via the router's blue/green PUT /models/{name} (after the same
// refusals a single node makes, none of which reaches a replica),
// predict, readyz, models listing, kill the primary (failover keeps
// answering), revive it, watch it rejoin, and drain.
func TestClusterLifecycle(t *testing.T) {
	scfg := serve.Config{MaxBatch: 1}
	lc, err := NewLocal(3, scfg, Config{Replication: 2, DownAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	const name = "lifecycle-ridge"
	art, data := ridgeArtifact(t, name, 1e-3)
	h := lc.Router.Handler()
	put := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}

	// Every replica is an in-process serve.Server, and the router's
	// front counts under "cluster", so this counts the loads that reached
	// a replica.
	replicaLoads := obs.GetCounter("serve.models_load.requests")
	for _, tc := range []struct {
		name, method, path string
		body               []byte
		want               int
	}{
		{"truncated", http.MethodPut, "/models/" + name, data[:len(data)/2], http.StatusUnprocessableEntity},
		{"oversized", http.MethodPut, "/models/" + name, make([]byte, model.MaxArtifactBytes+1), http.StatusRequestEntityTooLarge},
		{"path body", http.MethodPut, "/models/" + name, []byte(`{"path": "/dev/zero"}`), http.StatusUnprocessableEntity},
		{"POST", http.MethodPost, "/models/" + name, data, http.StatusMethodNotAllowed},
		{"no name", http.MethodPut, "/models/", data, http.StatusBadRequest},
		{"rollout", http.MethodPut, "/models/" + name, data, http.StatusOK},
	} {
		before := replicaLoads.Value()
		rec := put(tc.method, tc.path, tc.body)
		if rec.Code != tc.want {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.want, rec.Body.String())
		}
		want := before
		if tc.want == http.StatusOK {
			want += int64(len(lc.Router.Owners(name)))
		}
		if got := replicaLoads.Value(); got != want {
			t.Errorf("%s: replicas saw %d loads, want %d", tc.name, got-before, want-before)
		}
	}
	if got := obs.GetCounter("cluster.rollouts").Value(); got == 0 {
		t.Errorf("cluster.rollouts = 0 after a successful rollout")
	}

	// The rollout's probe after each load admitted the owners; readyz
	// reports them.
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz after rollout: %d: %s", rec.Code, rec.Body.String())
	}

	// The models listing shows the loaded artifact on its owners.
	req = httptest.NewRequest(http.MethodGet, "/models", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(name)) {
		t.Fatalf("models listing: %d: %s", rec.Code, rec.Body.String())
	}

	// Predictions through the cluster match in-process scoring bit for bit.
	scorer, err := art.Scorer()
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.5, 1.5}
	want := scorer.ScoreRow(probe)
	checkPredict := func(stage string) {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"instances": [][]float64{probe}})
		got, err := predictRows(h, name, string(body))
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if len(got) != 1 || got[0] != want {
			t.Fatalf("%s: predicted %v, want [%v]", stage, got, want)
		}
	}
	checkPredict("healthy fleet")

	// Kill the primary owner: the very next request fails over and
	// still answers 200 with the same bits.
	owners := lc.Router.Owners(name)
	lc.Kill(owners[0])
	checkPredict("primary killed")
	if lc.Router.Replicas()[owners[0]].Healthy() {
		t.Errorf("killed primary still marked healthy")
	}

	// Revive: a fresh listener, readmitted at the next probe. The new
	// process starts with an empty registry, mirroring a real restart,
	// so reload before expecting traffic.
	if err := lc.Revive(owners[0], scfg); err != nil {
		t.Fatal(err)
	}
	if err := lc.Servers[owners[0]].Load(name, art); err != nil {
		t.Fatal(err)
	}
	if err := lc.Router.Replicas()[owners[0]].Probe(context.Background()); err != nil {
		t.Fatalf("probe revived primary: %v", err)
	}
	if !lc.Router.Replicas()[owners[0]].Healthy() {
		t.Errorf("revived primary not readmitted")
	}
	checkPredict("primary revived")

	lc.Router.StartDraining()
	if rec := put(http.MethodPut, "/models/"+name, data); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("load while draining: status %d, want 503", rec.Code)
	}
}

// sixteenRows is a 16-row predict body and its rows: a batch of the
// size the loop's readers send.
func sixteenRows() ([][]float64, string) {
	rows := make([][]float64, 16)
	for i := range rows {
		rows[i] = []float64{0.25 * float64(i), 1.5 - 0.125*float64(i)}
	}
	body, _ := json.Marshal(serve.PredictRequest{Instances: rows})
	return rows, string(body)
}

// scoreRows scores each row in process with the artifact.
func scoreRows(t *testing.T, a *model.Artifact, rows [][]float64) []float64 {
	t.Helper()
	s, err := a.Scorer()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(rows))
	for i, row := range rows {
		out[i] = s.ScoreRow(row)
	}
	return out
}

// distinctVersions returns v1's and v2's scores of rows, failing the
// test unless the two differ on every row, so that a reply mixing them
// shows.
func distinctVersions(t *testing.T, v1, v2 *model.Artifact, rows [][]float64) ([]float64, []float64) {
	t.Helper()
	want1, want2 := scoreRows(t, v1, rows), scoreRows(t, v2, rows)
	for i := range rows {
		if want1[i] == want2[i] {
			t.Fatalf("v1 and v2 both score row %d %v; the test cannot tell them apart", i, want1[i])
		}
	}
	return want1, want2
}

// predictRows posts body through h and returns the predictions of a 200.
func predictRows(h http.Handler, name, body string) ([]float64, error) {
	rec := postPredict(h, name, body, "")
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp serve.PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return nil, fmt.Errorf("reply %q: %v", rec.Body.String(), err)
	}
	return resp.Predictions, nil
}

// TestRoutedReplyOneArtifact: a routed reply comes from one artifact.
// Halfway through a rollout v2 is on the primary owner and v1 still on
// the other; a 16-row predict answers with v2's score on every row.
func TestRoutedReplyOneArtifact(t *testing.T) {
	lc, err := NewLocal(3, serve.Config{}, Config{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	const name = "one-artifact-ridge"
	v1, _ := ridgeArtifact(t, name, 1e-3)
	v2, _ := ridgeArtifact(t, name, 1)
	if err := lc.LoadDirect(name, v1); err != nil {
		t.Fatal(err)
	}
	if err := lc.Servers[lc.Router.Owners(name)[0]].Load(name, v2); err != nil {
		t.Fatal(err)
	}
	if n := lc.ProbeAll(context.Background()); n != 2 {
		t.Fatalf("probe: %d healthy, want the 2 owners", n)
	}
	rows, body := sixteenRows()
	_, want2 := distinctVersions(t, v1, v2, rows)
	got, err := predictRows(lc.Router.Handler(), name, body)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want2) {
		t.Fatalf("predicted %v, want v2's %v", got, want2)
	}
}

// TestClusterRolloutZeroDrops: a blue/green rollout through the router
// under live predict traffic drops nothing. While PUT /models/{name}
// walks the owners, every answer to a 16-row predict is a 200
// bit-identical to v1's scores or to v2's, never a mix; once the
// rollout returns, every answer is v2's.
func TestClusterRolloutZeroDrops(t *testing.T) {
	lc, err := NewLocal(3, serve.Config{}, Config{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	const name = "rollout-ridge"
	v1, _ := ridgeArtifact(t, name, 1e-3)
	v2, data := ridgeArtifact(t, name, 1)
	if err := lc.LoadDirect(name, v1); err != nil {
		t.Fatal(err)
	}
	// Only the owners hold a model, so only they are ready.
	if n := lc.ProbeAll(context.Background()); n != 2 {
		t.Fatalf("probe: %d healthy, want the 2 owners", n)
	}
	rows, body := sixteenRows()
	want1, want2 := distinctVersions(t, v1, v2, rows)
	h := lc.Router.Handler()

	stop := make(chan struct{})
	started := make(chan struct{})
	var startOnce sync.Once
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer startOnce.Do(func() { close(started) })
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := predictRows(h, name, body)
				if err != nil {
					t.Errorf("during rollout: %v", err)
					return
				}
				if !slices.Equal(got, want1) && !slices.Equal(got, want2) {
					t.Errorf("during rollout: predicted %v, want v1's %v or v2's %v", got, want1, want2)
					return
				}
				startOnce.Do(func() { close(started) })
			}
		}()
	}
	<-started // roll out only once traffic is flowing
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/models/"+name, bytes.NewReader(data)))
	close(stop)
	wg.Wait()
	if rec.Code != http.StatusOK {
		t.Fatalf("rollout: status %d: %s", rec.Code, rec.Body.String())
	}
	for i := 0; i < 20; i++ {
		got, err := predictRows(h, name, body)
		if err != nil {
			t.Fatalf("after rollout: %v", err)
		}
		if !slices.Equal(got, want2) {
			t.Fatalf("after rollout: predicted %v, want v2's %v", got, want2)
		}
	}
}

// TestServeExposesRouter: the harness serves the router over loopback
// so real HTTP clients can drive the whole stack.
func TestServeExposesRouter(t *testing.T) {
	lc, err := NewLocal(1, serve.Config{MaxBatch: 1}, Config{Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	url, err := lc.Serve()
	if err != nil {
		t.Fatal(err)
	}
	url2, err := lc.Serve()
	if err != nil || url2 != url {
		t.Fatalf("Serve not idempotent: %q vs %q (%v)", url, url2, err)
	}
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over loopback: %d", resp.StatusCode)
	}
}

// TestMetricsEndpoint: the router serves the shared obs snapshot.
func TestMetricsEndpoint(t *testing.T) {
	rt, _ := fakeCluster(t, Config{Replication: 1}, http.StatusOK)
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	var snap []obs.Metric
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics not a JSON snapshot: %v", err)
	}
}
