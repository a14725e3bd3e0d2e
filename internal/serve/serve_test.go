package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/modelzoo"
	"repro/internal/linalg"
	"repro/internal/model"
)

const testSeed = 7

// trainedOnce caches one model zoo across tests — training is the
// expensive part and every test wants the same reference predictions.
var (
	trainedOnce sync.Once
	trainedZoo  []modelzoo.Trained
	trainedErr  error
)

func zoo(t *testing.T) []modelzoo.Trained {
	t.Helper()
	trainedOnce.Do(func() {
		trainedZoo, trainedErr = modelzoo.TrainAll(testSeed, 48, 16)
	})
	if trainedErr != nil {
		t.Fatalf("train zoo: %v", trainedErr)
	}
	return trainedZoo
}

// newTestServer loads every zoo model into a fresh server under the
// name string(kind).
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	for _, tr := range zoo(t) {
		a, err := model.Encode(tr.Model, model.Meta{Name: string(tr.Kind), Seed: testSeed})
		if err != nil {
			t.Fatalf("%s: %v", tr.Kind, err)
		}
		if err := s.Load("", a); err != nil {
			t.Fatalf("%s: %v", tr.Kind, err)
		}
	}
	return s
}

func postPredict(t *testing.T, url, name string, instances [][]float64) (int, PredictResponse) {
	t.Helper()
	body, _ := json.Marshal(PredictRequest{Instances: instances})
	resp, err := http.Post(url+"/predict/"+name, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /predict/%s: %v", name, err)
	}
	defer resp.Body.Close()
	var pr PredictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode, pr
}

// TestBatchingDeterminism is the core serving contract: concurrent
// requests, arbitrarily regrouped into micro-batches of size 1, 4, or
// 64, produce predictions bit-identical to serial in-process scoring —
// for every model kind, on every run (this test runs under -race via
// scripts/check.sh).
func TestBatchingDeterminism(t *testing.T) {
	for _, maxBatch := range []int{1, 4, 64} {
		maxBatch := maxBatch
		t.Run(fmt.Sprintf("maxBatch=%d", maxBatch), func(t *testing.T) {
			s := newTestServer(t, Config{MaxBatch: maxBatch, CacheRows: 64})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			for _, tr := range zoo(t) {
				tr := tr
				t.Run(string(tr.Kind), func(t *testing.T) {
					// One goroutine per probe: maximal interleaving, so
					// batches form from unrelated requests.
					got := make([]float64, tr.Probes.Rows)
					var wg sync.WaitGroup
					errs := make(chan error, tr.Probes.Rows)
					for i := 0; i < tr.Probes.Rows; i++ {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							body, _ := json.Marshal(PredictRequest{Instances: [][]float64{tr.Probes.Row(i)}})
							resp, err := http.Post(ts.URL+"/predict/"+string(tr.Kind), "application/json", bytes.NewReader(body))
							if err != nil {
								errs <- err
								return
							}
							defer resp.Body.Close()
							if resp.StatusCode != http.StatusOK {
								errs <- fmt.Errorf("probe %d: status %d", i, resp.StatusCode)
								return
							}
							var pr PredictResponse
							if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
								errs <- err
								return
							}
							got[i] = pr.Predictions[0]
						}(i)
					}
					wg.Wait()
					close(errs)
					for err := range errs {
						t.Fatal(err)
					}
					for i := range got {
						if got[i] != tr.Want[i] {
							t.Fatalf("probe %d: HTTP(batch<=%d) = %v, serial in-process = %v",
								i, maxBatch, got[i], tr.Want[i])
						}
					}
				})
			}
		})
	}
}

// TestMultiInstanceRequest: one request carrying the whole probe set
// must score bit-identically too (instances batch with each other).
func TestMultiInstanceRequest(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, tr := range zoo(t) {
		instances := make([][]float64, tr.Probes.Rows)
		for i := range instances {
			instances[i] = tr.Probes.Row(i)
		}
		status, pr := postPredict(t, ts.URL, string(tr.Kind), instances)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", tr.Kind, status)
		}
		if pr.Kind != string(tr.Kind) {
			t.Fatalf("kind = %q, want %q", pr.Kind, tr.Kind)
		}
		for i, got := range pr.Predictions {
			if got != tr.Want[i] {
				t.Fatalf("%s probe %d: %v != %v", tr.Kind, i, got, tr.Want[i])
			}
		}
	}
}

// TestRowCacheLRU unit-tests the score memo: hits, misses,
// least-recently-used eviction, and the bit-exact key.
func TestRowCacheLRU(t *testing.T) {
	c := newRowCache(2)
	k1, k2, k3 := rowKey([]float64{1}), rowKey([]float64{2}), rowKey([]float64{3})
	c.put(k1, 10)
	c.put(k2, 20)
	if v, ok := c.get(k1); !ok || v != 10 {
		t.Fatalf("k1 = %v, %v; want 10, true", v, ok)
	}
	c.put(k3, 30) // evicts k2: k1 was touched more recently
	if _, ok := c.get(k2); ok {
		t.Fatal("k2 should have been evicted (LRU)")
	}
	c.put(k1, 11) // overwrite refreshes the score in place
	if v, ok := c.get(k1); !ok || v != 11 {
		t.Fatalf("k1 = %v, %v; want 11, true", v, ok)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if rowKey([]float64{1, 2}) == rowKey([]float64{2, 1}) {
		t.Fatal("rowKey must distinguish element order")
	}
	// +0 and -0 are distinct bit patterns — the key is bit-exact by design.
	if rowKey([]float64{0.0}) == rowKey([]float64{math.Copysign(0, -1)}) {
		t.Fatal("rowKey must be bit-exact, not value-based")
	}
	var nilCache *rowCache
	if _, ok := nilCache.get(k1); ok {
		t.Fatal("nil cache must miss")
	}
	nilCache.put(k1, 1) // must not panic
}

// TestCacheDoesNotChangePredictions scores the same probes twice: the
// second pass is served from the score memo and must be bit-identical.
func TestCacheDoesNotChangePredictions(t *testing.T) {
	for _, tr := range zoo(t) {
		if tr.Kind != model.KindSVC {
			continue
		}
		a, err := model.Encode(tr.Model, model.Meta{Name: "svc"})
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{MaxBatch: 4, CacheRows: tr.Probes.Rows})
		defer s.Close()
		if err := s.Load("", a); err != nil {
			t.Fatal(err)
		}
		sm := s.model("svc")
		if sm.cache == nil {
			t.Fatal("kernel model should have a score memo")
		}
		first, err := sm.scoreBatch(context.Background(), tr.Probes)
		if err != nil {
			t.Fatal(err)
		}
		if sm.cache.len() == 0 {
			t.Fatal("cache stayed empty after scoring")
		}
		second, err := sm.scoreBatch(context.Background(), tr.Probes) // all hits
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if first[i] != second[i] || first[i] != tr.Want[i] {
				t.Fatalf("probe %d: scored %v, memoized %v, want %v", i, first[i], second[i], tr.Want[i])
			}
		}
	}
}

// TestBackpressure429: with the in-flight counter full, predict
// requests are rejected with 429 instead of queueing without bound.
func TestBackpressure429(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.front.adm.inflight.Store(1) // occupy the only slot
	status, _ := postPredict(t, ts.URL, "ridge", [][]float64{make([]float64, 8)})
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", status)
	}
	s.front.adm.inflight.Store(0)
	status, _ = postPredict(t, ts.URL, "ridge", [][]float64{make([]float64, 8)})
	if status != http.StatusOK {
		t.Fatalf("after releasing the slot: status = %d, want 200", status)
	}
}

// TestReadyzLifecycle: 503 with no models, 200 once loaded, 503 again
// when draining (healthz stays 200 throughout — the process is up).
func TestReadyzLifecycle(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("empty server /readyz = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", got)
	}

	tr := zoo(t)[0]
	a, err := model.Encode(tr.Model, model.Meta{Name: "m"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Load("", a); err != nil {
		t.Fatal(err)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("loaded server /readyz = %d, want 200", got)
	}

	s.StartDraining()
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("draining server /readyz = %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("draining /healthz = %d, want 200", got)
	}
	status, _ := postPredict(t, ts.URL, "m", [][]float64{make([]float64, 16)})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("draining predict = %d, want 503", status)
	}
}

// TestHotLoad: POST /models/load registers an artifact file on a
// running server; the model serves immediately and /models lists it.
func TestHotLoad(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tr := zoo(t)[2] // ridge
	dir := t.TempDir()
	path := modelzoo.ArtifactFile(dir, tr.Kind)
	if _, err := model.Save(path, tr.Model, model.Meta{Name: "hot", Seed: testSeed}); err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(LoadRequest{Path: path})
	resp, err := http.Post(ts.URL+"/models/load", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/models/load status = %d", resp.StatusCode)
	}

	status, pr := postPredict(t, ts.URL, "hot", [][]float64{tr.Probes.Row(0)})
	if status != http.StatusOK {
		t.Fatalf("predict after hot load: status %d", status)
	}
	if pr.Predictions[0] != tr.Want[0] {
		t.Fatalf("hot-loaded prediction %v != in-process %v", pr.Predictions[0], tr.Want[0])
	}

	mresp, err := http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var infos []ModelInfo
	if err := json.NewDecoder(mresp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "hot" || infos[0].Kind != string(tr.Kind) {
		t.Fatalf("/models = %+v", infos)
	}

	// Loading a missing file fails without disturbing the registry.
	body, _ = json.Marshal(LoadRequest{Path: path + ".missing"})
	resp2, err := http.Post(ts.URL+"/models/load", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("loading a missing file: status %d, want 422", resp2.StatusCode)
	}
}

// TestPredictValidation covers the request-rejection paths.
func TestPredictValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, _ := postPredict(t, ts.URL, "nope", [][]float64{{1}}); status != http.StatusNotFound {
		t.Fatalf("unknown model: %d, want 404", status)
	}
	if status, _ := postPredict(t, ts.URL, "ridge", [][]float64{{1, 2}}); status != http.StatusBadRequest {
		t.Fatalf("narrow instance: %d, want 400", status)
	}
	if status, _ := postPredict(t, ts.URL, "ridge", nil); status != http.StatusBadRequest {
		t.Fatalf("no instances: %d, want 400", status)
	}
	resp, err := http.Get(ts.URL + "/predict/ridge")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict: %d, want 405", resp.StatusCode)
	}
}

// TestBatcherDrain: every request accepted before close is answered;
// requests after close get ErrDraining.
func TestBatcherDrain(t *testing.T) {
	score := func(_ context.Context, x *linalg.Matrix) ([]float64, error) {
		time.Sleep(time.Millisecond) // let requests pile up behind a batch
		out := make([]float64, x.Rows)
		for i := range out {
			out[i] = x.Row(i)[0] * 2
		}
		return out, nil
	}
	b := newBatcher(score, 1, 4)
	const n = 32
	chans := make([]<-chan batchResponse, n)
	for i := 0; i < n; i++ {
		ch, err := b.submit(context.Background(), []float64{float64(i)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
	}
	b.close()
	for i, ch := range chans {
		resp := <-ch
		if resp.err != nil {
			t.Fatalf("request %d accepted before close got error: %v", i, resp.err)
		}
		if resp.value != float64(i)*2 {
			t.Fatalf("request %d: %v, want %v", i, resp.value, float64(i)*2)
		}
	}
	if _, err := b.submit(context.Background(), []float64{1}); err != ErrDraining {
		t.Fatalf("submit after close: %v, want ErrDraining", err)
	}
	b.close() // idempotent
}

// TestBatcherPanicRecovery: a scoring panic becomes a per-request error
// that names the panic value, whatever its type, and the batcher keeps
// serving.
func TestBatcherPanicRecovery(t *testing.T) {
	for _, v := range []any{"boom", 42} {
		calls := 0
		score := func(_ context.Context, x *linalg.Matrix) ([]float64, error) {
			calls++
			if calls == 1 {
				panic(v)
			}
			return make([]float64, x.Rows), nil
		}
		b := newBatcher(score, 1, 1)
		ch, err := b.submit(context.Background(), []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		if resp := <-ch; resp.err == nil || !strings.Contains(resp.err.Error(), fmt.Sprint(v)) {
			t.Fatalf("panic(%#v) surfaced as error %v", v, resp.err)
		}
		ch, err = b.submit(context.Background(), []float64{2})
		if err != nil {
			t.Fatal(err)
		}
		if resp := <-ch; resp.err != nil {
			t.Fatalf("batcher died after panic(%#v): %v", v, resp.err)
		}
		b.close()
	}
}

// TestIdleRequestNotHeld: a lone row is scored at once instead of
// waiting for rows that do not come. MaxWait is ignored, so even a
// minute-long one holds nothing open.
func TestIdleRequestNotHeld(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 16, MaxWait: time.Minute, RequestTimeout: 5 * time.Second})
	start := time.Now()
	rec := predictVia(s.Handler(), "ridge", "", [][]float64{make([]float64, 8)})
	if rec.Code != http.StatusOK {
		t.Fatalf("lone predict = %d (%s), want 200", rec.Code, rec.Body.String())
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("lone predict took %v, want well under 1s", d)
	}
}

// TestNextBatchFormsWhileScoring: the rows that queue while a batch is
// being scored form the next batch, at most MaxBatch rows at a time,
// and every row gets its own score back.
func TestNextBatchFormsWhileScoring(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var sizes []int // written only by the batcher goroutine
	score := func(_ context.Context, x *linalg.Matrix) ([]float64, error) {
		sizes = append(sizes, x.Rows)
		if len(sizes) == 1 {
			close(entered)
			<-release
		}
		out := make([]float64, x.Rows)
		for i := range out {
			out[i] = 2*x.Row(i)[0] + 1
		}
		return out, nil
	}
	b := newBatcher(score, 1, 16)
	// Row 0 starts the blocked first batch; rows 1..20 queue behind it.
	chans := make([]<-chan batchResponse, 21)
	for i := range chans {
		ch, err := b.submit(context.Background(), []float64{float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
		if i == 0 {
			<-entered
		}
	}
	close(release)
	for i, ch := range chans {
		if resp := <-ch; resp.err != nil || resp.value != 2*float64(i)+1 {
			t.Fatalf("row %d: %+v, want value %v", i, resp, 2*float64(i)+1)
		}
	}
	b.close() // orders the batcher's writes to sizes before the read
	if want := []int{1, 16, 4}; !slices.Equal(sizes, want) {
		t.Fatalf("batch sizes %v, want %v", sizes, want)
	}
}
