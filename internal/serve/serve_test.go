package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
// must score bit-identically too (instances batch with each other),
// also when every other row carries one value past the model's width,
// which is ignored.
func TestMultiInstanceRequest(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 8})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, tr := range zoo(t) {
		for _, ragged := range []bool{false, true} {
			instances := make([][]float64, tr.Probes.Rows)
			for i := range instances {
				instances[i] = tr.Probes.Row(i)
				if ragged && i%2 == 0 {
					instances[i] = append(slices.Clip(instances[i]), 1e6)
				}
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
					t.Fatalf("%s probe %d (ragged %v): %v != %v", tr.Kind, i, ragged, got, tr.Want[i])
				}
			}
		}
	}
}

// TestRowCacheLRU unit-tests the score memo: hits, misses,
// least-recently-used eviction, and the bit-exact match.
func TestRowCacheLRU(t *testing.T) {
	c := newRowCache(2, 1)
	memoPut(c, 10, 1)
	memoPut(c, 20, 2)
	if v, ok := memoGet(c, 1); !ok || v != 10 {
		t.Fatalf("{1} = %v, %v; want 10, true", v, ok)
	}
	memoPut(c, 30, 3) // evicts {2}: {1} was touched more recently
	if _, ok := memoGet(c, 2); ok {
		t.Fatal("{2} should have been evicted (LRU)")
	}
	memoPut(c, 11, 1) // overwrite refreshes the score in place
	if v, ok := memoGet(c, 1); !ok || v != 11 {
		t.Fatalf("{1} = %v, %v; want 11, true", v, ok)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	wide := newRowCache(4, 2)
	memoPut(wide, 12, 1, 2)
	if _, ok := memoGet(wide, 2, 1); ok {
		t.Fatal("the memo must distinguish element order")
	}
	// +0 and -0 are distinct bit patterns — the match is bit-exact by design.
	memoPut(c, 40, 0.0)
	if _, ok := memoGet(c, math.Copysign(0, -1)); ok {
		t.Fatal("the memo must be bit-exact, not value-based")
	}
	var nilCache *rowCache
	if _, ok := memoGet(nilCache, 1); ok {
		t.Fatal("nil cache must miss")
	}
	memoPut(nilCache, 1, 1) // must not panic
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
		first := make([]float64, tr.Probes.Rows)
		if err := sm.scoreBatch(context.Background(), tr.Probes, first); err != nil {
			t.Fatal(err)
		}
		if sm.cache.len() == 0 {
			t.Fatal("cache stayed empty after scoring")
		}
		second := make([]float64, tr.Probes.Rows)
		if err := sm.scoreBatch(context.Background(), tr.Probes, second); err != nil { // all hits
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

// TestHotLoad: PUT /models/{name} with an artifact's bytes registers it
// on a running server; the model serves immediately, bit-identical to
// in-process scoring, and /models lists it. Every refused body leaves
// the registry as it was and the server answering, and no body names a
// file: {"path": "/dev/zero"} is just bytes that do not decode.
func TestHotLoad(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tr := zoo(t)[2] // ridge
	a, err := model.Encode(tr.Model, model.Meta{Name: "m", Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	data, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	put := func(method, path string, body []byte) int {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			var eb ErrorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
				t.Fatalf("%s %s: status %d without an error body: %q", method, path, rec.Code, rec.Body.String())
			}
		}
		return rec.Code
	}
	probes := make([][]float64, tr.Probes.Rows)
	for i := range probes {
		probes[i] = tr.Probes.Row(i)
	}
	// serving requires "hot" to answer every probe exactly as the
	// in-process model does, and to be the only model listed.
	serving := func(stage string) {
		t.Helper()
		status, pr := postPredict(t, ts.URL, "hot", probes)
		if status != http.StatusOK {
			t.Fatalf("%s: predict status %d", stage, status)
		}
		for i, p := range pr.Predictions {
			if math.Float64bits(p) != math.Float64bits(tr.Want[i]) {
				t.Fatalf("%s: probe %d: served %v != in-process %v", stage, i, p, tr.Want[i])
			}
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
		if len(infos) != 1 || infos[0].Name != "hot" || infos[0].Kind != string(tr.Kind) ||
			infos[0].Checksum != a.Envelope.Checksum {
			t.Fatalf("%s: /models = %+v", stage, infos)
		}
	}

	if got := put(http.MethodPut, "/models/hot", data); got != http.StatusOK {
		t.Fatalf("PUT /models/hot: status %d", got)
	}
	serving("after load")

	for _, tc := range []struct {
		name, method, path string
		body               []byte
		want               int
	}{
		{"truncated", http.MethodPut, "/models/hot", data[:len(data)/2], http.StatusUnprocessableEntity},
		{"oversized", http.MethodPut, "/models/hot", make([]byte, model.MaxArtifactBytes+1), http.StatusRequestEntityTooLarge},
		{"path body", http.MethodPut, "/models/hot", []byte(`{"path": "/dev/zero"}`), http.StatusUnprocessableEntity},
		{"POST", http.MethodPost, "/models/hot", data, http.StatusMethodNotAllowed},
		{"no name", http.MethodPut, "/models/", data, http.StatusBadRequest},
		{"name with a slash", http.MethodPut, "/models/a/b", data, http.StatusBadRequest},
	} {
		if got := put(tc.method, tc.path, tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
		serving(tc.name)
	}

	s.StartDraining()
	if got := put(http.MethodPut, "/models/hot", data); got != http.StatusServiceUnavailable {
		t.Fatalf("PUT while draining: status %d, want 503", got)
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
	score := func(_ context.Context, x *linalg.Matrix, out []float64) error {
		time.Sleep(time.Millisecond) // let requests pile up behind a batch
		for i := range out {
			out[i] = x.Row(i)[0] * 2
		}
		return nil
	}
	b := newBatcher(score, 1, 4)
	const n = 32
	chans := make([]<-chan error, n)
	values := make([]float64, n)
	for i := 0; i < n; i++ {
		ch, err := b.submit(context.Background(), column(float64(i)), values[i:i+1])
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		chans[i] = ch
	}
	b.close()
	for i, ch := range chans {
		if err := <-ch; err != nil {
			t.Fatalf("request %d accepted before close got error: %v", i, err)
		}
		if values[i] != float64(i)*2 {
			t.Fatalf("request %d: %v, want %v", i, values[i], float64(i)*2)
		}
	}
	if _, err := b.submit(context.Background(), column(1), make([]float64, 1)); err != ErrDraining {
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
		score := func(context.Context, *linalg.Matrix, []float64) error {
			calls++
			if calls == 1 {
				panic(v)
			}
			return nil
		}
		b := newBatcher(score, 1, 1)
		ch, err := b.submit(context.Background(), column(1), make([]float64, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := <-ch; err == nil || !strings.Contains(err.Error(), fmt.Sprint(v)) {
			t.Fatalf("panic(%#v) surfaced as error %v", v, err)
		}
		ch, err = b.submit(context.Background(), column(2), make([]float64, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := <-ch; err != nil {
			t.Fatalf("batcher died after panic(%#v): %v", v, err)
		}
		b.close()
	}
}

// TestSplitRequestFailsOnce: a request split over several batches gets
// the error of the first batch that fails, once, and the rest of its
// rows are never scored; the batcher goes on serving.
func TestSplitRequestFailsOnce(t *testing.T) {
	var rows []int // written only by the batcher goroutine
	score := func(_ context.Context, x *linalg.Matrix, out []float64) error {
		rows = append(rows, x.Rows)
		if len(rows) == 1 {
			return errors.New("boom")
		}
		for i := range out {
			out[i] = x.Row(i)[0]
		}
		return nil
	}
	b := newBatcher(score, 1, 4)
	ch, err := b.submit(context.Background(), column(0, 1, 2, 3, 4, 5, 6, 7, 8, 9), make([]float64, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := <-ch; err == nil || err.Error() != "boom" {
		t.Fatalf("split request got %v, want the first batch's error", err)
	}
	values := make([]float64, 2)
	ch, err = b.submit(context.Background(), column(7, 8), values)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-ch; err != nil || values[0] != 7 || values[1] != 8 {
		t.Fatalf("next request: %v, error %v", values, err)
	}
	b.close() // orders the batcher's writes to rows before the read
	if want := []int{4, 2}; !slices.Equal(rows, want) {
		t.Fatalf("scoring calls took %v rows, want %v", rows, want)
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
	score := func(_ context.Context, x *linalg.Matrix, out []float64) error {
		sizes = append(sizes, x.Rows)
		if len(sizes) == 1 {
			close(entered)
			<-release
		}
		for i := range out {
			out[i] = 2*x.Row(i)[0] + 1
		}
		return nil
	}
	b := newBatcher(score, 1, 16)
	// Row 0 starts the blocked first batch; rows 1..20 queue behind it.
	chans := make([]<-chan error, 21)
	values := make([]float64, len(chans))
	for i := range chans {
		ch, err := b.submit(context.Background(), column(float64(i)), values[i:i+1])
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
		if err := <-ch; err != nil || values[i] != 2*float64(i)+1 {
			t.Fatalf("row %d: value %v, error %v; want value %v", i, values[i], err, 2*float64(i)+1)
		}
	}
	b.close() // orders the batcher's writes to sizes before the read
	if want := []int{1, 16, 4}; !slices.Equal(sizes, want) {
		t.Fatalf("batch sizes %v, want %v", sizes, want)
	}
}

// column returns the one-column matrix of vs.
func column(vs ...float64) *linalg.Matrix {
	return &linalg.Matrix{Rows: len(vs), Cols: 1, Data: vs}
}

// TestRequestsSplitAcrossBatches: requests of 1 to 64 rows, sent from
// several goroutines at once, are split over consecutive batches and
// share batches with each other, through every model kind's scoring
// path and the kernel models' memo (small enough to evict). Every
// answer must match ScoreRow bit for bit, and no scoring call may take
// more than MaxBatch rows. scripts/check.sh runs it under -race at 1, 2
// and 8 workers.
func TestRequestsSplitAcrossBatches(t *testing.T) {
	const maxBatch = 16
	s := newTestServer(t, Config{MaxBatch: maxBatch, CacheRows: 24})
	for _, tr := range zoo(t) {
		sm := s.model(string(tr.Kind))
		dim := sm.scorer.Dim()
		widest := 0 // written by the batcher goroutine only
		b := newBatcher(func(ctx context.Context, x *linalg.Matrix, out []float64) error {
			widest = max(widest, x.Rows)
			return sm.scoreBatch(ctx, x, out)
		}, dim, maxBatch)
		var wg sync.WaitGroup
		for g, n := range []int{1, 15, 16, 17, 37, 64} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 8; rep++ {
					x := linalg.NewMatrix(n, dim)
					for i := 0; i < n; i++ {
						copy(x.Row(i), tr.Probes.Row((g+i)%tr.Probes.Rows))
						if dim > 0 {
							x.Row(i)[0] += float64((g+rep+i)%5) / 8 // repeats, but more rows than the memo holds
						}
					}
					out := make([]float64, n)
					done, err := b.submit(context.Background(), x, out)
					if err == nil {
						err = <-done
					}
					if err != nil {
						t.Errorf("%s: %d rows: %v", tr.Kind, n, err)
						return
					}
					for i := range out {
						if want := sm.scorer.ScoreRow(x.Row(i)); math.Float64bits(out[i]) != math.Float64bits(want) {
							t.Errorf("%s: %d rows: row %d scored %v, ScoreRow %v", tr.Kind, n, i, out[i], want)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		b.close() // orders the batcher's writes to widest before the read
		if widest > maxBatch {
			t.Fatalf("%s: a scoring call took %d rows, MaxBatch is %d", tr.Kind, widest, maxBatch)
		}
	}
}
