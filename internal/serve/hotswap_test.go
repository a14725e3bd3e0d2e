package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/svm"
)

// TestHotSwapRace is the hot-swap regression test: predicts run
// concurrently with a goroutine that keeps replacing the model under the
// same name. A request whose entry is swapped out between the registry
// lookup and the enqueue must be resubmitted to the replacement, never
// answered 503, and every response must come bit for bit from exactly
// one of the two models — never a mix. scripts/check.sh runs it under
// -race at 1, 2 and 8 workers.
func TestHotSwapRace(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	train := linalg.NewMatrix(24, 3)
	for i := range train.Data {
		train.Data[i] = r.NormFloat64()
	}
	probes := make([][]float64, 8)
	for i := range probes {
		probes[i] = []float64{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()}
	}
	var arts [2]*model.Artifact
	var wants [2][]float64
	for v, gamma := range []float64{0.5, 5} {
		m, err := svm.FitOneClass(train, kernel.RBF{Gamma: gamma}, svm.OneClassConfig{Nu: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		if arts[v], err = model.Encode(m, model.Meta{Name: "swap", Seed: testSeed}); err != nil {
			t.Fatal(err)
		}
		for _, p := range probes {
			wants[v] = append(wants[v], m.Decision(p))
		}
	}
	for i := range probes {
		if math.Float64bits(wants[0][i]) == math.Float64bits(wants[1][i]) {
			t.Fatalf("models agree on probe %d, so a mixed response could go unseen", i)
		}
	}

	// edaserved's flag defaults, so the swap races the shipped path.
	s := New(Config{MaxBatch: 16, MaxWait: 2 * time.Millisecond, CacheRows: 1024})
	t.Cleanup(s.Close)
	if err := s.Load("", arts[0]); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	stop := make(chan struct{})
	var loader sync.WaitGroup
	loader.Add(1)
	go func() {
		defer loader.Done()
		for v := 1; ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Load("", arts[v%2]); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	body, _ := json.Marshal(PredictRequest{Instances: probes})
	const clients, requests = 4, 60
	errs := make(chan error, clients*requests)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict/swap", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
					continue
				}
				var pr PredictResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
					errs <- err
					continue
				}
				if !sameBits(pr.Predictions, wants[0]) && !sameBits(pr.Predictions, wants[1]) {
					errs <- fmt.Errorf("response %v matches neither model", pr.Predictions)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	loader.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
