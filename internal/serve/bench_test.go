package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps/modelzoo"
	"repro/internal/fault"
	"repro/internal/model"
)

// BenchmarkServeThroughput measures end-to-end HTTP predict throughput
// (requests routed through the micro-batcher, score memo off) at
// 1, 8, and 64 concurrent clients against the SVC model — the kernel
// kind whose Gram evaluation batching is meant to amortize. b.N counts
// single-instance predict requests. scripts/bench.sh records the
// results in BENCH_ci.json; scripts/loadgen.sh is the ad-hoc twin for
// a live server.
func BenchmarkServeThroughput(b *testing.B) {
	trained, err := modelzoo.TrainAll(testSeed, 96, 64)
	if err != nil {
		b.Fatal(err)
	}
	var svc modelzoo.Trained
	for _, tr := range trained {
		if tr.Kind == model.KindSVC {
			svc = tr
		}
	}

	bodies := make([][]byte, svc.Probes.Rows)
	for i := range bodies {
		bodies[i], _ = json.Marshal(PredictRequest{Instances: [][]float64{svc.Probes.Row(i)}})
	}

	for _, clients := range []int{1, 8, 64} {
		clients := clients
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			s := New(Config{MaxBatch: 16, MaxWait: 500 * time.Microsecond, CacheRows: 0})
			defer s.Close()
			a, err := model.Encode(svc.Model, model.Meta{Name: "svc"})
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Load("", a); err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			url := ts.URL + "/predict/svc"
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}

			var next sync.Mutex
			remaining := b.N
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					i := c
					for {
						next.Lock()
						if remaining == 0 {
							next.Unlock()
							return
						}
						remaining--
						next.Unlock()
						resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[i%len(bodies)]))
						if err != nil {
							b.Error(err)
							return
						}
						var pr PredictResponse
						if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
							b.Error(err)
						}
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							b.Errorf("status %d", resp.StatusCode)
							return
						}
						i++
					}
				}(c)
			}
			wg.Wait()
			b.StopTimer()
			elapsed := b.Elapsed()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
			}
		})
	}
}

// BenchmarkServeThroughputFaultyBackend is the faulty-backend variant:
// the same SVC serving path with a 5% injected kernel-eval error rate,
// measuring how much throughput the error path (failed batches, 500s)
// costs relative to BenchmarkServeThroughput. Errored requests count
// toward b.N — the point is sustained request handling under faults,
// not clean predictions.
func BenchmarkServeThroughputFaultyBackend(b *testing.B) {
	trained, err := modelzoo.TrainAll(testSeed, 96, 64)
	if err != nil {
		b.Fatal(err)
	}
	var svc modelzoo.Trained
	for _, tr := range trained {
		if tr.Kind == model.KindSVC {
			svc = tr
		}
	}
	bodies := make([][]byte, svc.Probes.Rows)
	for i := range bodies {
		bodies[i], _ = json.Marshal(PredictRequest{Instances: [][]float64{svc.Probes.Row(i)}})
	}

	fault.Activate(fault.Plan{Seed: testSeed, Sites: map[string]fault.SiteConfig{
		fault.SiteKernelEval: {ErrRate: 0.05},
	}})
	defer fault.Deactivate()

	const clients = 8
	s := New(Config{MaxBatch: 16, MaxWait: 500 * time.Microsecond})
	defer s.Close()
	a, err := model.Encode(svc.Model, model.Meta{Name: "svc"})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Load("", a); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/predict/svc"
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}

	var next sync.Mutex
	remaining := b.N
	var failed int64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := c
			for {
				next.Lock()
				if remaining == 0 {
					next.Unlock()
					return
				}
				remaining--
				next.Unlock()
				resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[i%len(bodies)]))
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck — draining for keep-alive
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
				case http.StatusInternalServerError:
					atomic.AddInt64(&failed, 1) // the injected 5%
				default:
					b.Errorf("status %d", resp.StatusCode)
					return
				}
				i++
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	elapsed := b.Elapsed()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
	}
	if b.N > 0 {
		b.ReportMetric(float64(atomic.LoadInt64(&failed))/float64(b.N), "injected_err_frac")
	}
}
