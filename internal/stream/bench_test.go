package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/svm"
)

// BenchmarkIncrementalRefresh measures the loop's economics claim: one
// streaming refresh — delta new samples folded into the window (rank-1
// Gram rows via kernel.SlidingGram) plus a warm-started solve — against
// the cold alternative the batch path would pay: a full O(n²·d) Gram
// rebuild and a cold solve on the same window.
func BenchmarkIncrementalRefresh(b *testing.B) {
	const (
		dim   = 12
		delta = 32 // new samples folded in per refresh
	)
	for _, window := range []int{1024} {
		cfg := svm.OneClassConfig{Nu: 0.1, MaxIters: 4 * window}
		k := kernel.RBF{Gamma: 1.0 / dim}

		// One fixed sample pool, consumed cyclically: both modes see the
		// identical arrival stream.
		rng := rand.New(rand.NewSource(5))
		pool := linalg.NewMatrix(window+delta*64, dim)
		for i := range pool.Data {
			pool.Data[i] = rng.NormFloat64()
		}
		next := 0
		nextRow := func() []float64 {
			r := pool.Row(next % pool.Rows)
			next++
			return r
		}

		b.Run(fmt.Sprintf("window=%d/mode=incremental", window), func(b *testing.B) {
			next = 0
			tr, err := NewTrainer(TrainerConfig{
				Window: window, Dim: dim, Nu: cfg.Nu, MaxIters: cfg.MaxIters, Kernel: k,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < window; i++ {
				tr.Add(nextRow())
			}
			if _, _, _, err := tr.Refresh(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < delta; j++ {
					tr.Add(nextRow())
				}
				if _, _, _, err := tr.Refresh(); err != nil {
					b.Fatal(err)
				}
			}
		})

		b.Run(fmt.Sprintf("window=%d/mode=cold", window), func(b *testing.B) {
			next = 0
			// The cold path keeps the same sliding window of rows but
			// pays the full price per refresh: rebuild the Gram matrix,
			// solve from the canonical cold start.
			buf := linalg.NewMatrix(window, dim)
			for i := 0; i < window; i++ {
				copy(buf.Row(i), nextRow())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < delta; j++ {
					// Slide: drop the oldest row, append the newest.
					copy(buf.Data, buf.Data[dim:])
					copy(buf.Row(window-1), nextRow())
				}
				if _, err := svm.FitOneClass(buf, k, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
