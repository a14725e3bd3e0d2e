package repro_test

// Benchmarks for the columnar zero-alloc core (ISSUE 9): the allocating
// numeric paths vs their destination-passing twins backed by the
// internal/core/colmat arena. These are the entries the alloc gate
// (alloc_test.go) floors at zero allocs/op; the benchmarks record the
// ns/op and allocs/op win in BENCH_baseline.json so bench_ratchet.sh
// catches both a timing and an allocation regression.
//
// Full-size Gram is 2048x16 (the EXPERIMENTS.md headline number);
// -short drops to 256x16 so the CI bench sweep stays cheap.

import (
	"math/rand"
	"testing"

	"repro/internal/core/colmat"
	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/svm"
	"repro/internal/testkit"
)

// benchMatrix draws an n x dim design matrix from a fixed seed.
func benchMatrix(n, dim int) *dataset.Dataset {
	r := rand.New(rand.NewSource(991))
	return testkit.GenClassification(r, n, dim, 2.0)
}

func BenchmarkGramColumnar(b *testing.B) {
	// GenClassification emits n rows per class; halve the request so the
	// Gram is exactly benchScale(256, 2048) square.
	n := benchScale(256, 2048)
	d := benchMatrix(n/2, 16)
	n = d.X.Rows
	var k kernel.Kernel = kernel.RBF{Gamma: 0.5}

	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := kernel.Gram(k, d.X)
			sinkF = g.At(0, 0)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := colmat.Get(n, n)
			kernel.GramInto(k, d.X, g)
			sinkF = g.At(0, 0)
			colmat.Put(g)
		}
	})
}

func BenchmarkScoreBatchColumnar(b *testing.B) {
	d := benchMatrix(benchScale(128, 512), 16)
	probes := benchMatrix(benchScale(64, 256), 16)
	var k kernel.Kernel = kernel.RBF{Gamma: 0.5}
	oc, err := svm.FitOneClass(d.X, k, svm.OneClassConfig{Nu: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float64, probes.X.Rows)

	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scores := oc.DecisionBatchInto(probes.X, make([]float64, probes.X.Rows))
			sinkF = scores[0]
		}
	})
	b.Run("into", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			oc.DecisionBatchInto(probes.X, out)
			sinkF = out[0]
		}
	})
}

// sinkF defeats dead-code elimination of the benchmarked results.
var sinkF float64
