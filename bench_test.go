package repro_test

// One benchmark per paper table/figure, plus the ablation benches called
// out in DESIGN.md Section 5. Each benchmark runs the corresponding
// experiment end-to-end at a reduced-but-representative scale, so
// `go test -bench=. -benchmem` regenerates every artifact and reports its
// cost. The printed shape checks live in the package tests; here the
// point is a stable, runnable harness per artifact.
//
// Under -short (CI's bench job runs every benchmark once that way) every
// benchmark drops to a small fixed size: that run only catches build
// errors and panics, so the sizes only need to exercise the real code
// paths, not saturate them.

import (
	"testing"

	"repro"
	"repro/internal/apps/costred"
	"repro/internal/apps/dstc"
	"repro/internal/apps/returns"
	"repro/internal/apps/template"
	"repro/internal/apps/testsel"
	"repro/internal/apps/varpred"
	"repro/internal/isa"
)

// benchScale picks the benchmark problem size: small under -short.
func benchScale(short, full int) int {
	if testing.Short() {
		return short
	}
	return full
}

func BenchmarkFig3KernelTrick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := repro.Fig3(int64(i), benchScale(40, 100)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Overfitting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := repro.Fig5(int64(i), benchScale(20, 30)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7TestSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := repro.Fig7(testsel.Config{Seed: int64(i), MaxTests: benchScale(200, 600)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1TemplateLearning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := repro.Table1(template.Config{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9Varpred(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := varpred.Config{Seed: int64(i), Train: benchScale(60, 150), Test: benchScale(60, 150), KernelHI: true}
		if _, err := repro.Fig9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10DSTC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := repro.Fig10(dstc.Config{Seed: int64(i), Paths: benchScale(400, 1000)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11Returns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := repro.Fig11(returns.Config{Seed: int64(i), LotSize: benchScale(3000, 6000)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12Escapes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := costred.Config{Seed: int64(i), Phase1Size: benchScale(40000, 150000), Phase2Size: benchScale(20000, 80000)}
		if _, err := repro.Fig12(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSec2Regressors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := repro.Sec2(int64(i), benchScale(120, 250)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md Section 5) ---------------------------------

// Spectrum n-gram length for test selection.
func BenchmarkAblationFig7NGram(b *testing.B) {
	for _, n := range []int{1, 2, 3} {
		b.Run(map[int]string{1: "n1", 2: "n2", 3: "n3"}[n], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := testsel.Config{Seed: int64(i), MaxTests: benchScale(150, 400), NGram: n}
				if _, err := repro.Fig7(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// One-class nu (novelty acceptance) for test selection.
func BenchmarkAblationFig7Nu(b *testing.B) {
	for _, tc := range []struct {
		name string
		nu   float64
	}{{"nu05", 0.05}, {"nu20", 0.20}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := testsel.Config{Seed: int64(i), MaxTests: benchScale(150, 400), Nu: tc.nu}
				if _, err := repro.Fig7(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// HI kernel vs generic RBF for the litho screen.
func BenchmarkAblationFig9Kernel(b *testing.B) {
	for _, tc := range []struct {
		name string
		hi   bool
	}{{"histogram-intersection", true}, {"rbf", false}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := varpred.Config{Seed: int64(i), Train: benchScale(50, 120), Test: benchScale(50, 120), KernelHI: tc.hi}
				if _, err := repro.Fig9(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// End-to-end simulation cost of the substrate (the quantity Figure 7
// saves).
func BenchmarkSubstrateSimulation(b *testing.B) {
	gen := isa.NewGenerator(isa.WideTemplate(), 1)
	progs := gen.Batch(benchScale(50, 100))
	m := isa.NewMachine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Run(progs[i%len(progs)])
	}
}
