package approx

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/kernel"
	"repro/internal/linalg"
)

func randMatrix(r *rand.Rand, rows, cols int) *linalg.Matrix {
	m := linalg.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	return m
}

// maxKernelErr returns max_{i,j} |z(a_i)·z(b_j) − k(a_i, b_j)| over all
// row pairs of x.
func maxKernelErr(t *testing.T, fm FeatureMap, k kernel.Kernel, x *linalg.Matrix) float64 {
	t.Helper()
	z := linalg.NewMatrix(x.Rows, fm.Dim())
	for i := 0; i < x.Rows; i++ {
		fm.Map(x.Row(i), z.Row(i))
	}
	worst := 0.0
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < x.Rows; j++ {
			got := linalg.Dot(z.Row(i), z.Row(j))
			if e := math.Abs(got - k.Eval(x.Row(i), x.Row(j))); e > worst {
				worst = e
			}
		}
	}
	return worst
}

// TestRFFApproximatesRBF: the feature-map inner product must converge
// to the exact RBF value as D grows, with the O(1/√D) Monte-Carlo
// shape — each doubling of D should not make things much worse, and
// D=4096 must be tight.
func TestRFFApproximatesRBF(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	x := randMatrix(r, 20, 5)
	k := kernel.RBF{Gamma: 0.4}
	var prev float64
	for _, D := range []int{256, 1024, 4096} {
		fm, err := NewRFF(k.Gamma, 5, D, 99)
		if err != nil {
			t.Fatal(err)
		}
		e := maxKernelErr(t, fm, k, x)
		t.Logf("D=%d max |z·z − k| = %.4g", D, e)
		if prev > 0 && e > 2*prev {
			t.Errorf("error grew with D: %g (D=%d) vs %g before", e, D, prev)
		}
		prev = e
	}
	if prev > 0.08 {
		t.Errorf("D=4096 RFF error %g, want < 0.08", prev)
	}
}

// TestNystromExactAtFullRank: with every basis row a landmark, the
// Nyström map reproduces the kernel on the basis rows to numerical
// precision (the approximation is exact on the span of the landmarks).
func TestNystromExactAtFullRank(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	x := randMatrix(r, 24, 4)
	for _, k := range []kernel.Kernel{
		kernel.RBF{Gamma: 0.7},
		kernel.Poly{Degree: 2, Gamma: 1},
	} {
		fm, err := NewNystrom(k, x, x.Rows, 5)
		if err != nil {
			t.Fatal(err)
		}
		if e := maxKernelErr(t, fm, k, x); e > 1e-6 {
			t.Errorf("%s: full-rank Nyström error %g on basis rows, want ~0", k.Name(), e)
		}
	}
}

// TestNystromRankDeficient: duplicated rows make K(L,L) singular; the
// pseudo-inverse square root must still produce a finite map that
// reproduces the kernel on the landmark span.
func TestNystromRankDeficient(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	x := randMatrix(r, 10, 3)
	for i := 5; i < 10; i++ {
		copy(x.Row(i), x.Row(i-5)) // rank 5 basis
	}
	k := kernel.RBF{Gamma: 0.5}
	fm, err := NewNystrom(k, x, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	z := make([]float64, fm.Dim())
	for i := 0; i < x.Rows; i++ {
		fm.Map(x.Row(i), z)
		for _, v := range z {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite feature on rank-deficient landmarks: %v", z)
			}
		}
	}
	if e := maxKernelErr(t, fm, k, x); e > 1e-6 {
		t.Errorf("rank-deficient Nyström error %g, want ~0", e)
	}
}

// TestSeedDeterminism: both maps are pure functions of the seed —
// identical draws, and a different seed actually changes them.
func TestSeedDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	x := randMatrix(r, 12, 4)
	a1, err := NewRFF(0.5, 4, 64, 42)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := NewRFF(0.5, 4, 64, 42)
	b, _ := NewRFF(0.5, 4, 64, 43)
	za, zb := make([]float64, 64), make([]float64, 64)
	a1.Map(x.Row(0), za)
	a2.Map(x.Row(0), zb)
	for j := range za {
		if math.Float64bits(za[j]) != math.Float64bits(zb[j]) {
			t.Fatalf("same-seed RFF differs at %d: %v vs %v", j, za[j], zb[j])
		}
	}
	b.Map(x.Row(0), zb)
	same := true
	for j := range za {
		if za[j] != zb[j] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced an identical RFF map")
	}

	n1, err := NewNystrom(kernel.RBF{Gamma: 0.5}, x, 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := NewNystrom(kernel.RBF{Gamma: 0.5}, x, 6, 42)
	za, zb = make([]float64, 6), make([]float64, 6)
	n1.Map(x.Row(1), za)
	n2.Map(x.Row(1), zb)
	for j := range za {
		if math.Float64bits(za[j]) != math.Float64bits(zb[j]) {
			t.Fatalf("same-seed Nyström differs at %d", j)
		}
	}
}

// TestCompileCollapsesExpansion: a compiled Linear must score exactly
// w·z(x)+bias where w is the serial fold of the dual coefficients, and
// that score must approximate the exact expansion.
func TestCompileCollapsesExpansion(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	basis := randMatrix(r, 30, 4)
	alpha := make([]float64, 30)
	for i := range alpha {
		alpha[i] = r.NormFloat64()
	}
	k := kernel.RBF{Gamma: 0.6}
	fm, err := NewNystrom(k, basis, 30, 9)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := Compile(fm, basis, alpha, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	exact := func(x []float64) float64 {
		s := 0.25
		for i := 0; i < basis.Rows; i++ {
			s += alpha[i] * k.Eval(x, basis.Row(i))
		}
		return s
	}
	// Full-rank Nyström is exact on the landmark span: probe the basis
	// rows themselves.
	for i := 0; i < basis.Rows; i++ {
		got, want := lin.Score(basis.Row(i)), exact(basis.Row(i))
		if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("row %d: compiled %g vs exact %g", i, got, want)
		}
	}
	// Batch path is bit-identical to the row path.
	batch := lin.ScoreBatchInto(basis, make([]float64, basis.Rows))
	for i := range batch {
		if math.Float64bits(batch[i]) != math.Float64bits(lin.Score(basis.Row(i))) {
			t.Fatalf("batch row %d not bit-identical", i)
		}
	}
}

func TestConstructorBounds(t *testing.T) {
	x := linalg.NewMatrix(4, 2)
	if _, err := NewRFF(0.5, 2, 0, 1); !errors.Is(err, ErrDim) {
		t.Errorf("D=0: got %v, want ErrDim", err)
	}
	if _, err := NewRFF(0.5, 2, MaxDim+1, 1); !errors.Is(err, ErrDim) {
		t.Errorf("D>max: got %v, want ErrDim", err)
	}
	if _, err := NewRFF(0, 2, 8, 1); !errors.Is(err, ErrKernel) {
		t.Errorf("gamma=0: got %v, want ErrKernel", err)
	}
	if _, err := NewRFF(math.NaN(), 2, 8, 1); !errors.Is(err, ErrKernel) {
		t.Errorf("gamma=NaN: got %v, want ErrKernel", err)
	}
	if _, err := NewNystrom(kernel.RBF{Gamma: 1}, x, -1, 1); !errors.Is(err, ErrDim) {
		t.Errorf("m<0: got %v, want ErrDim", err)
	}
	if _, err := RestoreRFF(linalg.NewMatrix(3, 2), []float64{0, 0}); !errors.Is(err, ErrDim) {
		t.Error("phase/frequency mismatch accepted")
	}
	if _, err := Compile(&RFF{Omega: linalg.NewMatrix(2, 2), Phase: []float64{0, 0}, scale: 1},
		linalg.NewMatrix(3, 2), []float64{1, 2}, 0); err == nil {
		t.Error("basis/alpha mismatch accepted")
	}
}
