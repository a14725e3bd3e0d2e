package testkit

import (
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/linalg"
)

// Deterministic input generators. Everything is a pure function of the
// rand.Rand (and therefore of the seed that built it): two runs from the
// same seed produce byte-identical datasets, kernels, and programs.

// GenClassification draws a binary two-Gaussian classification set with
// labels {0,1}. sep controls class separation (≈2.5 is comfortably
// separable, ≈1 is hard).
func GenClassification(r *rand.Rand, n, dim int, sep float64) *dataset.Dataset {
	return dataset.TwoGaussians(r, n, dim, sep, 1.0)
}

// GenRegression draws the Friedman #1 regression surface.
func GenRegression(r *rand.Rand, n, dim int, noise float64) *dataset.Dataset {
	return dataset.Friedman1(r, n, dim, noise)
}

// GenBlobs draws k Gaussian blobs labelled by blob index.
func GenBlobs(r *rand.Rand, k, perCluster, dim int, spread float64) *dataset.Dataset {
	return dataset.Blobs(r, k, perCluster, dim, 6.0, spread)
}

// GenXOR draws the four-blob XOR set (linearly inseparable).
func GenXOR(r *rand.Rand, nPerBlob int, sigma float64) *dataset.Dataset {
	return dataset.XOR(r, nPerBlob, sigma)
}

// GenPSDKernel draws from the positive-semidefinite subset of the
// persistable kernels (linear, poly with coef0 ≥ 0, RBF) — what
// learners that Cholesky-factor or eigendecompose the Gram matrix
// (SVC margins, GP posteriors) are allowed to use. Sigmoid is excluded:
// it is indefinite, so its conformers would fail the Mercer invariant
// by construction.
func GenPSDKernel(r *rand.Rand, dim int) kernel.Kernel {
	var k kernel.Kernel
	switch r.Intn(3) {
	case 0:
		k = kernel.Linear{}
	case 1:
		k = kernel.Poly{Degree: 2 + r.Intn(2), Gamma: 0.5 + r.Float64(), Coef0: r.Float64()}
	default:
		k = kernel.RBF{Gamma: (0.2 + r.Float64()) / float64(dim)}
	}
	if r.Intn(3) == 0 {
		k = kernel.Normalize{K: k}
	}
	return k
}

// GenPrograms draws k constrained-random ISA programs from the default
// template — the non-vector sample type of the test-selection
// application. Used by the apps smoke tests to drive stage wiring with
// generated workloads.
func GenPrograms(seed int64, k int) []isa.Program {
	return isa.NewGenerator(isa.DefaultTemplate(), seed).Batch(k)
}

// AdversarialRows returns the numeric edge-case probe rows of the given
// width: zeros, ±Inf, a lone Inf among ones, IEEE-754 subnormals, huge
// finite magnitudes, and a constant row. withNaN appends an all-NaN row
// (skippable because some consumers — JSON transport — cannot carry
// NaN). These rows exercise the paths where kernel arithmetic degrades
// (Inf−Inf, exp(−Inf), subnormal squaring) and where every scoring path
// must still agree bit for bit.
func AdversarialRows(dim int, withNaN bool) *linalg.Matrix {
	rows := [][]float64{
		constRow(dim, 0),
		constRow(dim, math.Inf(1)),
		constRow(dim, math.Inf(-1)),
		loneValueRow(dim, math.Inf(1), 1),
		constRow(dim, math.SmallestNonzeroFloat64), // 4.9e-324, subnormal
		constRow(dim, 1e-310),                      // subnormal
		constRow(dim, 1e300),
		constRow(dim, -1e300),
		loneValueRow(dim, 1e300, 1e-310),
		constRow(dim, 1),
	}
	if withNaN {
		rows = append(rows, constRow(dim, math.NaN()))
	}
	return linalg.FromRows(rows)
}

func constRow(dim int, v float64) []float64 {
	row := make([]float64, dim)
	for i := range row {
		row[i] = v
	}
	return row
}

func loneValueRow(dim int, first, rest float64) []float64 {
	row := constRow(dim, rest)
	row[0] = first
	return row
}

// AppendRows stacks extra rows under base (both copied).
func AppendRows(base, extra *linalg.Matrix) *linalg.Matrix {
	out := linalg.NewMatrix(base.Rows+extra.Rows, base.Cols)
	for i := 0; i < base.Rows; i++ {
		copy(out.Row(i), base.Row(i))
	}
	for i := 0; i < extra.Rows; i++ {
		copy(out.Row(base.Rows+i), extra.Row(i))
	}
	return out
}

// WithDuplicatedRows returns d with its first k rows appended again —
// exact duplicates make the Gram matrix rank-deficient, the edge case
// that Cholesky-based fits must handle via their noise/jitter terms.
func WithDuplicatedRows(d *dataset.Dataset, k int) *dataset.Dataset {
	if k > d.Len() {
		k = d.Len()
	}
	idx := make([]int, 0, d.Len()+k)
	for i := 0; i < d.Len(); i++ {
		idx = append(idx, i)
	}
	for i := 0; i < k; i++ {
		idx = append(idx, i)
	}
	return d.Subset(idx)
}

// GenProbes draws n in-distribution probe rows around the training
// manifold (uniform in the per-feature min/max box, stretched by 20%) —
// probes that are neither training rows nor wildly out of range.
func GenProbes(r *rand.Rand, d *dataset.Dataset, n int) *linalg.Matrix {
	lo := make([]float64, d.Dim())
	hi := make([]float64, d.Dim())
	for j := 0; j < d.Dim(); j++ {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
		for i := 0; i < d.Len(); i++ {
			v := d.X.At(i, j)
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
		span := hi[j] - lo[j]
		lo[j] -= 0.1 * span
		hi[j] += 0.1 * span
	}
	out := linalg.NewMatrix(n, d.Dim())
	for i := 0; i < n; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] = lo[j] + r.Float64()*(hi[j]-lo[j])
		}
	}
	return out
}
