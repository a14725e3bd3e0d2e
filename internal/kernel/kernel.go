// Package kernel implements the kernel functions and kernel-matrix
// machinery of Section 2.2 of the paper. The kernel is the place where
// domain knowledge enters a kernel-based learning flow (paper Section 5):
// the learning algorithm never touches the sample matrix X directly, only
// pairwise similarities k(x, x').
//
// Besides the standard vector kernels (linear, polynomial, RBF, sigmoid,
// histogram intersection), the package provides kernels over non-vector
// samples — n-gram spectrum kernels over assembly programs (used by the
// novel-test-selection application, paper ref [14]) and histogram kernels
// over layout windows (paper ref [13]) — demonstrating the paper's point
// that with a kernel the samples "can be represented in any form".
package kernel

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Kernel-evaluation metrics. Gram cells are the paper's unit of kernel
// cost (Section 2.2: learning sees only pairwise similarities); the
// normalized-Gram cache-hit counter quantifies the self-similarity reuse
// that NormalizedGram exists for. Hot loops accumulate locally and hit
// the atomic once per worker chunk.
var (
	gramCells         = obs.GetCounter("kernel.gram_cells")
	crossGramCells    = obs.GetCounter("kernel.crossgram_cells")
	normGramCacheHits = obs.GetCounter("kernel.normgram_cache_hits")
)

// gramCutover is the matrix side length below which Gram construction
// stays serial: an n-row sweep costs O(n²) kernel evaluations, so even
// modest n amortizes goroutine startup, but tiny warm-up grams should not
// pay for the pool. Kernel implementations must be safe for concurrent
// Eval calls (all kernels in this package are pure value types).
const gramCutover = 32

// crossGramCellCutover is the cell count (a.Rows × b.Rows) below which a
// cross-Gram stays serial. Counting cells rather than rows lets a small
// serving batch against a large basis — 16 probes × 1024 support
// vectors — use the pool, while a tall batch against a tiny basis stays
// serial.
const crossGramCellCutover = gramCutover * gramCutover

// Kernel measures the similarity of two vector samples.
type Kernel interface {
	// Eval returns k(a, b).
	Eval(a, b []float64) float64
	// Name identifies the kernel in reports.
	Name() string
}

// Linear is k(a,b) = <a,b>.
type Linear struct{}

// Eval implements Kernel.
func (Linear) Eval(a, b []float64) float64 { return linalg.Dot(a, b) }

// Name implements Kernel.
func (Linear) Name() string { return "linear" }

// Poly is k(a,b) = (gamma*<a,b> + coef0)^degree. With Degree=2, Gamma=1,
// Coef0=0 it is exactly the quadratic kernel of the paper's Figure 3 whose
// feature map is Φ(x) = (x1², x2², √2·x1·x2).
type Poly struct {
	Degree int
	Gamma  float64
	Coef0  float64
}

// Eval implements Kernel.
func (p Poly) Eval(a, b []float64) float64 {
	return math.Pow(p.Gamma*linalg.Dot(a, b)+p.Coef0, float64(p.Degree))
}

// Name implements Kernel.
func (p Poly) Name() string { return fmt.Sprintf("poly%d", p.Degree) }

// RBF is the Gaussian kernel k(a,b) = exp(-gamma*||a-b||²).
type RBF struct{ Gamma float64 }

// Eval implements Kernel.
func (r RBF) Eval(a, b []float64) float64 {
	return math.Exp(-r.Gamma * linalg.Dist2(a, b))
}

// Name implements Kernel.
func (r RBF) Name() string { return fmt.Sprintf("rbf(g=%g)", r.Gamma) }

// Sigmoid is k(a,b) = tanh(gamma*<a,b> + coef0).
type Sigmoid struct {
	Gamma float64
	Coef0 float64
}

// Eval implements Kernel.
func (s Sigmoid) Eval(a, b []float64) float64 {
	return math.Tanh(s.Gamma*linalg.Dot(a, b) + s.Coef0)
}

// Name implements Kernel.
func (Sigmoid) Name() string { return "sigmoid" }

// HistogramIntersection is k(a,b) = Σ min(a_i, b_i), the kernel used by the
// layout-variability work ([13]); inputs are nonnegative histograms.
type HistogramIntersection struct{}

// Eval implements Kernel. The unrolled min-sum keeps the original
// loop's accumulation order and NaN/tie behavior (linalg.MinSum), so
// histogram Grams are bit-identical to the pre-unroll implementation.
func (HistogramIntersection) Eval(a, b []float64) float64 {
	return linalg.MinSum(a, b)
}

// Name implements Kernel.
func (HistogramIntersection) Name() string { return "histogram-intersection" }

// EvalRows writes out[j] = k(x, row j) for the row-major rows, len(x)
// wide, that rows holds; it panics unless len(rows) == len(out)·len(x).
// It is the one way a kernel row is computed. RBF takes the squared
// distances four rows at a time (linalg.Dist2Rows) and then one exp per
// cell; every other kernel calls Eval row by row. Each value is
// bit-identical to k.Eval(x, row j).
func EvalRows(k Kernel, x, rows, out []float64) {
	d := len(x)
	if len(rows) != len(out)*d {
		panic(fmt.Sprintf("kernel: EvalRows has %d values for %d rows of width %d", len(rows), len(out), d))
	}
	if r, ok := k.(RBF); ok {
		linalg.Dist2Rows(x, rows, out)
		for j, d2 := range out {
			out[j] = math.Exp(-r.Gamma * d2)
		}
		return
	}
	for j := range out {
		out[j] = k.Eval(x, rows[j*d:(j+1)*d])
	}
}

// expandChunk is how many kernel values Expand holds at a time, in an
// array on its stack, so an expansion allocates nothing.
const expandChunk = 64

// Expand returns s + Σ_j coef[j]·k(x, basis row j), accumulated in row
// order: the decision function of every kernel expansion (SVC, SVR,
// one-class, folded Nyström). The kernel values come from EvalRows,
// expandChunk rows at a time.
func Expand(k Kernel, x []float64, basis *linalg.Matrix, coef []float64, s float64) float64 {
	var buf [expandChunk]float64
	d := basis.Cols
	for lo := 0; lo < basis.Rows; lo += expandChunk {
		kv := buf[:min(expandChunk, basis.Rows-lo)]
		EvalRows(k, x, basis.Data[lo*d:(lo+len(kv))*d], kv)
		for j, v := range kv {
			s += coef[lo+j] * v
		}
	}
	return s
}

// QuadFeatureMap is the explicit feature map Φ of the paper's Figure 3 for
// 2-D inputs: Φ(x1,x2) = (x1², x2², √2·x1·x2). It exists to demonstrate the
// kernel trick: Poly{Degree:2,Gamma:1}.Eval(a,b) == <Φ(a), Φ(b)>.
func QuadFeatureMap(x []float64) []float64 {
	if len(x) != 2 {
		panic("kernel: QuadFeatureMap requires 2-D input")
	}
	return []float64{x[0] * x[0], x[1] * x[1], math.Sqrt2 * x[0] * x[1]}
}

// Gram computes the full kernel matrix K_ij = k(x_i, x_j) for the rows of x.
//
// Rows are striped across the worker pool: each pair {i, j} is evaluated
// exactly once by the worker that owns row min(i, j), which writes both
// symmetric halves. The writes are to disjoint elements, so the sweep is
// race-free, and every element is produced by the same expression as the
// serial loop — the result is bit-identical at any worker count.
func Gram(k Kernel, x *linalg.Matrix) *linalg.Matrix {
	g := linalg.NewMatrix(x.Rows, x.Rows)
	GramInto(k, x, g)
	return g
}

// GramInto computes the Gram matrix of x into g, which must be n×n for
// n = x.Rows. Every cell is written, so a pooled colmat buffer is a
// valid destination; the sweep is the Gram sweep exactly, bit-identical
// at any worker count. The serial path (one worker or a small n) runs
// without a closure so pooled steady-state callers stay allocation-free.
func GramInto(k Kernel, x, g *linalg.Matrix) {
	n := x.Rows
	if g.Rows != n || g.Cols != n {
		panic(fmt.Sprintf("kernel: GramInto destination is %dx%d, want %dx%d", g.Rows, g.Cols, n, n))
	}
	if parallel.Workers() <= 1 || n < gramCutover {
		gramRange(k, x, g, 0, n)
		return
	}
	parallel.ForN(n, gramCutover, func(lo, hi int) {
		gramRange(k, x, g, lo, hi)
	})
}

// gramRange fills rows [lo, hi) of the symmetric sweep: each pair
// {i, j} is evaluated exactly once, as k(x_i, x_j), by the worker
// owning row i = min(i, j) — one EvalRows call for row i against rows
// i+1…n−1 — which then mirrors the row into column i.
func gramRange(k Kernel, x, g *linalg.Matrix, lo, hi int) {
	n, d := x.Rows, x.Cols
	evals := int64(0)
	for i := lo; i < hi; i++ {
		xi := x.Row(i)
		gi := g.Row(i)
		gi[i] = k.Eval(xi, xi)
		EvalRows(k, xi, x.Data[(i+1)*d:n*d], gi[i+1:n])
		for j := i + 1; j < n; j++ {
			g.Set(j, i, gi[j])
		}
		evals += int64(n - i)
	}
	gramCells.Add(evals)
}

// CrossGram computes K_ij = k(a_i, b_j) between the rows of a and b.
// Rows of a are striped across the worker pool; each output row is written
// by exactly one worker.
func CrossGram(k Kernel, a, b *linalg.Matrix) *linalg.Matrix {
	g := linalg.NewMatrix(a.Rows, b.Rows)
	CrossGramInto(k, a, b, g)
	return g
}

// CrossGramInto computes K_ij = k(a_i, b_j) into g, which must be
// a.Rows × b.Rows. Every cell is written, so a pooled colmat buffer is
// a valid destination. This is the batch-score hot path: the serial
// case (one worker or fewer than crossGramCellCutover cells) runs
// without a closure, so a steady-state ScoreBatchInto with pooled
// buffers performs zero heap allocations. Rows of a are striped across
// the pool; identical arithmetic to CrossGram at any worker count.
func CrossGramInto(k Kernel, a, b, g *linalg.Matrix) {
	if g.Rows != a.Rows || g.Cols != b.Rows {
		panic(fmt.Sprintf("kernel: CrossGramInto destination is %dx%d, want %dx%d",
			g.Rows, g.Cols, a.Rows, b.Rows))
	}
	if parallel.Workers() <= 1 || a.Rows < 2 || a.Rows*b.Rows < crossGramCellCutover {
		crossGramRange(k, a, b, g, 0, a.Rows)
		return
	}
	parallel.ForN(a.Rows, 2, func(lo, hi int) {
		crossGramRange(k, a, b, g, lo, hi)
	})
}

func crossGramRange(k Kernel, a, b, g *linalg.Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		EvalRows(k, a.Row(i), b.Data, g.Row(i))
	}
	crossGramCells.Add(int64(hi-lo) * int64(b.Rows))
}

// Center double-centers a Gram matrix in feature space:
// K' = K - 1K/n - K1/n + 1K1/n². Kernel PCA and several kernel methods
// require a centered Gram matrix.
func Center(k *linalg.Matrix) *linalg.Matrix {
	n := k.Rows
	rowSum := make([]float64, n)
	rowMean := make([]float64, n)
	parallel.ForN(n, gramCutover, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += k.At(i, j)
			}
			rowSum[i] = s
			rowMean[i] = s / float64(n)
		}
	})
	// The grand mean accumulates row sums in index order, off the worker
	// pool, so the total is identical regardless of worker count.
	total := 0.0
	for i := 0; i < n; i++ {
		total += rowSum[i]
	}
	grand := total / float64(n*n)
	out := linalg.NewMatrix(n, n)
	parallel.ForN(n, gramCutover, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				out.Set(i, j, k.At(i, j)-rowMean[i]-rowMean[j]+grand)
			}
		}
	})
	return out
}

// Normalize returns the cosine-normalized kernel value
// k(a,b)/sqrt(k(a,a)k(b,b)) so that every sample has unit self-similarity.
type Normalize struct{ K Kernel }

// Eval implements Kernel.
func (n Normalize) Eval(a, b []float64) float64 {
	kaa := n.K.Eval(a, a)
	kbb := n.K.Eval(b, b)
	if kaa <= 0 || kbb <= 0 {
		return 0
	}
	return n.K.Eval(a, b) / math.Sqrt(kaa*kbb)
}

// Name implements Kernel.
func (n Normalize) Name() string { return "normalized-" + n.K.Name() }

// NormalizedGram computes Gram(Normalize{K: k}, x) without the redundant
// work of Normalize.Eval, which re-evaluates the self-similarities k(a,a)
// and k(b,b) on every call — 2n² extra kernel evaluations over a full
// Gram sweep. Here the n self-similarities are computed once and reused
// across every entry. Each entry is produced by the same expression as
// Normalize.Eval (including the sqrt(k_ii·k_ii) diagonal), so the result
// is bit-identical to the naive path.
func NormalizedGram(k Kernel, x *linalg.Matrix) *linalg.Matrix {
	n := x.Rows
	self := make([]float64, n)
	parallel.ForN(n, gramCutover, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			xi := x.Row(i)
			self[i] = k.Eval(xi, xi)
		}
	})
	g := linalg.NewMatrix(n, n)
	parallel.ForN(n, gramCutover, func(lo, hi int) {
		// Every entry reuses two cached self-similarities that
		// Normalize.Eval would have recomputed from scratch.
		hits := int64(0)
		for i := lo; i < hi; i++ {
			hits += 2 * int64(n-i)
			xi := x.Row(i)
			for j := i; j < n; j++ {
				var v float64
				if self[i] > 0 && self[j] > 0 {
					if i == j {
						v = self[i] / math.Sqrt(self[i]*self[i])
					} else {
						v = k.Eval(xi, x.Row(j)) / math.Sqrt(self[i]*self[j])
					}
				}
				g.Set(i, j, v)
				g.Set(j, i, v)
			}
		}
		normGramCacheHits.Add(hits)
	})
	return g
}

// IsPSD reports whether a symmetric kernel matrix is positive semidefinite
// within tolerance (all eigenvalues >= -tol). Used by property tests to
// certify that our kernels are valid (Mercer) kernels on sampled data.
func IsPSD(k *linalg.Matrix, tol float64) bool {
	vals, _, err := linalg.EigenSym(k)
	if err != nil {
		return false
	}
	for _, v := range vals {
		if v < -tol {
			return false
		}
	}
	return true
}
