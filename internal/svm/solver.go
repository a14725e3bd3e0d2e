package svm

import (
	"errors"
	"math"

	"repro/internal/kernel"
	"repro/internal/linalg"
)

// This file is the shared core of the ν-one-class solvers: one pairwise
// coordinate-descent loop over the dual
//
//	min ½ Σ α_i α_j K_ij  s.t.  Σ α_i = 1,  0 ≤ α_i ≤ 1/(ν n)
//
// parameterized by a Gram column accessor, so the vector path
// (FitOneClass), the precomputed-kernel path (FitOneClassGram), and the
// streaming warm-start path (FitOneClassPrecomputed) run the identical
// arithmetic in the identical order — the conformance suite's
// RefitIdentity/Exact contract depends on that.
//
// Column contract: col(j) returns K(·, j) in logical order as at most
// two contiguous slices, lo then hi, that cover n entries and split at
// the same index for every j. Callers serve column j from row j, which
// requires K to be exactly symmetric: kernel.Gram and
// kernel.SlidingGram write both halves of a cell from one Eval, and
// FitOneClassGram stores its input transposed. A pair update thus
// streams two contiguous columns, and every g_i receives the same
// operations in the same order as an element-wise loop.

// SolveInfo reports how a one-class dual solve went. The streaming
// trainer uses it to carry dual weights across window refreshes and to
// detect a warm start that failed to converge (which triggers the
// cold-start fallback, see internal/stream).
type SolveInfo struct {
	Alpha     []float64 // full-window dual weights, zeros kept for indexing
	Iters     int       // pairwise-update iterations consumed
	Gap       float64   // final most-violating-pair KKT gap
	Converged bool      // Gap < Tol at exit
	WarmStart bool      // solve started from projected previous alphas
}

// normalize applies the documented defaults.
func (cfg *OneClassConfig) normalize() {
	if cfg.Nu <= 0 || cfg.Nu > 1 {
		cfg.Nu = 0.1
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-4
	}
	if cfg.MaxIters <= 0 {
		cfg.MaxIters = 200
	}
}

// coldStartAlpha is the canonical feasible start: distribute mass over
// the first ceil(ν·n) points, then repair tiny numeric drift in the sum.
func coldStartAlpha(n int, nu float64) []float64 {
	upper := 1.0 / (nu * float64(n))
	alpha := make([]float64, n)
	nInit := int(math.Ceil(nu * float64(n)))
	if nInit > n {
		nInit = n
	}
	for i := 0; i < nInit; i++ {
		alpha[i] = math.Min(upper, 1.0/float64(nInit))
	}
	sum := 0.0
	for _, a := range alpha {
		sum += a
	}
	if sum > 0 {
		for i := range alpha {
			alpha[i] /= sum
		}
	}
	return alpha
}

// WarmStartAlpha projects a previous window's dual weights onto the
// ν-one-class feasible set for a window of n rows: entries beyond the
// previous window (freshly appended rows) start at zero, every entry is
// clamped into [0, 1/(ν·n)], and the equality constraint Σα = 1 is
// restored — by uniform scaling when the clamped mass exceeds 1, and by
// filling headroom in index order when it falls short (deterministic, so
// the projection is a pure function of its inputs). Returns nil when the
// previous weights carry no mass, meaning the caller must cold-start.
func WarmStartAlpha(prev []float64, n int, nu float64) []float64 {
	if n <= 0 || len(prev) == 0 {
		return nil
	}
	upper := 1.0 / (nu * float64(n))
	alpha := make([]float64, n)
	m := len(prev)
	if m > n {
		m = n
	}
	sum := 0.0
	for i := 0; i < m; i++ {
		a := prev[i]
		if a < 0 {
			a = 0
		} else if a > upper {
			a = upper
		}
		alpha[i] = a
		sum += a
	}
	if sum <= 0 {
		return nil
	}
	if sum > 1 {
		inv := 1 / sum
		for i := range alpha {
			alpha[i] *= inv
		}
		return alpha
	}
	deficit := 1 - sum
	for i := 0; i < n && deficit > 1e-15; i++ {
		room := upper - alpha[i]
		if room <= 0 {
			continue
		}
		if room > deficit {
			room = deficit
		}
		alpha[i] += room
		deficit -= room
	}
	if deficit > 1e-9 {
		// n·upper = 1/ν ≥ 1 always holds, so this is unreachable for
		// valid ν; guard anyway rather than hand the solver an
		// infeasible point.
		return nil
	}
	return alpha
}

// solveOneClass runs most-violating-pair coordinate descent from the
// given feasible alpha (mutated in place). col(j) must return K(·, j)
// under the column contract above. The returned gradient
// g_i = Σ_j α_j K_ij is the byproduct every caller needs for ρ
// extraction.
func solveOneClass(n int, col func(j int) (lo, hi []float64), cfg OneClassConfig, alpha []float64) (g []float64, iters int, gap float64) {
	upper := 1.0 / (cfg.Nu * float64(n))

	// Gradient g = Σ_j α_j K(·, j), one AXPY per nonzero α_j in
	// ascending j: each g_i accumulates its terms in index order, from
	// zero, exactly as a per-row sum would.
	g = make([]float64, n)
	for j, a := range alpha {
		if a != 0 {
			lo, hi := col(j)
			linalg.AXPY(a, lo, g[:len(lo)])
			linalg.AXPY(a, hi, g[len(lo):])
		}
	}

	for it := 0; it < cfg.MaxIters; it++ {
		// Most-violating pair: minimize over i with alpha_i < upper the
		// gradient; maximize over j with alpha_j > 0.
		i, j := -1, -1
		gmin, gmax := math.Inf(1), math.Inf(-1)
		for t := 0; t < n; t++ {
			if alpha[t] < upper-1e-12 && g[t] < gmin {
				gmin, i = g[t], t
			}
			if alpha[t] > 1e-12 && g[t] > gmax {
				gmax, j = g[t], t
			}
		}
		if i < 0 || j < 0 || gmax-gmin < cfg.Tol {
			break
		}
		ilo, ihi := col(i)
		jlo, jhi := col(j)
		eta := cell(ilo, ihi, i) + cell(jlo, jhi, j) - 2*cell(jlo, jhi, i)
		if eta <= 1e-12 {
			eta = 1e-12
		}
		// Move t mass from j to i (decreases objective since g_i < g_j).
		t := (g[j] - g[i]) / eta
		if t > alpha[j] {
			t = alpha[j]
		}
		if t > upper-alpha[i] {
			t = upper - alpha[i]
		}
		if t <= 0 {
			break
		}
		alpha[i] += t
		alpha[j] -= t
		stepGradient(g[:len(ilo)], t, ilo, jlo)
		stepGradient(g[len(ilo):], t, ihi, jhi)
		iters = it + 1
	}
	return g, iters, kktGap(n, alpha, g, upper)
}

// cell returns entry r of a column split into lo and hi.
func cell(lo, hi []float64, r int) float64 {
	if r < len(lo) {
		return lo[r]
	}
	return hi[r-len(lo)]
}

// stepGradient applies g[r] += t·(ki[r] − kj[r]) over one contiguous
// stretch of two columns, which the column contract splits at the same
// index.
func stepGradient(g []float64, t float64, ki, kj []float64) {
	kj = kj[:len(ki)]
	g = g[:len(ki)]
	for r, v := range ki {
		g[r] += t * (v - kj[r])
	}
}

// rowCols serves column j of m as its row j: exact when m is exactly
// symmetric, or when it holds the Gram matrix transposed.
func rowCols(m *linalg.Matrix) func(j int) (lo, hi []float64) {
	return func(j int) (lo, hi []float64) { return m.Row(j), nil }
}

// kktGap recomputes the most-violating-pair gap at the current point —
// the solver's convergence certificate. Zero when no violating pair
// exists at all.
func kktGap(n int, alpha, g []float64, upper float64) float64 {
	gmin, gmax := math.Inf(1), math.Inf(-1)
	for t := 0; t < n; t++ {
		if alpha[t] < upper-1e-12 && g[t] < gmin {
			gmin = g[t]
		}
		if alpha[t] > 1e-12 && g[t] > gmax {
			gmax = g[t]
		}
	}
	if math.IsInf(gmin, 1) || math.IsInf(gmax, -1) {
		return 0
	}
	if gap := gmax - gmin; gap > 0 {
		return gap
	}
	return 0
}

// oneClassRho extracts ρ: g_i averaged over margin SVs
// (0 < α_i < upper); fall back to the max gradient over support vectors
// when none are strictly inside.
func oneClassRho(n int, alpha, g []float64, upper float64) float64 {
	rho, cnt := 0.0, 0
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-8 && alpha[i] < upper-1e-8 {
			rho += g[i]
			cnt++
		}
	}
	if cnt > 0 {
		return rho / float64(cnt)
	}
	rho = math.Inf(-1)
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-8 && g[i] > rho {
			rho = g[i]
		}
	}
	return rho
}

// FitOneClassPrecomputed trains a ν-one-class SVM on the rows of x whose
// Gram matrix is already available through col, which returns
// K(·, j) = k(x_·, x_j) under the column contract at the top of this
// file. This is the streaming trainer's entry point: kernel.SlidingGram
// keeps the window's Gram matrix current across appends and evictions,
// so a refresh pays only the solve, never an O(n²) Gram rebuild.
//
// warm, when non-nil, is the previous window's dual weights aligned to
// the current window (evicted rows dropped, appended rows zero); it is
// projected onto the feasible set via WarmStartAlpha and the solver
// resumes from there. A nil warm slice — or one whose projection is
// degenerate — falls back to the canonical cold start.
//
// The returned SolveInfo carries the full-window alphas for the next
// warm start and the convergence certificate (Gap, Converged). A warm
// start that exits without converging is reported, not hidden: the
// caller decides whether to refit cold (see stream.Trainer).
func FitOneClassPrecomputed(x *linalg.Matrix, k kernel.Kernel, col func(j int) (lo, hi []float64), cfg OneClassConfig, warm []float64) (*OneClass, SolveInfo, error) {
	n := x.Rows
	if n == 0 {
		return nil, SolveInfo{}, errors.New("svm: empty training set")
	}
	if k == nil {
		k = kernel.RBF{Gamma: 1.0 / float64(x.Cols)}
	}
	cfg.normalize()
	upper := 1.0 / (cfg.Nu * float64(n))

	alpha := WarmStartAlpha(warm, n, cfg.Nu)
	info := SolveInfo{WarmStart: alpha != nil}
	if alpha == nil {
		alpha = coldStartAlpha(n, cfg.Nu)
	}
	g, iters, gap := solveOneClass(n, col, cfg, alpha)
	info.Alpha = alpha
	info.Iters = iters
	info.Gap = gap
	info.Converged = gap < cfg.Tol
	rho := oneClassRho(n, alpha, g, upper)

	var svIdx []int
	for i := 0; i < n; i++ {
		if alpha[i] > 1e-8 {
			svIdx = append(svIdx, i)
		}
	}
	sv := linalg.NewMatrix(len(svIdx), x.Cols)
	coef := make([]float64, len(svIdx))
	for r, i := range svIdx {
		copy(sv.Row(r), x.Row(i))
		coef[r] = alpha[i]
	}
	return &OneClass{K: k, SV: sv, Alpha: coef, Rho: rho, Nu: cfg.Nu}, info, nil
}
