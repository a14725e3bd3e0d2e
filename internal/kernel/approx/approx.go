// Package approx compiles kernel expansions into O(d) linear scorers.
//
// The serve-path cost of every kernel model in this repository — SVC,
// one-class SVM, GP regression — is the kernel expansion of paper
// Eq. 2: score(x) = Σ α_i k(x, basis_i) + b, an O(n·d) sweep over all
// support vectors / training rows per prediction. This package provides
// two classic finite-dimensional feature maps z: R^d → R^D with
// z(a)·z(b) ≈ k(a, b):
//
//   - RFF (random Fourier features, Rahimi & Recht 2007) for the
//     shift-invariant RBF kernel: z_j(x) = √(2/D)·cos(ω_j·x + φ_j)
//     with ω_j ~ N(0, 2γI) and φ_j ~ U[0, 2π).
//   - Nyström landmark approximation (Williams & Seeger 2001) for any
//     PSD kernel: z(x) = W^{-1/2}·[k(x, L_1) … k(x, L_m)] over m
//     landmarks L sampled from the basis, W = K(L, L).
//
// Once a feature map exists, the whole expansion collapses: project the
// basis through the map once at save time, fold the dual coefficients
// into a single weight vector w = Σ α_i z(basis_i), and every future
// prediction is w·z(x) + b — O(D·d) with no kernel evaluations and no
// dependence on the training-set size. That is the compiled
// "approx-linear" artifact internal/model persists.
//
// Determinism contract: both maps are pure functions of their int64
// seed (math/rand's Go-1-stable generator), so a compiled model is
// bit-reproducible from (model, method, dim, seed), and Score uses one
// fixed serial accumulation order, so every scoring path over a
// compiled model is bit-identical to every other.
package approx

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/core/colmat"
	"repro/internal/kernel"
	"repro/internal/linalg"
)

// MaxDim bounds the feature dimension D (RFF) or landmark count m
// (Nyström) an artifact may declare. 2^16 features is an order of
// magnitude past the accuracy plateau of both maps; anything larger in
// an artifact is a forgery or a mistake, refused loudly at decode.
const MaxDim = 1 << 16

// Errors returned by the constructors; model.Decode wraps them.
var (
	// ErrKernel marks a kernel the requested map cannot approximate
	// (RFF requires the shift-invariant RBF kernel).
	ErrKernel = errors.New("approx: kernel not supported by this feature map")
	// ErrDim marks an out-of-range feature dimension or landmark count.
	ErrDim = errors.New("approx: feature dimension out of range")
)

// FeatureMap is a finite-dimensional approximation of a kernel:
// Map(a)·Map(b) ≈ k(a, b).
type FeatureMap interface {
	// InputDim is the width d of the inputs the map accepts.
	InputDim() int
	// Dim is the output dimension D of the map.
	Dim() int
	// Map writes z(x) into dst (len == Dim()). It must be safe for
	// concurrent calls and bit-deterministic for a given x.
	Map(x []float64, dst []float64)
	// Name identifies the map in reports, e.g. "rff:512".
	Name() string
}

// RFF is the random Fourier feature map for the RBF kernel
// k(a,b) = exp(-γ‖a-b‖²): z_j(x) = √(2/D)·cos(ω_j·x + φ_j).
type RFF struct {
	Omega *linalg.Matrix // D×d frequency matrix, rows ω_j ~ N(0, 2γI)
	Phase []float64      // D phase offsets φ_j ~ U[0, 2π)
	scale float64        // √(2/D)
}

// NewRFF draws a D-dimensional random Fourier feature map for
// kernel.RBF{Gamma: gamma} on d-dimensional inputs. The draw is a pure
// function of seed.
func NewRFF(gamma float64, d, dim int, seed int64) (*RFF, error) {
	if dim <= 0 || dim > MaxDim {
		return nil, fmt.Errorf("%w: D = %d (must be 1..%d)", ErrDim, dim, MaxDim)
	}
	if d <= 0 {
		return nil, fmt.Errorf("%w: input dim = %d", ErrDim, d)
	}
	if !(gamma > 0) || math.IsInf(gamma, 0) {
		return nil, fmt.Errorf("%w: rff needs gamma > 0, got %g", ErrKernel, gamma)
	}
	rng := rand.New(rand.NewSource(seed))
	omega := linalg.NewMatrix(dim, d)
	// exp(-γ‖a-b‖²) is a Gaussian with σ² = 1/(2γ), whose spectral
	// measure is N(0, 2γI) per coordinate.
	sd := math.Sqrt(2 * gamma)
	for i := range omega.Data {
		omega.Data[i] = sd * rng.NormFloat64()
	}
	phase := make([]float64, dim)
	for i := range phase {
		phase[i] = 2 * math.Pi * rng.Float64()
	}
	return RestoreRFF(omega, phase)
}

// RestoreRFF rebuilds an RFF map from its persisted components (see
// internal/model). The arguments are retained, not copied.
func RestoreRFF(omega *linalg.Matrix, phase []float64) (*RFF, error) {
	if omega.Rows <= 0 || omega.Rows > MaxDim {
		return nil, fmt.Errorf("%w: D = %d (must be 1..%d)", ErrDim, omega.Rows, MaxDim)
	}
	if len(phase) != omega.Rows {
		return nil, fmt.Errorf("%w: %d phases for %d frequencies", ErrDim, len(phase), omega.Rows)
	}
	return &RFF{Omega: omega, Phase: phase, scale: math.Sqrt(2 / float64(omega.Rows))}, nil
}

// InputDim implements FeatureMap.
func (r *RFF) InputDim() int { return r.Omega.Cols }

// Dim implements FeatureMap.
func (r *RFF) Dim() int { return r.Omega.Rows }

// Name implements FeatureMap.
func (r *RFF) Name() string { return fmt.Sprintf("rff:%d", r.Dim()) }

// Map implements FeatureMap: dst_j = √(2/D)·cos(ω_j·x + φ_j).
func (r *RFF) Map(x []float64, dst []float64) {
	d := r.Omega.Cols
	for j := 0; j < r.Omega.Rows; j++ {
		row := r.Omega.Data[j*d : (j+1)*d]
		s := r.Phase[j]
		for k, w := range row {
			s += w * x[k]
		}
		dst[j] = r.scale * math.Cos(s)
	}
}

// Nystrom is the landmark feature map z(x) = Whiten·[k(x, L_j)]_j with
// Whiten = W^{-1/2}, W = K(L, L). It works for any PSD kernel —
// including the histogram-intersection and normalized kernels RFF
// cannot express.
type Nystrom struct {
	K         kernel.Kernel
	Landmarks *linalg.Matrix // m×d landmark rows L_j
	Whiten    *linalg.Matrix // m×m pseudo-inverse square root of K(L,L)
}

// NewNystrom samples m landmark rows from basis (seeded, without
// replacement) and whitens their Gram matrix through EigenSym,
// discarding eigenvalues below a relative floor so a rank-deficient
// landmark Gram yields a lower-rank map instead of a blow-up. When
// basis has fewer than m rows, every row is a landmark.
func NewNystrom(k kernel.Kernel, basis *linalg.Matrix, m int, seed int64) (*Nystrom, error) {
	if m <= 0 || m > MaxDim {
		return nil, fmt.Errorf("%w: m = %d (must be 1..%d)", ErrDim, m, MaxDim)
	}
	if basis.Rows == 0 {
		return nil, fmt.Errorf("%w: empty basis", ErrDim)
	}
	if m > basis.Rows {
		m = basis.Rows
	}
	idx := rand.New(rand.NewSource(seed)).Perm(basis.Rows)[:m]
	landmarks := linalg.NewMatrix(m, basis.Cols)
	for r, i := range idx {
		copy(landmarks.Row(r), basis.Row(i))
	}
	w := kernel.Gram(k, landmarks)
	whiten, err := invSqrtPSD(w)
	if err != nil {
		return nil, fmt.Errorf("approx: whiten landmark gram: %w", err)
	}
	return &Nystrom{K: k, Landmarks: landmarks, Whiten: whiten}, nil
}

// RestoreNystrom rebuilds a Nyström map from its persisted components
// (see internal/model). The arguments are retained, not copied.
func RestoreNystrom(k kernel.Kernel, landmarks, whiten *linalg.Matrix) (*Nystrom, error) {
	if k == nil {
		return nil, fmt.Errorf("%w: nystrom needs a kernel", ErrKernel)
	}
	if landmarks.Rows <= 0 || landmarks.Rows > MaxDim {
		return nil, fmt.Errorf("%w: m = %d (must be 1..%d)", ErrDim, landmarks.Rows, MaxDim)
	}
	if whiten.Rows != landmarks.Rows || whiten.Cols != landmarks.Rows {
		return nil, fmt.Errorf("%w: whiten is %dx%d for %d landmarks",
			ErrDim, whiten.Rows, whiten.Cols, landmarks.Rows)
	}
	return &Nystrom{K: k, Landmarks: landmarks, Whiten: whiten}, nil
}

// invSqrtPSD returns V·diag(λ_i^{-1/2})·Vᵀ over the eigenvalues above
// a relative floor; components at or below the floor are dropped (set
// to zero), which is the Moore–Penrose pseudo-inverse square root.
func invSqrtPSD(w *linalg.Matrix) (*linalg.Matrix, error) {
	vals, vecs, err := linalg.EigenSym(w)
	if err != nil {
		return nil, err
	}
	floor := 0.0
	for _, v := range vals {
		if v > floor {
			floor = v
		}
	}
	floor *= 1e-12
	n := w.Rows
	out := linalg.NewMatrix(n, n)
	// out = Σ_k λ_k^{-1/2} v_k v_kᵀ, accumulated serially in eigenvalue
	// order so the result is deterministic.
	for k := 0; k < n; k++ {
		if vals[k] <= floor {
			continue
		}
		s := 1 / math.Sqrt(vals[k])
		for i := 0; i < n; i++ {
			vik := vecs.At(i, k)
			if vik == 0 {
				continue
			}
			row := out.Data[i*n : (i+1)*n]
			c := s * vik
			for j := 0; j < n; j++ {
				row[j] += c * vecs.At(j, k)
			}
		}
	}
	return out, nil
}

// InputDim implements FeatureMap.
func (ny *Nystrom) InputDim() int { return ny.Landmarks.Cols }

// Dim implements FeatureMap.
func (ny *Nystrom) Dim() int { return ny.Landmarks.Rows }

// Name implements FeatureMap.
func (ny *Nystrom) Name() string { return fmt.Sprintf("nystrom:%d", ny.Dim()) }

// Map implements FeatureMap: dst = Whiten·[k(x, L_j)]_j.
func (ny *Nystrom) Map(x []float64, dst []float64) {
	m := ny.Landmarks.Rows
	kx := make([]float64, m)
	kernel.EvalRows(ny.K, x, ny.Landmarks.Data, kx)
	for i := 0; i < m; i++ {
		row := ny.Whiten.Data[i*m : (i+1)*m]
		s := 0.0
		for j, v := range kx {
			s += row[j] * v
		}
		dst[i] = s
	}
}

// Linear is a compiled kernel expansion: Score(x) = w·z(x) + Bias.
// It is the entire serve-path state of an approx-linear artifact.
type Linear struct {
	Map  FeatureMap
	W    []float64 // len == Map.Dim()
	Bias float64

	// Nyström fast path: w·(Whiten·kx) = (Whitenᵀw)·kx, so the m×m
	// whitening matvec folds into the weight vector once and each score
	// costs only the m landmark kernel evaluations. Computed lazily
	// (Linear is built by struct literal at decode) and deterministically
	// from W and Whiten, so every path folds to the same bits.
	foldOnce sync.Once
	fold     []float64
}

// foldedWeights returns Whitenᵀ·W for a Nyström map, or nil when the
// map has no fold (RFF applies an elementwise cosine after projecting).
func (l *Linear) foldedWeights() []float64 {
	ny, ok := l.Map.(*Nystrom)
	if !ok {
		return nil
	}
	l.foldOnce.Do(func() {
		m := ny.Landmarks.Rows
		fold := make([]float64, m)
		for j := 0; j < m; j++ {
			s := 0.0
			for i := 0; i < m; i++ {
				s += l.W[i] * ny.Whiten.Data[i*m+j]
			}
			fold[j] = s
		}
		l.fold = fold
	})
	return l.fold
}

// Compile collapses a kernel expansion Σ α_i k(·, basis_i) + bias into
// a Linear scorer: each basis row is projected through the map once and
// its dual coefficient folded into the weight vector, w = Σ α_i
// z(basis_i). The accumulation order is the basis row order, serially,
// so compilation is bit-deterministic.
func Compile(fm FeatureMap, basis *linalg.Matrix, alpha []float64, bias float64) (*Linear, error) {
	if basis.Rows != len(alpha) {
		return nil, fmt.Errorf("approx: %d basis rows but %d coefficients", basis.Rows, len(alpha))
	}
	if basis.Cols != fm.InputDim() {
		return nil, fmt.Errorf("approx: basis is %d wide but the map takes %d", basis.Cols, fm.InputDim())
	}
	w := make([]float64, fm.Dim())
	z := make([]float64, fm.Dim())
	for i := 0; i < basis.Rows; i++ {
		fm.Map(basis.Row(i), z)
		a := alpha[i]
		for j, v := range z {
			w[j] += a * v
		}
	}
	return &Linear{Map: fm, W: w, Bias: bias}, nil
}

// Score returns w·z(x) + Bias with one fixed serial accumulation
// order; it is safe for concurrent calls. Nyström maps take the folded
// fast path — m kernel evaluations and one dot product, no whitening
// matvec.
func (l *Linear) Score(x []float64) float64 {
	if fold := l.foldedWeights(); fold != nil {
		ny := l.Map.(*Nystrom)
		return kernel.Expand(ny.K, x, ny.Landmarks, fold, l.Bias)
	}
	z := make([]float64, len(l.W))
	return l.scoreWithScratch(x, z)
}

// scoreWithScratch is the non-folded score with a caller-provided
// feature buffer z (len == Map.Dim()), letting batch paths reuse one
// scratch vector instead of allocating per row.
func (l *Linear) scoreWithScratch(x, z []float64) float64 {
	l.Map.Map(x, z)
	s := l.Bias
	for j, w := range l.W {
		s += w * z[j]
	}
	return s
}

// ScoreBatchInto scores every row of x into out (length x.Rows),
// bit-identical to Score per row at any worker count (the loop is
// serial — a compiled score is one dot product, too cheap to farm out).
// The folded Nyström path needs no scratch at all; the RFF path leases
// one feature vector from the columnar arena for the whole batch
// instead of allocating per row, so a steady-state batch allocates
// nothing (alloc_test.go pins this at 0 allocs/op).
func (l *Linear) ScoreBatchInto(x *linalg.Matrix, out []float64) []float64 {
	if len(out) != x.Rows {
		panic("approx: ScoreBatchInto output length mismatch")
	}
	if fold := l.foldedWeights(); fold != nil {
		ny := l.Map.(*Nystrom)
		for i := range out {
			out[i] = kernel.Expand(ny.K, x.Row(i), ny.Landmarks, fold, l.Bias)
		}
		return out
	}
	z := colmat.GetVec(len(l.W))
	for i := range out {
		out[i] = l.scoreWithScratch(x.Row(i), z.Data)
	}
	colmat.PutVec(z)
	return out
}
