package testkit

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/bayes"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/gp"
	"repro/internal/imbalance"
	"repro/internal/kernel"
	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/linear"
	"repro/internal/multivar"
	"repro/internal/neural"
	"repro/internal/rules"
	"repro/internal/semisup"
	"repro/internal/stream"
	"repro/internal/svm"
	"repro/internal/tree"
)

// Every learner's registration. Tolerances are per-relation contracts,
// not wishes: Exact where the algorithm is deterministic or the
// transform is representable without rounding (×2 scaling, label
// swaps), Flips for discrete outputs where refitting on reordered data
// may legitimately move a few boundary samples, Approx for continuous
// outputs where float reassociation perturbs low bits.
//
// Kernel-stream discipline: a conformer that needs a random kernel
// draws it from c.Rng(kernelStream) inside Fit, NOT inside Gen — the
// metamorphic driver refits transformed copies of the case, and both
// fits must use the same kernel for the oracle to hold.

const (
	kernelStream = 101 // kernel hyperparameters
	fitStream    = 103 // learner-internal randomness (SMO, SGD, k-means++)
	maskStream   = 107 // semi-supervised label masking
)

// probesFor builds the standard probe matrix: in-distribution rows
// around the training box plus the full adversarial set (±Inf, NaN,
// subnormals, constants).
func probesFor(r *rand.Rand, d *dataset.Dataset, n int) *linalg.Matrix {
	return AppendRows(GenProbes(r, d, n), AdversarialRows(d.Dim(), true))
}

// rowScores applies a per-row scoring function over a matrix.
func rowScores(x *linalg.Matrix, f func([]float64) float64) []float64 {
	out := make([]float64, x.Rows)
	for i := range out {
		out[i] = f(x.Row(i))
	}
	return out
}

func init() {
	registerSVC()
	registerOneClass()
	registerStreamIncremental()
	registerRidge()
	registerGP()
	registerTree()
	registerRules()
	registerKNN()
	registerBayes()
	registerKMeans()
	registerNeural()
	registerLabelProp()
	registerSMOTE()
	registerPLS()
}

func registerSVC() {
	const c = 1.0
	Register(Conformer{
		Name:      "svm/svc",
		Pkg:       "svm",
		Persisted: true,
		Cases:     4,
		Gen: func(r *rand.Rand, _ int) *Case {
			d := GenClassification(r, 50, 4, 2.2)
			return &Case{Train: d, Probes: probesFor(r, d, 40)}
		},
		Fit: func(cs *Case) (*Fit, error) {
			k := GenPSDKernel(cs.Rng(kernelStream), cs.Train.Dim())
			m, err := svm.FitSVC(cs.Train, k, svm.SVCConfig{C: c, Seed: Mix(cs.stream, fitStream)})
			if err != nil {
				return nil, err
			}
			return &Fit{Predict: into(m.PredictBatchInto), Model: m}, nil
		},
		Invariants: func(cs *Case, f *Fit) error {
			m := f.Model.(*svm.SVC)
			if v := m.DualViolation(c); v > 1e-9 {
				return fmt.Errorf("svc dual box violation %g", v)
			}
			k := GenPSDKernel(cs.Rng(kernelStream), cs.Train.Dim())
			if err := CheckGramPSD(k, cs.Train.X, 1e-7); err != nil {
				return err
			}
			if err := CheckKernelSymmetry(k, firstRows(cs.Train.X, 10)); err != nil {
				return err
			}
			cls := m.Classes()
			return CheckInSet("svc prediction", f.Predict(cs.Probes), cls[0], cls[1])
		},
		// 0.25 headroom on the refit relations: the ~20% adversarial
		// probes (±Inf, NaN) take their decision sign from whichever
		// support vectors the refit SMO run keeps, so all of them may
		// legitimately flip even when the boundary barely moves.
		Relations: []Relation{
			Rel(RefitIdentity(), Exact),
			Rel(PermuteRows(), Flips(0.25)),
			Rel(FlipLabels01(), Flips(0.25)),
			Rel(PermuteFeatures(), Flips(0.25)),
		},
	})
}

func registerOneClass() {
	Register(Conformer{
		Name:      "svm/oneclass",
		Pkg:       "svm",
		Persisted: true,
		Cases:     4,
		Gen: func(r *rand.Rand, _ int) *Case {
			d := GenClassification(r, 50, 4, 2.0)
			return &Case{Train: d, Probes: probesFor(r, d, 40)}
		},
		Fit: func(cs *Case) (*Fit, error) {
			k := GenPSDKernel(cs.Rng(kernelStream), cs.Train.Dim())
			m, err := svm.FitOneClass(cs.Train.X, k, svm.OneClassConfig{Nu: 0.2})
			if err != nil {
				return nil, err
			}
			return &Fit{Predict: into(m.DecisionBatchInto), Model: m}, nil
		},
		Invariants: func(cs *Case, f *Fit) error {
			m := f.Model.(*svm.OneClass)
			sumErr, boxErr := m.DualViolation(cs.Train.Len())
			if sumErr > 1e-8 {
				return fmt.Errorf("one-class dual sum violation %g", sumErr)
			}
			if boxErr > 1e-8 {
				return fmt.Errorf("one-class dual box violation %g", boxErr)
			}
			k := GenPSDKernel(cs.Rng(kernelStream), cs.Train.Dim())
			return CheckGramPSD(k, cs.Train.X, 1e-7)
		},
		Relations: []Relation{Rel(RefitIdentity(), Exact)},
	})
}

// registerStreamIncremental pins the streaming trainer (sliding window,
// incremental Gram rows, warm-started refreshes — see internal/stream)
// to the same contracts as the batch learners: the replayed FitWindow is
// deterministic (RefitIdentity/Exact), its final model satisfies the
// ν-one-class dual constraints, and — the warm-start correctness guard —
// its decision function agrees with a cold batch fit on the same final
// window within solver tolerance.
func registerStreamIncremental() {
	const (
		streamWindow = 48
		streamRefit  = 16
	)
	streamCfg := svm.OneClassConfig{Nu: 0.2, MaxIters: 2000}
	Register(Conformer{
		Name:      "stream/incremental",
		Pkg:       "stream",
		Persisted: true,
		Cases:     4,
		Gen: func(r *rand.Rand, _ int) *Case {
			// More rows than the window, so the replay exercises
			// eviction and the carried-alpha realignment, not just
			// growth.
			d := GenClassification(r, 90, 4, 2.0)
			return &Case{Train: d, Probes: probesFor(r, d, 40)}
		},
		Fit: func(cs *Case) (*Fit, error) {
			k := GenPSDKernel(cs.Rng(kernelStream), cs.Train.Dim())
			m, _, err := stream.FitWindow(cs.Train.X, k, streamWindow, streamRefit, streamCfg)
			if err != nil {
				return nil, err
			}
			return &Fit{Predict: into(m.DecisionBatchInto), Model: m}, nil
		},
		Invariants: func(cs *Case, f *Fit) error {
			m := f.Model.(*svm.OneClass)
			n := cs.Train.Len()
			if n > streamWindow {
				n = streamWindow
			}
			sumErr, boxErr := m.DualViolation(n)
			if sumErr > 1e-8 {
				return fmt.Errorf("stream one-class dual sum violation %g", sumErr)
			}
			if boxErr > 1e-8 {
				return fmt.Errorf("stream one-class dual box violation %g", boxErr)
			}
			// Warm-start correctness: a cold batch fit on exactly the
			// final window must define the same decision function as the
			// warm-started incremental chain that ended there.
			k := GenPSDKernel(cs.Rng(kernelStream), cs.Train.Dim())
			win := lastRows(cs.Train.X, streamWindow)
			cold, err := svm.FitOneClass(win, k, streamCfg)
			if err != nil {
				return fmt.Errorf("cold reference fit: %w", err)
			}
			// Tolerance is relative because the adversarial probes
			// (±Inf-adjacent magnitudes) scale both decisions to ~1e300.
			const tol = 1e-2
			for i := 0; i < cs.Probes.Rows; i++ {
				p := cs.Probes.Row(i)
				dw, dc := m.Decision(p), cold.Decision(p)
				if math.IsNaN(dw) && math.IsNaN(dc) {
					continue
				}
				scale := math.Max(1, math.Max(math.Abs(dw), math.Abs(dc)))
				if diff := math.Abs(dw - dc); diff > tol*scale {
					return fmt.Errorf("warm-chain decision diverges from cold fit at probe %d: |%g - %g| = %g > %g",
						i, dw, dc, diff, tol*scale)
				}
			}
			return nil
		},
		Relations: []Relation{Rel(RefitIdentity(), Exact)},
	})
}

// lastRows copies the trailing min(n, x.Rows) rows of x.
func lastRows(x *linalg.Matrix, n int) *linalg.Matrix {
	if n > x.Rows {
		n = x.Rows
	}
	out := linalg.NewMatrix(n, x.Cols)
	copy(out.Data, x.Data[(x.Rows-n)*x.Cols:])
	return out
}

func registerRidge() {
	Register(Conformer{
		Name:      "linear/ridge",
		Pkg:       "linear",
		Persisted: true,
		Cases:     4,
		Gen: func(r *rand.Rand, _ int) *Case {
			d := GenRegression(r, 80, 6, 0.5)
			return &Case{Train: d, Probes: probesFor(r, d, 40)}
		},
		Fit: func(cs *Case) (*Fit, error) {
			// Penalty scales with n so duplicate-and-reweight is a true
			// identity: doubling the rows doubles both XᵀX and λ, leaving
			// the solution unchanged.
			m, err := linear.FitRidge(cs.Train, 0.002*float64(cs.Train.Len()))
			if err != nil {
				return nil, err
			}
			return &Fit{Predict: into(m.PredictBatchInto), Model: m}, nil
		},
		Invariants: func(_ *Case, f *Fit) error {
			return f.Model.(*linear.Regression).Validate()
		},
		Relations: []Relation{
			Rel(RefitIdentity(), Exact),
			Rel(PermuteRows(), Approx(1e-6, 1e-6)),
			Rel(AffineLabels(2.5, -1), Approx(1e-6, 1e-6)),
			Rel(PermuteFeatures(), Approx(1e-6, 1e-6)),
			Rel(DuplicateRows(), Approx(1e-6, 1e-6)),
		},
	})
}

func registerGP() {
	Register(Conformer{
		Name:      "gp",
		Pkg:       "gp",
		Persisted: true,
		Cases:     4,
		Gen: func(r *rand.Rand, _ int) *Case {
			d := GenRegression(r, 40, 5, 0.3)
			return &Case{Train: d, Probes: probesFor(r, d, 30)}
		},
		Fit: func(cs *Case) (*Fit, error) {
			r := cs.Rng(kernelStream)
			k := kernel.RBF{Gamma: (0.2 + r.Float64()) / float64(cs.Train.Dim())}
			m, err := gp.Fit(cs.Train, gp.Config{Kernel: k, Noise: 1e-2})
			if err != nil {
				return nil, err
			}
			return &Fit{Predict: into(m.PredictBatchInto), Model: m}, nil
		},
		Invariants: func(cs *Case, f *Fit) error {
			m := f.Model.(*gp.Regressor)
			if err := CheckGPVarianceBounds(m, cs.Probes, 1e-8); err != nil {
				return err
			}
			return CheckGramPSD(m.K, cs.Train.X, 1e-7)
		},
		Relations: []Relation{
			Rel(RefitIdentity(), Exact),
			Rel(PermuteRows(), Approx(1e-6, 1e-6)),
			Rel(AffineLabels(2, 0.5), Approx(1e-6, 1e-6)),
		},
	})
}

func registerTree() {
	Register(Conformer{
		Name:      "tree",
		Pkg:       "tree",
		Persisted: true,
		Cases:     4,
		Gen: func(r *rand.Rand, _ int) *Case {
			d := GenClassification(r, 80, 5, 1.8)
			return &Case{Train: d, Probes: probesFor(r, d, 40)}
		},
		Fit: func(cs *Case) (*Fit, error) {
			m, err := tree.Fit(cs.Train, tree.Config{MaxDepth: 6})
			if err != nil {
				return nil, err
			}
			return &Fit{Predict: into(m.PredictBatchInto), Model: m}, nil
		},
		Invariants: func(cs *Case, f *Fit) error {
			return f.Model.(*tree.Tree).Validate(cs.Train.Dim())
		},
		Relations: []Relation{
			Rel(RefitIdentity(), Exact),
			// ×2 is exact in binary floating point: every threshold and
			// every probe coordinate scales without rounding, so the
			// fitted tree must be the same tree.
			Rel(ScaleFeatures(2), Exact),
			Rel(FlipLabels01(), Flips(0.05)),
			Rel(PermuteRows(), Flips(0.05)),
			Rel(DuplicateRows(), Flips(0.05)),
		},
	})
}

func registerRules() {
	Register(Conformer{
		Name:      "rules/cn2sd",
		Pkg:       "rules",
		Persisted: true,
		Cases:     4,
		Gen: func(r *rand.Rand, _ int) *Case {
			d := GenClassification(r, 70, 4, 2.0)
			return &Case{Train: d, Probes: probesFor(r, d, 40)}
		},
		Fit: func(cs *Case) (*Fit, error) {
			rs, err := rules.CN2SD(cs.Train, 1, rules.CN2SDConfig{})
			if err != nil {
				return nil, err
			}
			m := &rules.RuleSet{Rules: rs, Target: 1, Default: 0}
			return &Fit{Predict: into(m.PredictBatchInto), Model: m}, nil
		},
		Invariants: func(cs *Case, f *Fit) error {
			return f.Model.(*rules.RuleSet).Validate(cs.Train.Dim())
		},
		// DuplicateRows is deliberately absent: sequential covering is
		// not duplication-invariant — MinCoverage counts raw rows, so
		// duplicating the data admits rules that a single copy of the
		// same evidence would reject.
		Relations: []Relation{
			Rel(RefitIdentity(), Exact),
			Rel(PermuteRows(), Flips(0.1)),
		},
	})
}

func registerKNN() {
	Register(Conformer{
		Name:  "knn",
		Pkg:   "knn",
		Cases: 4,
		Gen: func(r *rand.Rand, _ int) *Case {
			d := GenClassification(r, 60, 4, 2.0)
			return &Case{Train: d, Probes: probesFor(r, d, 40)}
		},
		Fit: func(cs *Case) (*Fit, error) {
			m, err := knn.Fit(cs.Train, 5, knn.Euclidean)
			if err != nil {
				return nil, err
			}
			return &Fit{Predict: func(x *linalg.Matrix) []float64 {
				return rowScores(x, m.Classify)
			}}, nil
		},
		Relations: []Relation{
			Rel(RefitIdentity(), Exact),
			// ×2 scales every Euclidean distance by exactly 2: the
			// neighbour ranking (ties included) cannot change.
			Rel(ScaleFeatures(2), Exact),
			// k=5 is odd, so a binary majority vote has no ties: same
			// neighbours, flipped labels, flipped vote.
			Rel(FlipLabels01(), Exact),
			// 0.25 headroom: every training point is equidistant (Inf)
			// from the ±Inf adversarial probes, so their neighbour sets —
			// and votes — legitimately depend on row order.
			Rel(PermuteRows(), Flips(0.25)),
		},
	})
}

func registerBayes() {
	Register(Conformer{
		Name:  "bayes/naive",
		Pkg:   "bayes",
		Cases: 4,
		Gen: func(r *rand.Rand, _ int) *Case {
			d := GenClassification(r, 80, 4, 2.0)
			return &Case{Train: d, Probes: probesFor(r, d, 40)}
		},
		Fit: func(cs *Case) (*Fit, error) {
			m, err := bayes.FitNaiveBayes(cs.Train)
			if err != nil {
				return nil, err
			}
			return &Fit{Predict: func(x *linalg.Matrix) []float64 {
				return rowScores(x, m.Predict)
			}}, nil
		},
		Relations: []Relation{
			Rel(RefitIdentity(), Exact),
			Rel(PermuteRows(), Flips(0.05)),
			// 0.25 headroom: adversarial probes have NaN log-posteriors
			// under every class, so argmax falls through to a fixed
			// default that cannot flip with the labels.
			Rel(FlipLabels01(), Flips(0.25)),
			Rel(PermuteFeatures(), Flips(0.25)),
		},
	})
}

func registerKMeans() {
	const k = 3
	Register(Conformer{
		Name:  "cluster/kmeans",
		Pkg:   "cluster",
		Cases: 4,
		Gen: func(r *rand.Rand, _ int) *Case {
			d := GenBlobs(r, k, 20, 4, 0.6)
			return &Case{Train: d, Probes: GenProbes(r, d, 10)}
		},
		Fit: func(cs *Case) (*Fit, error) {
			res, err := cluster.KMeans(cs.Rng(fitStream), cs.Train.X, k, 50)
			if err != nil {
				return nil, err
			}
			labels := make([]float64, len(res.Labels))
			for i, l := range res.Labels {
				labels[i] = float64(l)
			}
			// Transductive: predictions are the per-training-row labels.
			return &Fit{Predict: func(*linalg.Matrix) []float64 { return labels }, Model: res}, nil
		},
		Invariants: func(cs *Case, f *Fit) error {
			res := f.Model.(*cluster.KMeansResult)
			if err := CheckMonotoneNonIncreasing(res.Trace, 1e-12); err != nil {
				return fmt.Errorf("k-means SSE trace: %w", err)
			}
			if err := CheckFinite("centers", res.Centers.Data); err != nil {
				return err
			}
			labels := make([]float64, len(res.Labels))
			allowed := make([]float64, k)
			for i := range allowed {
				allowed[i] = float64(i)
			}
			for i, l := range res.Labels {
				labels[i] = float64(l)
			}
			return CheckInSet("k-means label", labels, allowed...)
		},
		Relations: []Relation{Rel(RefitIdentity(), Exact)},
	})
}

func registerNeural() {
	Register(Conformer{
		Name:  "neural/mlp",
		Pkg:   "neural",
		Cases: 3,
		Gen: func(r *rand.Rand, _ int) *Case {
			d := GenXOR(r, 15, 0.15)
			return &Case{Train: d, Probes: probesFor(r, d, 30)}
		},
		Fit: func(cs *Case) (*Fit, error) {
			m, err := neural.Fit(cs.Train, neural.Config{
				Hidden: []int{6}, Epochs: 120, Seed: Mix(cs.stream, fitStream),
			})
			if err != nil {
				return nil, err
			}
			return &Fit{Predict: func(x *linalg.Matrix) []float64 {
				return rowScores(x, m.Predict)
			}, Model: m}, nil
		},
		Invariants: func(_ *Case, f *Fit) error {
			return f.Model.(*neural.MLP).Validate()
		},
		Relations: []Relation{Rel(RefitIdentity(), Exact)},
	})
}

func registerLabelProp() {
	Register(Conformer{
		Name:  "semisup/labelprop",
		Pkg:   "semisup",
		Cases: 4,
		Gen: func(r *rand.Rand, _ int) *Case {
			d := GenClassification(r, 60, 3, 2.5)
			// Mask ~70% of the labels; keep at least one per class so
			// propagation has an anchor on each side.
			y := make([]float64, len(d.Y))
			copy(y, d.Y)
			mask := rand.New(rand.NewSource(r.Int63()))
			seen := map[float64]bool{}
			for i := range y {
				if !seen[d.Y[i]] {
					seen[d.Y[i]] = true
					continue
				}
				if mask.Float64() < 0.7 {
					y[i] = semisup.Unlabeled
				}
			}
			masked := dataset.MustNew(d.X, y, d.Names)
			return &Case{Train: masked, Probes: GenProbes(r, d, 10)}
		},
		Fit: func(cs *Case) (*Fit, error) {
			labels, err := semisup.LabelPropagation(cs.Train.X, cs.Train.Y, 0, 100)
			if err != nil {
				return nil, err
			}
			return &Fit{Predict: func(*linalg.Matrix) []float64 { return labels }}, nil
		},
		Invariants: func(cs *Case, f *Fit) error {
			labels := f.Predict(nil)
			if err := CheckInSet("propagated label", labels, 0, 1); err != nil {
				return err
			}
			for i, y := range cs.Train.Y {
				if y != semisup.Unlabeled && labels[i] != y {
					return fmt.Errorf("labeled sample %d changed class: %v -> %v", i, y, labels[i])
				}
			}
			return nil
		},
		Relations: []Relation{
			Rel(RefitIdentity(), Exact),
			Rel(PermuteRowsAligned(), Flips(0.05)),
		},
	})
}

func registerSMOTE() {
	Register(Conformer{
		Name:  "imbalance/smote",
		Pkg:   "imbalance",
		Cases: 4,
		Gen: func(r *rand.Rand, _ int) *Case {
			d := GenClassification(r, 80, 4, 2.0)
			// Keep all of class 0 but only a dozen of class 1.
			keep := make([]int, 0, d.Len())
			minority := 0
			for i, y := range d.Y {
				if y == 0 {
					keep = append(keep, i)
				} else if minority < 12 {
					keep = append(keep, i)
					minority++
				}
			}
			imb := d.Subset(keep)
			return &Case{Train: imb, Probes: GenProbes(r, imb, 5)}
		},
		Fit: func(cs *Case) (*Fit, error) {
			out, err := imbalance.SMOTE(cs.Rng(fitStream), cs.Train, 5)
			if err != nil {
				return nil, err
			}
			// The "prediction vector" is the resampled label vector:
			// deterministic for RefitIdentity, and the invariants read
			// the full dataset from Model.
			return &Fit{Predict: func(*linalg.Matrix) []float64 { return out.Y }, Model: out}, nil
		},
		Invariants: func(cs *Case, f *Fit) error {
			out := f.Model.(*dataset.Dataset)
			if err := CheckClassBalance(out, 0); err != nil {
				return err
			}
			if err := CheckWithinClassBox(cs.Train, out, 1); err != nil {
				return err
			}
			return CheckFinite("smote rows", out.X.Data)
		},
		Relations: []Relation{Rel(RefitIdentity(), Exact)},
	})
}

func registerPLS() {
	const components = 2
	Register(Conformer{
		Name:  "multivar/pls",
		Pkg:   "multivar",
		Cases: 4,
		Gen: func(r *rand.Rand, _ int) *Case {
			d := GenRegression(r, 60, 5, 0.3)
			// Two correlated responses: linear maps of X plus noise.
			y := linalg.NewMatrix(d.Len(), 2)
			w1 := randVec(r, d.Dim())
			w2 := randVec(r, d.Dim())
			for i := 0; i < d.Len(); i++ {
				row := d.Row(i)
				y.Set(i, 0, linalg.Dot(w1, row)+0.1*r.NormFloat64())
				y.Set(i, 1, linalg.Dot(w2, row)+0.1*r.NormFloat64())
			}
			return &Case{Train: d, Probes: probesFor(r, d, 20), YMat: y}
		},
		Fit: func(cs *Case) (*Fit, error) {
			m, err := multivar.FitPLS(cs.Train.X, cs.YMat, components, 100)
			if err != nil {
				return nil, err
			}
			return &Fit{Predict: func(x *linalg.Matrix) []float64 {
				return m.PredictAll(x).Data
			}, Model: m}, nil
		},
		Invariants: func(_ *Case, f *Fit) error {
			m := f.Model.(*multivar.PLS)
			if err := CheckFinite("pls weights", m.W.Data); err != nil {
				return err
			}
			return CheckFinite("pls coefficients", m.B)
		},
		Relations: []Relation{
			Rel(RefitIdentity(), Exact),
			Rel(AffineYMat(2, 0.5), Approx(1e-5, 1e-5)),
			Rel(PermuteRows(), Approx(1e-4, 1e-4)),
		},
	})
}

func randVec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func firstRows(m *linalg.Matrix, n int) *linalg.Matrix {
	if n > m.Rows {
		n = m.Rows
	}
	out := linalg.NewMatrix(n, m.Cols)
	copy(out.Data, m.Data[:n*m.Cols])
	return out
}
