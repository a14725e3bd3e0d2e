package svm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernel"
	"repro/internal/linalg"
)

func gaussianCloud(seed int64, n, dim int) *linalg.Matrix {
	rng := rand.New(rand.NewSource(seed))
	x := linalg.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
	}
	return x
}

func TestWarmStartAlphaProjection(t *testing.T) {
	const nu = 0.2
	upper := func(n int) float64 { return 1.0 / (nu * float64(n)) }

	t.Run("nil and empty inputs cold-start", func(t *testing.T) {
		if WarmStartAlpha(nil, 10, nu) != nil {
			t.Fatal("nil prev must return nil")
		}
		if WarmStartAlpha([]float64{0.5}, 0, nu) != nil {
			t.Fatal("n=0 must return nil")
		}
		if WarmStartAlpha([]float64{0, 0, 0}, 3, nu) != nil {
			t.Fatal("zero-mass prev must return nil")
		}
		if WarmStartAlpha([]float64{-1, -2}, 4, nu) != nil {
			t.Fatal("all-negative prev clamps to zero mass, must return nil")
		}
	})

	t.Run("feasible output", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			prev []float64
			n    int
		}{
			{"carry-over shorter than window", []float64{0.3, 0.4}, 8},
			{"carry-over longer than window", []float64{0.2, 0.2, 0.2, 0.2, 0.2, 0.2}, 4},
			{"mass above one rescales", []float64{2, 3, 1}, 12},
			{"negatives clamp to zero", []float64{-0.5, 0.6, 0.7}, 10},
			{"tiny mass fills headroom", []float64{1e-6}, 16},
		} {
			t.Run(tc.name, func(t *testing.T) {
				a := WarmStartAlpha(tc.prev, tc.n, nu)
				if a == nil {
					t.Fatal("expected a feasible projection, got nil")
				}
				if len(a) != tc.n {
					t.Fatalf("projection length %d, want %d", len(a), tc.n)
				}
				sum := 0.0
				for i, v := range a {
					if v < 0 || v > upper(tc.n)+1e-12 {
						t.Fatalf("alpha[%d]=%g outside [0, %g]", i, v, upper(tc.n))
					}
					sum += v
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Fatalf("sum(alpha)=%g, want 1", sum)
				}
			})
		}
	})

	t.Run("deterministic", func(t *testing.T) {
		prev := []float64{0.9, 0.05, 0.01, 0.3}
		a := WarmStartAlpha(prev, 7, nu)
		b := WarmStartAlpha(prev, 7, nu)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("projection not deterministic at %d: %g vs %g", i, a[i], b[i])
			}
		}
	})
}

func TestFitOneClassPrecomputedWarmMatchesCold(t *testing.T) {
	x := gaussianCloud(7, 80, 3)
	k := kernel.RBF{Gamma: 0.5}
	gram := kernel.Gram(k, x)
	cfg := OneClassConfig{Nu: 0.2, MaxIters: 4000}

	cold, coldInfo, err := FitOneClassPrecomputed(x, k, rowCols(gram), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if coldInfo.WarmStart {
		t.Fatal("nil warm slice must report a cold start")
	}
	if !coldInfo.Converged {
		t.Fatalf("cold solve did not converge: gap %g after %d iters", coldInfo.Gap, coldInfo.Iters)
	}
	if len(coldInfo.Alpha) != x.Rows {
		t.Fatalf("SolveInfo.Alpha length %d, want full window %d", len(coldInfo.Alpha), x.Rows)
	}

	// Re-solving from the previous optimum must converge almost
	// immediately and land on the same decision function.
	warm, warmInfo, err := FitOneClassPrecomputed(x, k, rowCols(gram), cfg, coldInfo.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	if !warmInfo.WarmStart {
		t.Fatal("warm slice with mass must report WarmStart")
	}
	if warmInfo.Iters > coldInfo.Iters {
		t.Fatalf("warm start took %d iters, cold took %d", warmInfo.Iters, coldInfo.Iters)
	}
	probes := gaussianCloud(8, 20, 3)
	for i := 0; i < probes.Rows; i++ {
		p := probes.Row(i)
		dw, dc := warm.Decision(p), cold.Decision(p)
		if math.Abs(dw-dc) > 1e-6 {
			t.Fatalf("probe %d: warm decision %g vs cold %g", i, dw, dc)
		}
	}
}

// refSolveOneClass is the element-accessor form of solveOneClass, kept
// as the reference the column-streaming solver must match bit for bit:
// at(i, j) returns K_ij, the gradient is one row sum per i, each pair is
// chosen by a scan of its own, each pair update reads the two columns
// cell by cell, and the final gap is a scan of its own (refKKTGap).
func refSolveOneClass(n int, at func(i, j int) float64, cfg OneClassConfig, alpha []float64) (g []float64, iters int, gap float64) {
	upper := 1.0 / (cfg.Nu * float64(n))
	g = make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			if alpha[j] != 0 {
				s += alpha[j] * at(i, j)
			}
		}
		g[i] = s
	}
	for it := 0; it < cfg.MaxIters; it++ {
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
		eta := at(i, i) + at(j, j) - 2*at(i, j)
		if eta <= 1e-12 {
			eta = 1e-12
		}
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
		for r := 0; r < n; r++ {
			g[r] += t * (at(r, i) - at(r, j))
		}
		iters = it + 1
	}
	return g, iters, refKKTGap(n, alpha, g, upper)
}

// refKKTGap recomputes the most-violating-pair gap at the current point
// by a scan of its own. Zero when no violating pair exists at all.
func refKKTGap(n int, alpha, g []float64, upper float64) float64 {
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

// sameBits fails unless a and b hold the same float64 bit patterns.
func sameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs reference %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, a[i], b[i])
		}
	}
}

// TestSolveOneClassMatchesReference pins the column-streaming solver to
// the element-accessor reference: α, g, iterations and the KKT gap
// agree bit for bit on dense Grams (cold and warm starts, and a start
// with α exactly at 0 and at the bound), on a sliding window before and
// after its ring wraps, on duplicated rows, and through FitOneClassGram
// on an asymmetric matrix and on one with negative and ±0 entries. The
// sizes put every split of four lanes and a tail in each stretch.
// Duplicated rows have exactly equal gradients, four or five indices
// apart, so the first-index rule decides ties across lanes, across the
// ring split, and between the lanes and the tail.
func TestSolveOneClassMatchesReference(t *testing.T) {
	const dim = 4
	k := kernel.RBF{Gamma: 0.4}
	check := func(t *testing.T, n int, col func(int) ([]float64, []float64), at func(i, j int) float64, cfg OneClassConfig, alpha []float64) {
		t.Helper()
		cfg.normalize()
		ref := append([]float64(nil), alpha...)
		g, iters, gap := solveOneClass(n, col, cfg, alpha)
		rg, riters, rgap := refSolveOneClass(n, at, cfg, ref)
		sameBits(t, "alpha", alpha, ref)
		sameBits(t, "g", g, rg)
		if iters != riters || math.Float64bits(gap) != math.Float64bits(rgap) {
			t.Fatalf("iters %d gap %v, reference iters %d gap %v", iters, gap, riters, rgap)
		}
		if n > 2 && iters == 0 {
			t.Fatal("solver took no steps; the case checks nothing")
		}
	}
	// sliding fills a window of the given capacity with the rows of
	// stream and checks it against the reference over its Gram.
	sliding := func(t *testing.T, n, capacity int, stream *linalg.Matrix, cfg OneClassConfig) {
		t.Helper()
		sg := kernel.NewSlidingGram(k, capacity, dim)
		for i := 0; i < stream.Rows; i++ {
			sg.Append(stream.Row(i))
		}
		if sg.Len() != n {
			t.Fatalf("window holds %d rows, want %d", sg.Len(), n)
		}
		lo, hi := sg.Col(0)
		if wrapped := len(hi) > 0; wrapped != (stream.Rows > capacity && n > 1) {
			t.Fatalf("window split %d+%d does not match %d rows in %d", len(lo), len(hi), stream.Rows, capacity)
		}
		full := kernel.Gram(k, sg.Window())
		check(t, n, sg.Col, full.At, cfg, coldStartAlpha(n, cfg.Nu))
	}
	// gramFit fits FitOneClassGram on rows and checks α and ρ against
	// the reference, then g, iterations and gap through the solver on
	// the same transposed copy FitOneClassGram makes.
	gramFit := func(t *testing.T, n int, rows [][]float64, cfg OneClassConfig) {
		t.Helper()
		m, err := FitOneClassGram(rows, cfg)
		if err != nil {
			t.Fatal(err)
		}
		norm := cfg
		norm.normalize()
		at := func(i, j int) float64 { return rows[i][j] }
		ref := coldStartAlpha(n, norm.Nu)
		rg, _, _ := refSolveOneClass(n, at, norm, ref)
		sameBits(t, "alpha", m.Alpha, ref)
		upper := 1.0 / (norm.Nu * float64(n))
		if rho := oneClassRho(n, ref, rg, upper); math.Float64bits(m.Rho) != math.Float64bits(rho) {
			t.Fatalf("rho %v, reference %v", m.Rho, rho)
		}
		kt := linalg.NewMatrix(n, n)
		for i, row := range rows {
			for j, v := range row {
				kt.Set(j, i, v)
			}
		}
		check(t, n, rowCols(kt), at, cfg, coldStartAlpha(n, norm.Nu))
	}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 15, 16, 17, 64, 300, 1023, 1024, 1025} {
		cfg := OneClassConfig{Nu: 0.15, MaxIters: 4 * n}
		x := gaussianCloud(int64(n), n, dim)
		gram := kernel.Gram(k, x)

		t.Run(fmt.Sprintf("n=%d/dense-cold", n), func(t *testing.T) {
			check(t, n, rowCols(gram), gram.At, cfg, coldStartAlpha(n, cfg.Nu))
		})
		t.Run(fmt.Sprintf("n=%d/dense-warm", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n) + 100))
			prev := make([]float64, n)
			for i := range prev {
				prev[i] = rng.Float64()
			}
			warm := WarmStartAlpha(prev, n, cfg.Nu)
			if warm == nil {
				t.Fatal("warm projection degenerate")
			}
			check(t, n, rowCols(gram), gram.At, cfg, warm)
		})
		t.Run(fmt.Sprintf("n=%d/dense-bounds", n), func(t *testing.T) {
			// Every third α at the bound, exactly as the solver computes
			// it, until the mass runs out; the rest exactly 0.
			upper := 1.0 / (cfg.Nu * float64(n))
			alpha := make([]float64, n)
			rest := 1.0
			for i := 0; i < n && rest > 0; i += 3 {
				alpha[i] = math.Min(upper, rest)
				rest -= alpha[i]
			}
			check(t, n, rowCols(gram), gram.At, cfg, alpha)
		})
		for _, tc := range []struct {
			name           string
			capacity, rows int
		}{
			{"sliding-unwrapped", n + 5, n},
			{"sliding-wrapped", n, n + n/3 + 1},
		} {
			t.Run(fmt.Sprintf("n=%d/%s", n, tc.name), func(t *testing.T) {
				sliding(t, n, tc.capacity, gaussianCloud(int64(n)+200, tc.rows, dim), cfg)
			})
		}
		if n >= 3 {
			// Rows repeat with period 5, or 4 below 5 rows: equal rows,
			// hence equal gradients, in different lanes, on both sides
			// of the ring split, and in the tail.
			period := min(5, n-1)
			dup := func(rows int) *linalg.Matrix {
				base := gaussianCloud(int64(n)+400, period, dim)
				m := linalg.NewMatrix(rows, dim)
				for i := 0; i < rows; i++ {
					copy(m.Row(i), base.Row(i%period))
				}
				return m
			}
			t.Run(fmt.Sprintf("n=%d/dense-duplicated", n), func(t *testing.T) {
				dg := kernel.Gram(k, dup(n))
				check(t, n, rowCols(dg), dg.At, cfg, coldStartAlpha(n, cfg.Nu))
			})
			t.Run(fmt.Sprintf("n=%d/sliding-duplicated", n), func(t *testing.T) {
				sliding(t, n, n, dup(n+n/3+1), cfg)
			})
		}
		t.Run(fmt.Sprintf("n=%d/gram-asymmetric", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n) + 300))
			rows := make([][]float64, n)
			for i := range rows {
				rows[i] = append([]float64(nil), gram.Row(i)...)
				for j := range rows[i] {
					rows[i][j] += 0.05 * rng.Float64()
				}
			}
			gramFit(t, n, rows, cfg)
		})
		t.Run(fmt.Sprintf("n=%d/gram-signed", n), func(t *testing.T) {
			// Off the diagonal, a quarter of the entries +0, a quarter
			// −0, the rest shifted down so that most are negative.
			rng := rand.New(rand.NewSource(int64(n) + 500))
			rows := make([][]float64, n)
			for i := range rows {
				rows[i] = append([]float64(nil), gram.Row(i)...)
				for j := range rows[i] {
					switch u := rng.Intn(4); {
					case i == j:
					case u == 0:
						rows[i][j] = 0
					case u == 1:
						rows[i][j] = math.Copysign(0, -1)
					default:
						rows[i][j] -= 0.6
					}
				}
			}
			gramFit(t, n, rows, cfg)
		})
	}
}

func TestOneClassDecisionBatchMatchesSingle(t *testing.T) {
	x := gaussianCloud(9, 60, 4)
	m, err := FitOneClass(x, kernel.RBF{Gamma: 0.3}, OneClassConfig{Nu: 0.15, MaxIters: 2000})
	if err != nil {
		t.Fatal(err)
	}
	probes := gaussianCloud(10, 25, 4)
	batch := m.DecisionBatchInto(probes, make([]float64, probes.Rows))
	if len(batch) != probes.Rows {
		t.Fatalf("batch length %d, want %d", len(batch), probes.Rows)
	}
	for i := 0; i < probes.Rows; i++ {
		if single := m.Decision(probes.Row(i)); batch[i] != single {
			t.Fatalf("row %d: batch %g != single %g (must be bit-identical)", i, batch[i], single)
		}
	}
}

func TestOneClassDualViolationWithinTolerance(t *testing.T) {
	x := gaussianCloud(11, 70, 3)
	m, err := FitOneClass(x, kernel.RBF{Gamma: 0.5}, OneClassConfig{Nu: 0.2, MaxIters: 2000})
	if err != nil {
		t.Fatal(err)
	}
	sumErr, boxErr := m.DualViolation(x.Rows)
	if sumErr > 1e-8 {
		t.Fatalf("equality constraint violated by %g", sumErr)
	}
	if boxErr > 1e-8 {
		t.Fatalf("box constraint violated by %g", boxErr)
	}
	if m.NumSV() == 0 || m.NumSV() > x.Rows {
		t.Fatalf("suspicious SV count %d of %d", m.NumSV(), x.Rows)
	}

	// A hand-built infeasible model must be reported, not absorbed.
	bad := &OneClass{Alpha: []float64{1.2, 0.7}, Nu: 0.9} // upper = 1/1.8
	sumErr, boxErr = bad.DualViolation(2)
	if sumErr < 0.7 {
		t.Fatalf("expected a large sum violation, got %g", sumErr)
	}
	if boxErr <= 0 {
		t.Fatalf("expected a positive box violation, got %g", boxErr)
	}
	empty := &OneClass{Nu: 0.2}
	if _, boxErr = empty.DualViolation(1); boxErr != 0 {
		t.Fatalf("empty alpha must report zero box violation, got %g", boxErr)
	}
}

func TestOneClassGramNovelAgreesWithVectorForm(t *testing.T) {
	x := gaussianCloud(13, 50, 2)
	k := kernel.RBF{Gamma: 0.5}
	cfg := OneClassConfig{Nu: 0.1, MaxIters: 2000}
	vec, err := FitOneClass(x, k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gram := kernel.Gram(k, x)
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = gram.Row(i)
	}
	gm, err := FitOneClassGram(rows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range [][]float64{{0, 0}, {9, 9}, {-7, 6}} {
		kx := make([]float64, x.Rows)
		for i := range kx {
			kx[i] = k.Eval(probe, x.Row(i))
		}
		if gm.Novel(kx) != vec.Novel(probe) {
			t.Fatalf("probe %v: gram form novel=%v, vector form novel=%v",
				probe, gm.Novel(kx), vec.Novel(probe))
		}
	}
}

func TestOneClassConfigNormalizeDefaults(t *testing.T) {
	var cfg OneClassConfig
	cfg.normalize()
	if cfg.Nu != 0.1 || cfg.Tol != 1e-4 || cfg.MaxIters != 200 {
		t.Fatalf("zero config normalized to %+v, want documented defaults", cfg)
	}
	bad := OneClassConfig{Nu: 1.5, Tol: -1, MaxIters: -5}
	bad.normalize()
	if bad.Nu != 0.1 || bad.Tol != 1e-4 || bad.MaxIters != 200 {
		t.Fatalf("out-of-range config normalized to %+v, want documented defaults", bad)
	}
	keep := OneClassConfig{Nu: 0.3, Tol: 1e-6, MaxIters: 77}
	keep.normalize()
	if keep.Nu != 0.3 || keep.Tol != 1e-6 || keep.MaxIters != 77 {
		t.Fatalf("valid config mutated to %+v", keep)
	}
}

func TestOneClassRhoFallbackWithoutMarginSVs(t *testing.T) {
	// Every alpha at the box upper bound: no strict-interior margin SVs,
	// so rho must fall back to the max gradient over support vectors.
	n := 4
	alpha := []float64{0.25, 0.25, 0.25, 0.25} // upper = 1/(1.0*4) = 0.25
	g := []float64{1, 3, 2, 4}
	if rho := oneClassRho(n, alpha, g, 0.25); rho != 4 {
		t.Fatalf("fallback rho %g, want max gradient 4", rho)
	}
	// Margin SVs present: rho is their mean gradient.
	alpha = []float64{0.1, 0.1, 0, 0.25}
	if rho := oneClassRho(n, alpha, g, 0.25); rho != 2 {
		t.Fatalf("margin rho %g, want mean(1,3)=2", rho)
	}
}

func TestSVCBatchAndRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	d := dataset.TwoGaussians(rng, 50, 2, 4, 0.8)
	m, err := FitSVC(d, kernel.RBF{Gamma: 0.8}, SVCConfig{C: 2})
	if err != nil {
		t.Fatal(err)
	}

	probes := gaussianCloud(18, 30, 2)
	margins := m.DecisionBatchInto(probes, make([]float64, probes.Rows))
	preds := m.PredictBatchInto(probes, make([]float64, probes.Rows))
	cls := m.Classes()
	for i := 0; i < probes.Rows; i++ {
		if single := m.Decision(probes.Row(i)); margins[i] != single {
			t.Fatalf("row %d: batch margin %g != single %g", i, margins[i], single)
		}
		if single := m.Predict(probes.Row(i)); preds[i] != single {
			t.Fatalf("row %d: batch predict %g != single %g", i, preds[i], single)
		}
		want := cls[1]
		if margins[i] < 0 {
			want = cls[0]
		}
		if preds[i] != want {
			t.Fatalf("row %d: predict %g disagrees with margin sign (%g)", i, preds[i], margins[i])
		}
	}

	if v := m.DualViolation(2); v > 1e-8 {
		t.Fatalf("fitted SVC violates its dual box by %g", v)
	}
	if v := (&SVC{}).DualViolation(1); v != 0 {
		t.Fatalf("empty SVC must report zero violation, got %g", v)
	}
	if v := (&SVC{Alpha: []float64{5, 0}}).DualViolation(1); v <= 0 {
		t.Fatalf("out-of-box alpha must report positive violation, got %g", v)
	}

	r := RestoreSVC(m.K, m.SV, m.Alpha, m.B, m.Classes())
	for i := 0; i < probes.Rows; i++ {
		p := probes.Row(i)
		if r.Decision(p) != m.Decision(p) || r.Predict(p) != m.Predict(p) {
			t.Fatalf("restored SVC diverges from original at probe %d", i)
		}
	}
}

func TestMedianOf(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 4}, 4},
		{[]float64{2, 1, 4, 3}, 3}, // even length takes the upper middle
	} {
		if got := medianOf(tc.in); got != tc.want {
			t.Fatalf("medianOf(%v) = %g, want %g", tc.in, got, tc.want)
		}
	}
	// Must not mutate its input.
	in := []float64{9, 1, 5}
	medianOf(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Fatalf("medianOf mutated its input: %v", in)
	}
}
