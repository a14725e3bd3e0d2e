package repro_test

// Allocation-regression gate. Every steady-state numeric hot path —
// the sliding-window Gram append and the read that fills it, every
// model kind's destination-passing batch scorer, and the single-row
// kernel expansion the stream scores each candidate with — must run
// allocation-free once its columnar arena is warm. The shipped serve
// path (a predict request through edaserved's handler) is floored at
// its measured count, to be cut. The floors live in
// scripts/alloc_floor.txt; raising one is an explicit, reviewed edit to
// that file, never a silent drift. scripts/check.sh and the CI
// alloc-gate step run exactly this test, without -race (the race
// detector instruments allocations and would report false counts — see
// raceEnabled).

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core/colmat"
	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/kernel/approx"
	"repro/internal/linalg"
	"repro/internal/linear"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/rules"
	"repro/internal/serve"
	"repro/internal/svm"
	"repro/internal/testkit"
	"repro/internal/tree"
)

// raceEnabled is set by alloc_race_test.go under -race: the race
// detector adds shadow allocations to instrumented code, so allocation
// floors are only meaningful in a plain build.
var raceEnabled = false

// readAllocFloor parses scripts/alloc_floor.txt into name → max allocs.
func readAllocFloor(t *testing.T) map[string]float64 {
	t.Helper()
	f, err := os.Open("scripts/alloc_floor.txt")
	if err != nil {
		t.Fatalf("open alloc floor: %v", err)
	}
	defer f.Close()
	floors := map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("alloc_floor.txt: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("alloc_floor.txt: bad floor %q: %v", fields[1], err)
		}
		floors[fields[0]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan alloc floor: %v", err)
	}
	return floors
}

// measureAllocs returns steady-state allocs/op for fn. A GC
// mid-measurement can legitimately drain a sync.Pool and charge the
// refill to one iteration, so a nonzero first reading gets one retry
// before it counts as a regression.
func measureAllocs(fn func()) float64 {
	allocs := allocsPerRun(100, fn)
	if allocs > 0 {
		allocs = allocsPerRun(100, fn)
	}
	return allocs
}

// allocsPerRun is testing.AllocsPerRun without its integer division:
// one warm-up call, which primes the columnar arena, then the mallocs
// of runs calls divided by runs as a fraction, so a path that
// allocates on some calls only reads above 0 (AllocsPerRun would read
// 0 for one that allocates on 99 of 100 calls).
func allocsPerRun(runs int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.Mallocs
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs-before) / float64(runs)
}

// TestAllocsPerRunCountsFractions: a function that allocates on every
// other call reads 0.5 allocs/op, not 0.
func TestAllocsPerRunCountsFractions(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	calls := 0
	got := allocsPerRun(100, func() {
		calls++
		if calls%2 == 0 {
			allocSink = make([]byte, 64)
		}
	})
	if got != 0.5 {
		t.Fatalf("allocating on every other call read %v allocs/op, want 0.5", got)
	}
}

var allocSink []byte

// servePredict returns a path that posts the next of bodies, cycling,
// to /predict/name through h, and counts answers that are not 200 OK
// into *bad. It posts every body once before it returns, so the score
// memo has seen the whole cycle and stopped growing before the path is
// measured.
func servePredict(h http.Handler, name string, bodies [][]byte, bad *int) func() {
	next := 0
	fn := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict/"+name, bytes.NewReader(bodies[next])))
		if rec.Code != http.StatusOK {
			*bad++
		}
		next = (next + 1) % len(bodies)
	}
	for range bodies {
		fn()
	}
	return fn
}

// predictBodies encodes the rows of x as /predict bodies of per rows
// each. x holds more distinct rows than the shipped score memo, so the
// cycle never hits it and every request pays for scoring.
func predictBodies(t *testing.T, x *linalg.Matrix, per int) [][]byte {
	t.Helper()
	var bodies [][]byte
	for lo := 0; lo+per <= x.Rows; lo += per {
		req := serve.PredictRequest{}
		for i := lo; i < lo+per; i++ {
			req.Instances = append(req.Instances, x.Row(i))
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, b)
	}
	return bodies
}

// TestAllocFloor measures every floored path and compares against the
// committed floor. It pins the worker pool to 1 for the measurement:
// the zero-alloc contract is about the serial steady state — the
// parallel path spends goroutines by design.
func TestAllocFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation floors are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("alloc gate fits models; skipped with -short")
	}
	floors := readAllocFloor(t)
	old := parallel.SetWorkers(1)
	defer parallel.SetWorkers(old)

	r := rand.New(rand.NewSource(20240808))
	dcls := testkit.GenClassification(r, 48, 4, 2.2)
	dreg := testkit.GenRegression(r, 48, 5, 0.4) // Friedman #1 needs ≥5 features
	probes := testkit.GenProbes(r, dcls, 24)
	regProbes := testkit.GenProbes(r, dreg, 24)
	// The kernel is captured as an interface value: converting a concrete
	// kernel struct to the Kernel interface at the call site would box it
	// — one heap allocation per call — and charge the measurement with an
	// artifact of the test closure rather than the scoring path.
	var k kernel.Kernel = kernel.RBF{Gamma: 0.25}

	svc, err := svm.FitSVC(dcls, k, svm.SVCConfig{C: 1, Seed: 3})
	if err != nil {
		t.Fatalf("fit svc: %v", err)
	}
	oc, err := svm.FitOneClass(dcls.X, k, svm.OneClassConfig{Nu: 0.2})
	if err != nil {
		t.Fatalf("fit one-class: %v", err)
	}
	gpm, err := gp.Fit(dreg, gp.Config{Kernel: k, Noise: 1e-2})
	if err != nil {
		t.Fatalf("fit gp: %v", err)
	}
	ridge, err := linear.FitRidge(dreg, 0.01)
	if err != nil {
		t.Fatalf("fit ridge: %v", err)
	}
	cart, err := tree.Fit(dcls, tree.Config{MaxDepth: 5})
	if err != nil {
		t.Fatalf("fit tree: %v", err)
	}
	ruleList, err := rules.CN2SD(dcls, 1, rules.CN2SDConfig{})
	if err != nil {
		t.Fatalf("fit rules: %v", err)
	}
	ruleSet := &rules.RuleSet{Rules: ruleList, Target: 1, Default: 0}

	rff, err := approx.NewRFF(0.25, dcls.Dim(), 64, 11)
	if err != nil {
		t.Fatalf("rff map: %v", err)
	}
	rffLin, err := approx.Compile(rff, oc.SV, oc.Alpha, -oc.Rho)
	if err != nil {
		t.Fatalf("compile rff: %v", err)
	}
	nys, err := approx.NewNystrom(k, oc.SV, 12, 11)
	if err != nil {
		t.Fatalf("nystrom map: %v", err)
	}
	nysLin, err := approx.Compile(nys, oc.SV, oc.Alpha, -oc.Rho)
	if err != nil {
		t.Fatalf("compile nystrom: %v", err)
	}
	nysLin.Score(probes.Row(0)) // fold the weights outside the measurement

	sg := kernel.NewSlidingGram(k, 32, dcls.Dim())
	for i := 0; i < dcls.Len(); i++ { // overfill: steady state is append-with-evict
		sg.Append(dcls.Row(i))
	}
	appendRow := dcls.Row(0)

	// The shipped serve path: edaserved's handler at its flag defaults,
	// one exact kernel model and one tree, 1 and 64 rows per request.
	srv := serve.New(testkit.ShippedServeConfig)
	defer srv.Close()
	for name, m := range map[string]any{"oneclass": oc, "tree": cart} {
		a, err := model.Encode(m, model.Meta{Name: name})
		if err != nil {
			t.Fatalf("encode %s: %v", name, err)
		}
		if err := srv.Load(name, a); err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
	}
	served := testkit.GenProbes(r, dcls, 2*testkit.ShippedServeConfig.CacheRows)
	oneRow, rows64 := predictBodies(t, served, 1), predictBodies(t, served, 64)
	bad := 0
	h := srv.Handler()

	out := make([]float64, probes.Rows)
	paths := []struct {
		name string
		fn   func()
	}{
		// An append stores the row; the read after it fills the row's
		// kernel values, so the path times both.
		{"sliding_gram_append", func() { sg.Append(appendRow); sg.Col(0) }},
		{"cross_gram_into", func() {
			g := colmat.Get(probes.Rows, oc.SV.Rows)
			kernel.CrossGramInto(k, probes, oc.SV, g)
			colmat.Put(g)
		}},
		{"svc_decision_batch_into", func() { svc.DecisionBatchInto(probes, out) }},
		{"svc_predict_batch_into", func() { svc.PredictBatchInto(probes, out) }},
		{"oneclass_decision_batch_into", func() { oc.DecisionBatchInto(probes, out) }},
		{"gp_predict_batch_into", func() { gpm.PredictBatchInto(regProbes, out) }},
		{"ridge_predict_batch_into", func() { ridge.PredictBatchInto(regProbes, out) }},
		{"tree_predict_batch_into", func() { cart.PredictBatchInto(probes, out) }},
		{"rules_predict_batch_into", func() { ruleSet.PredictBatchInto(probes, out) }},
		{"approx_rff_score_batch_into", func() { rffLin.ScoreBatchInto(probes, out) }},
		{"approx_nystrom_score_batch_into", func() { nysLin.ScoreBatchInto(probes, out) }},
		{"oneclass_decision", func() { out[0] = oc.Decision(probes.Row(0)) }},
		{"svc_decision", func() { out[0] = svc.Decision(probes.Row(0)) }},
		{"serve_predict_1row_oneclass", servePredict(h, "oneclass", oneRow, &bad)},
		{"serve_predict_64row_oneclass", servePredict(h, "oneclass", rows64, &bad)},
		{"serve_predict_1row_tree", servePredict(h, "tree", oneRow, &bad)},
		{"serve_predict_64row_tree", servePredict(h, "tree", rows64, &bad)},
	}

	measured := map[string]bool{}
	for _, p := range paths {
		floor, ok := floors[p.name]
		if !ok {
			t.Errorf("path %s has no floor in scripts/alloc_floor.txt", p.name)
			continue
		}
		measured[p.name] = true
		if allocs := measureAllocs(p.fn); allocs > floor {
			t.Errorf("%s: %.2f allocs/op exceeds floor %.0f", p.name, allocs, floor)
		} else {
			t.Logf("%s: %.2f allocs/op (floor %.0f)", p.name, allocs, floor)
		}
	}
	if bad > 0 {
		t.Errorf("%d predict requests were not answered 200 OK", bad)
	}
	for name := range floors {
		if !measured[name] {
			t.Errorf("alloc_floor.txt names %s but TestAllocFloor does not measure it; remove the stale line", name)
		}
	}
}
