package stream

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/svm"
)

// testConfig is the shared fast-but-nontrivial loop shape: enough
// candidates to warm up, select past the window, and cross the planted
// shift so drift-triggered refreshes actually happen.
func testConfig(t *testing.T, seed int64) Config {
	t.Helper()
	src, err := NewSource("isa", seed, 200)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Seed:       seed,
		Source:     src,
		Candidates: 400,
		Warmup:     24,
		Window:     64,
		MinRefit:   8,
		RefreshMax: 64,
	}
}

func stripModel(r *Result) *Result {
	c := *r
	c.FinalModel = nil
	return &c
}

// Same seed, same trajectory — selected sequence, swap points, and every
// counter — at 1, 2, and 8 workers. This is the determinism half of the
// ISSUE acceptance criteria: all parallelism lives inside the kernel and
// solver math, which is bit-identical at any worker count.
func TestLoopDeterminism(t *testing.T) {
	var base *Result
	for _, workers := range []int{1, 2, 8} {
		defer parallel.SetWorkers(parallel.SetWorkers(workers))
		res, err := Run(context.Background(), testConfig(t, 42))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Selected == 0 || res.Swaps() == 0 {
			t.Fatalf("workers=%d: degenerate run: %+v", workers, res)
		}
		if base == nil {
			base = res
			t.Logf("trajectory: examined=%d selected=%d swaps=%d drift=%d",
				res.Examined, res.Selected, res.Swaps(), res.DriftEvents)
			continue
		}
		if !reflect.DeepEqual(stripModel(base), stripModel(res)) {
			t.Errorf("workers=%d: trajectory diverged\nbase: %+v\n got: %+v",
				workers, stripModel(base), stripModel(res))
		}
	}
}

// publishedModelsSHA256 pins the models a seed-42 testConfig run
// publishes: the SHA-256 over each artifact's payload_sha256, in order,
// each followed by a newline. Building payloads on first use and
// filling the window's Gram rows at each refresh must not change a byte
// of what the loop publishes.
const publishedModelsSHA256 = "072cf09a52841a395b30f9656455945699732ed569ad47c646d69c0d8061c08d"

// TestPublishedModelsPinned: at 1, 2 and 8 workers the loop publishes
// the same models, byte for byte, as the pinned run. The checksums are
// read only after the run, so a model that changed after its publish
// would show here too.
func TestPublishedModelsPinned(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		defer parallel.SetWorkers(parallel.SetWorkers(workers))
		cfg := testConfig(t, 42)
		var published []*model.Artifact
		cfg.Publish = func(a *model.Artifact) error {
			published = append(published, a)
			return nil
		}
		if _, err := Run(context.Background(), cfg); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		h := sha256.New()
		for _, a := range published {
			fmt.Fprintln(h, a.Checksum())
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != publishedModelsSHA256 {
			t.Errorf("workers=%d: %d published models hash to %s, want %s",
				workers, len(published), got, publishedModelsSHA256)
		}
	}
}

// Distinct seeds must explore distinct trajectories — otherwise the
// determinism test above proves nothing.
func TestLoopSeedSensitivity(t *testing.T) {
	a, err := Run(context.Background(), testConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), testConfig(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.SelectedSeq, b.SelectedSeq) {
		t.Fatal("different seeds produced identical selected sequences")
	}
}

// The planted template shift at candidate 200 must register as a drift
// event and force a drift-reason refresh.
func TestLoopDriftTriggersRefresh(t *testing.T) {
	res, err := Run(context.Background(), testConfig(t, 42))
	if err != nil {
		t.Fatal(err)
	}
	if res.DriftEvents == 0 {
		t.Fatalf("planted shift produced no drift events: %s", res.Summary())
	}
	drift := 0
	for _, rf := range res.Refreshes {
		if rf.Reason == "drift" {
			drift++
		}
	}
	if drift == 0 {
		t.Fatalf("no drift-reason refresh despite %d drift events: %s",
			res.DriftEvents, res.Summary())
	}
	// The filter must actually filter once a model is serving.
	if res.Rejected == 0 {
		t.Fatalf("novelty filter rejected nothing: %s", res.Summary())
	}
}

// The mfgtest source must run end to end and find planted latent
// defects.
func TestLoopMfgSource(t *testing.T) {
	src, err := NewSource("mfgtest", 7, 250)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Config{
		Seed: 7, Source: src, Candidates: 400, Warmup: 24, Window: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected == 0 || res.Swaps() == 0 || res.SimCycles == 0 {
		t.Fatalf("degenerate mfg run: %s", res.Summary())
	}
}

func TestNewSourceUnknown(t *testing.T) {
	if _, err := NewSource("nope", 1, 0); err == nil {
		t.Fatal("expected an error for an unknown source name")
	}
}

// The cumulative coverage accessor must agree with the gains the
// simulator reported, and the trainer must expose the kernel the
// window is built with (the artifact writer persists it).
func TestISASourceCoverageCount(t *testing.T) {
	src, err := NewSource("isa", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	isa := src.(*ISASource)
	if isa.CoverageCount() != 0 {
		t.Fatalf("fresh source reports coverage %d", isa.CoverageCount())
	}
	total := 0
	for i := 0; i < 20; i++ {
		total += src.Simulate(src.Next()).Gain
	}
	if got := isa.CoverageCount(); got != total || got == 0 {
		t.Fatalf("CoverageCount %d, want sum of gains %d (nonzero)", got, total)
	}
}

func TestTrainerKernelAccessor(t *testing.T) {
	k := kernel.RBF{Gamma: 0.25}
	tr, err := NewTrainer(TrainerConfig{Dim: 4, Window: 16, Kernel: k})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Kernel() != k {
		t.Fatalf("Kernel() = %#v, want the configured kernel", tr.Kernel())
	}
}

// Chaos: with faults injected at both stream sites, the loop must
// (a) survive — drops and aborted refreshes are counted, never fatal —
// and (b) replay bit-identically under the same plan seed.
func TestLoopChaosDeterministicReplay(t *testing.T) {
	plan := fault.Uniform(99, fault.SiteConfig{ErrRate: 0.25}, fault.StreamSites()...)
	defer fault.Deactivate()

	run := func() *Result {
		fault.Activate(plan) // fresh per-site streams: exact replay
		res, err := Run(context.Background(), testConfig(t, 42))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Dropped == 0 {
		t.Fatalf("ingest faults at 25%% dropped nothing: %s", a.Summary())
	}
	if a.RetrainErr == 0 {
		t.Fatalf("retrain faults at 25%% aborted nothing: %s", a.Summary())
	}
	if !reflect.DeepEqual(stripModel(a), stripModel(b)) {
		t.Errorf("chaos replay diverged\n a: %+v\n b: %+v", stripModel(a), stripModel(b))
	}
	// An aborted refresh must keep the previous model serving: the loop
	// still completes swaps after its first retrain fault.
	if a.Swaps() == 0 {
		t.Fatalf("no swaps completed under chaos: %s", a.Summary())
	}
}

// Cancellation is a graceful drain: partial trajectory, Drained set, no
// error.
func TestLoopDrain(t *testing.T) {
	cfg := testConfig(t, 42)
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := l.Run(ctx)
	if err != nil {
		t.Fatalf("drain returned an error: %v", err)
	}
	if !res.Drained {
		t.Fatal("canceled run did not report Drained")
	}
	if res.Examined != 0 {
		t.Fatalf("pre-canceled run examined %d candidates", res.Examined)
	}
}

// Snapshot must be safe and consistent while the loop is running (the
// /loop/status endpoint reads it live). Run under -race this is the
// concurrency proof.
func TestLoopSnapshotConcurrent(t *testing.T) {
	cfg := testConfig(t, 42)
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-done:
				return
			default:
			}
			s := l.Snapshot()
			if s.Selected > 0 && len(s.SelectedSeq) > s.Selected {
				t.Errorf("snapshot inconsistent: %d selected, %d seq entries",
					s.Selected, len(s.SelectedSeq))
				return
			}
		}
	}()
	res, err := l.Run(context.Background())
	done <- struct{}{}
	<-done
	if err != nil {
		t.Fatal(err)
	}
	final := l.Snapshot()
	if !reflect.DeepEqual(stripModel(res), stripModel(&final)) {
		t.Error("final snapshot does not match the returned result")
	}
}

// slowSource throttles a Source so the loop runs long enough for
// concurrent clients to overlap its swaps.
type slowSource struct {
	Source
	pause time.Duration
}

func (s *slowSource) Next() Candidate {
	time.Sleep(s.pause)
	return s.Source.Next()
}

// Hot-swap under live traffic: a loop publishing into a serving registry
// while clients hammer /predict must never drop a request — every
// response after the first load is 200, across every swap. This is the
// zero-dropped-requests acceptance criterion, in-process.
func TestLoopHotSwapZeroDroppedRequests(t *testing.T) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cfg := testConfig(t, 42)
	cfg.Source = &slowSource{Source: cfg.Source, pause: time.Millisecond}
	cfg.ModelName = "stream-oneclass"
	cfg.Publish = func(a *model.Artifact) error { return srv.Load(cfg.ModelName, a) }
	var published atomic.Int64
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	loopDone := make(chan *Result, 1)
	go func() {
		res, err := l.Run(context.Background())
		if err != nil {
			t.Errorf("loop: %v", err)
		}
		loopDone <- res
	}()

	// Wait for the first swap so the model exists, then hammer it.
	deadline := time.Now().Add(30 * time.Second)
	for len(srv.Models()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no model published within 30s")
		}
		time.Sleep(time.Millisecond)
	}

	body, _ := json.Marshal(map[string][][]float64{
		"instances": {make([]float64, cfg.Source.Dim())},
	})
	var failures atomic.Int64
	var requests atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/predict/"+cfg.ModelName,
					"application/json", bytes.NewReader(body))
				if err != nil {
					failures.Add(1)
					t.Errorf("predict: %v", err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
					t.Errorf("predict: status %d", resp.StatusCode)
				}
				resp.Body.Close()
				requests.Add(1)
				snap := l.Snapshot()
				published.Store(int64(snap.Swaps()))
			}
		}()
	}

	res := <-loopDone
	close(stop)
	wg.Wait()
	if res == nil {
		t.Fatal("loop returned no result")
	}
	if res.Swaps() < 2 {
		t.Fatalf("need >=2 swaps for the hammer to span one: got %d", res.Swaps())
	}
	if failures.Load() != 0 {
		t.Fatalf("%d of %d requests dropped across %d swaps",
			failures.Load(), requests.Load(), res.Swaps())
	}
	if requests.Load() == 0 {
		t.Fatal("hammer sent no requests")
	}
	t.Logf("%d requests, 0 dropped, across %d swaps", requests.Load(), res.Swaps())
}

// Warm-start correctness guard: the incremental trainer's model (a chain
// of warm-started refreshes with eviction) must define the same decision
// function as a cold fit on the same final window, within solver
// tolerance. This is the satellite-2 contract; the conformance suite
// pins it too.
func TestWarmStartMatchesColdDecision(t *testing.T) {
	const (
		n, dim, window = 160, 6, 64
		tol            = 1e-3
	)
	rng := rand.New(rand.NewSource(11))
	x := linalg.NewMatrix(n, dim)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	k := kernel.RBF{Gamma: 1.0 / dim}
	cfg := svm.OneClassConfig{Nu: 0.1}

	warm, stats, err := FitWindow(x, k, window, 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WarmStarts == 0 {
		t.Fatalf("replay used no warm starts: %+v", stats)
	}

	// Cold fit on exactly the final window: the last `window` rows.
	win := linalg.NewMatrix(window, dim)
	copy(win.Data, x.Data[(n-window)*dim:])
	cold, err := svm.FitOneClass(win, k, cfg)
	if err != nil {
		t.Fatal(err)
	}

	probes := linalg.NewMatrix(64, dim)
	for i := range probes.Data {
		probes.Data[i] = rng.NormFloat64() * 1.5
	}
	worst := 0.0
	for i := 0; i < probes.Rows; i++ {
		p := probes.Row(i)
		d := warm.Decision(p) - cold.Decision(p)
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	if worst > tol {
		t.Fatalf("warm-chain and cold decision functions diverge: max |Δ| = %g > %g", worst, tol)
	}
	t.Logf("max decision divergence %g over %d probes (%d refreshes, %d warm, %d fallbacks)",
		worst, probes.Rows, stats.Refreshes, stats.WarmStarts, stats.Fallbacks)
}

// WarmStartAlpha is a projection onto the dual-feasible simplex slice:
// box constraints respected, mass exactly one, and degenerate inputs
// refused (nil → cold start).
func TestWarmStartAlphaProjection(t *testing.T) {
	const nu = 0.1
	check := func(name string, prev []float64, n int) []float64 {
		t.Helper()
		a := svm.WarmStartAlpha(prev, n, nu)
		if a == nil {
			return nil
		}
		upper := 1.0 / (nu * float64(n))
		sum := 0.0
		for i, v := range a {
			if v < 0 || v > upper+1e-12 {
				t.Fatalf("%s: alpha[%d]=%g outside [0, %g]", name, i, v, upper)
			}
			sum += v
		}
		if d := sum - 1; d > 1e-9 || d < -1e-9 {
			t.Fatalf("%s: sum(alpha)=%g, want 1", name, sum)
		}
		return a
	}

	if svm.WarmStartAlpha(nil, 50, nu) != nil {
		t.Fatal("nil prev must mean cold start")
	}
	if svm.WarmStartAlpha(make([]float64, 50), 50, nu) != nil {
		t.Fatal("all-zero prev must mean cold start")
	}

	// Window grew: mass redistributed into the headroom.
	prev := make([]float64, 40)
	for i := range prev {
		prev[i] = 1.0 / 40
	}
	check("grown", prev, 50)

	// Shrunk window with clipped weights: everything must be re-boxed.
	prev = make([]float64, 30)
	for i := range prev {
		prev[i] = 0.5 // far above 1/(nu*30)
	}
	check("clipped", prev, 30)

	// Determinism: same input, same projection.
	a := check("repeat", prev, 30)
	b := check("repeat", prev, 30)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("projection is not deterministic")
	}
}

// FitWindow input validation.
func TestFitWindowEmpty(t *testing.T) {
	if _, _, err := FitWindow(linalg.NewMatrix(0, 4), nil, 16, 8, svm.OneClassConfig{}); err == nil {
		t.Fatal("expected an error on an empty training set")
	}
}

func TestNewConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("expected an error when Source is missing")
	}
	if _, err := NewTrainer(TrainerConfig{}); err == nil {
		t.Fatal("expected an error when Dim is missing")
	}
}

// Summary must render without panicking even on a zero result.
func TestResultSummary(t *testing.T) {
	var r Result
	if s := r.Summary(); s == "" {
		t.Fatal("empty summary")
	}
	res, err := Run(context.Background(), testConfig(t, 42))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary()
	if s == "" {
		t.Fatal("empty summary for a real run")
	}
	for _, want := range []string{"examined", "swaps", "drift"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	_ = fmt.Sprintf("%v", res) // the struct must be printable too
}
