package repro_test

// Deterministic chaos end-to-end test (ISSUE 4): the full serving stack
// — model zoo, HTTP server with micro-batching, typed client — run
// under an active fault plan injecting 10% errors and 10% latency at
// the kernel-eval and request-decode sites.
//
// Three claims, all asserted here:
//
//  1. Resilience: every predict call eventually succeeds when the
//     caller sends it again after an injected 500 (predictWithRetry;
//     the client itself makes one attempt per call), and the
//     predictions are bit-identical to in-process scoring for every
//     model kind — chaos may delay or fail an attempt, never change an
//     answer.
//  2. Determinism: two complete runs with the same chaos seed produce
//     identical observability counter snapshots — same injected
//     errors, same failed attempts, same batch counts, byte for byte.
//     This is what makes a chaos failure reproducible from its seed
//     alone.
//  3. The seed matters: a different seed produces a different fault
//     sequence (otherwise "seeded" would be vacuous).
//
// Determinism holds because the harness drives requests serially with
// MaxBatch=1 (so each fault site's stream is consumed in a fixed call
// order), a failed attempt is sent again at once in the same order (no
// clock decides anything), and the comparison uses counters only
// (latency histograms and gauges measure wall time, which chaos makes
// noisy by design).

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/apps/modelzoo"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// chaosPlan is the fault mix of the ISSUE: 10% errors + 10% latency at
// the kernel-eval and predict-decode sites.
func chaosPlan(seed int64) fault.Plan {
	return fault.Plan{Seed: seed, Sites: map[string]fault.SiteConfig{
		fault.SiteKernelEval: {
			ErrRate: 0.10, LatencyRate: 0.10, Latency: 2 * time.Millisecond,
		},
		fault.SitePredictDecode: {
			ErrRate: 0.10, LatencyRate: 0.10, Latency: time.Millisecond,
		},
	}}
}

// runChaos executes one complete chaos run: fresh metrics, fresh
// server, fresh client, every probe of every kind driven serially
// through HTTP under the plan. It returns the predictions per kind and
// the final counter snapshot.
func runChaos(t *testing.T, trained []modelzoo.Trained, seed int64) (map[string][]float64, map[string]int64) {
	t.Helper()
	obs.ResetMetrics()
	fault.Activate(chaosPlan(seed))
	defer fault.Deactivate()

	s := serve.New(serve.Config{MaxBatch: 1, RequestTimeout: 10 * time.Second})
	for _, tr := range trained {
		a, err := model.Encode(tr.Model, model.Meta{Name: string(tr.Kind), Seed: seed})
		if err != nil {
			t.Fatalf("%s: encode: %v", tr.Kind, err)
		}
		if err := s.Load("", a); err != nil {
			t.Fatalf("%s: load: %v", tr.Kind, err)
		}
	}
	ts := httptest.NewServer(s.Handler())

	c := client.New(client.Config{BaseURL: ts.URL})

	preds := make(map[string][]float64, len(trained))
	ctx := context.Background()
	for _, tr := range trained {
		out := make([]float64, tr.Probes.Rows)
		for i := 0; i < tr.Probes.Rows; i++ {
			p, err := predictWithRetry(ctx, c, string(tr.Kind), tr.Probes.Row(i))
			if err != nil {
				t.Fatalf("%s probe %d under chaos: %v", tr.Kind, i, err)
			}
			if len(p.Predictions) != 1 {
				t.Fatalf("%s probe %d: %d predictions", tr.Kind, i, len(p.Predictions))
			}
			out[i] = p.Predictions[0]
		}
		preds[string(tr.Kind)] = out
	}

	ts.Close()
	s.Close()

	counters := make(map[string]int64)
	for _, m := range obs.Snapshot() {
		if m.Kind == "counter" {
			counters[m.Name] = m.Value
		}
	}
	return preds, counters
}

// predictWithRetry sends one row with TryPredict, again at once while
// the answer is a 500, at most 10 times in all. A 500 is the only
// status this fault plan produces (an injected decode or kernel-eval
// error); anything else is returned as it is.
func predictWithRetry(ctx context.Context, c *client.Client, name string, row []float64) (*serve.PredictResponse, error) {
	body, err := json.Marshal(serve.PredictRequest{Instances: [][]float64{row}})
	if err != nil {
		return nil, err
	}
	for attempt := 0; attempt < 10; attempt++ {
		var p *serve.PredictResponse
		p, err = c.TryPredict(ctx, name, body, "")
		if client.StatusCode(err) != http.StatusInternalServerError {
			return p, err
		}
	}
	return nil, err
}

func TestChaosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e skipped in -short")
	}
	const trainSeed = 13
	trained, err := modelzoo.TrainAll(trainSeed, 48, 16)
	if err != nil {
		t.Fatal(err)
	}

	const chaosSeed = 20_240_601
	preds1, counters1 := runChaos(t, trained, chaosSeed)

	// Claim 1: chaos never changes an answer. Every prediction matches
	// the serial in-process reference bit for bit, for all six kinds.
	for _, tr := range trained {
		got := preds1[string(tr.Kind)]
		for i := range got {
			if got[i] != tr.Want[i] {
				t.Errorf("%s probe %d: chaos-path prediction %v != in-process %v",
					tr.Kind, i, got[i], tr.Want[i])
			}
		}
	}

	// The plan actually bit: injected errors at both sites, failed
	// attempts at the client. A chaos test that injected nothing proves
	// nothing.
	for _, name := range []string{
		"fault.serve.kernel_eval.errors",
		"fault.serve.predict_decode.errors",
		"client.failures",
	} {
		if counters1[name] == 0 {
			t.Errorf("counter %s = 0 — the chaos plan did not engage", name)
		}
	}

	// Claim 2: same seed, same run — counter snapshots are identical.
	preds2, counters2 := runChaos(t, trained, chaosSeed)
	for kind, got := range preds2 {
		for i := range got {
			if got[i] != preds1[kind][i] {
				t.Errorf("%s probe %d: second run predicted %v, first %v", kind, i, got[i], preds1[kind][i])
			}
		}
	}
	if err := diffCounters(counters1, counters2); err != nil {
		t.Errorf("same seed, different counters: %v", err)
	}

	// Claim 3: a different seed is a different storm.
	_, counters3 := runChaos(t, trained, chaosSeed+1)
	if diffCounters(counters1, counters3) == nil {
		t.Errorf("seeds %d and %d produced identical counter snapshots", chaosSeed, chaosSeed+1)
	}
}

// diffCounters returns an error describing the first mismatch between
// two counter snapshots, or nil when identical. The columnar arena's
// pool hit/miss/put counters are excluded: sync.Pool eviction rides on
// GC timing, so two bit-identical runs can legitimately differ in how
// often a lease was served from the pool versus freshly allocated —
// the predictions, not the pool traffic, are the determinism contract.
func diffCounters(a, b map[string]int64) error {
	for name, av := range a {
		if strings.HasPrefix(name, "colmat.") {
			continue
		}
		if bv, ok := b[name]; !ok || bv != av {
			return fmt.Errorf("%s: %d vs %d", name, av, bv)
		}
	}
	for name := range b {
		if strings.HasPrefix(name, "colmat.") {
			continue
		}
		if _, ok := a[name]; !ok {
			return fmt.Errorf("%s: only in second snapshot", name)
		}
	}
	return nil
}
