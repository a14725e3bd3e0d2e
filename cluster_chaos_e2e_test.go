package repro_test

// Deterministic cluster chaos storm (ISSUE 7): a real 3-node cluster —
// three serve.Servers on loopback behind the consistent-hash router —
// driven through a seeded fault plan that partitions owners
// (cluster.replica_down), fails the routing step (cluster.route), and
// injects replica-side scoring faults (serve.kernel_eval), plus one
// genuine node kill mid-run: the victim's listener really closes, so
// the router eats a refused connection, fails the request over to
// another owner, and routes around the corpse from then on.
//
// Three claims, mirroring the single-node chaos test:
//
//  1. Resilience: every request eventually answers 200 through router
//     failover and caller retry, and every prediction is bit-identical
//     to in-process scoring — chaos and node death may delay or move
//     an answer, never change it.
//  2. Determinism: two complete storms with the same seed produce
//     identical counter snapshots — same partitions, same failovers,
//     same per-replica request counts, byte for byte. A cluster chaos
//     failure is reproducible from one int64.
//  3. The seed matters: a different seed kills a different node and
//     draws a different fault sequence.
//
// Determinism holds because requests are driven serially one row at a
// time and each one is scored on a single replica (so the replica-side
// kernel_eval stream is consumed in a fixed order), the router draws
// its per-owner partition faults serially before any I/O, replica health moves only on those
// counted events and never on a clock, the kill happens at a fixed
// point in the schedule, and the comparison
// uses counters only (histograms measure wall time, which chaos makes
// noisy by design). The nightly slowconformance run multiplies the
// sweep count via sweepScale.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/apps/modelzoo"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/cluster"
)

// clusterChaosPlan partitions ~15% of owner checks, fails ~5% of
// routing steps, and injects 5% errors + latency at the replica-side
// kernel-eval site. No corruption: a corrupted predict body turns into
// a permanent 400, and this storm's contract is that every request
// eventually succeeds.
func clusterChaosPlan(seed int64) fault.Plan {
	return fault.Plan{Seed: seed, Sites: map[string]fault.SiteConfig{
		fault.SiteClusterRoute: {
			ErrRate: 0.05, LatencyRate: 0.05, Latency: time.Millisecond,
		},
		fault.SiteClusterReplicaDown: {
			ErrRate: 0.15, LatencyRate: 0.05, Latency: time.Millisecond,
		},
		fault.SiteKernelEval: {
			ErrRate: 0.05, LatencyRate: 0.05, Latency: time.Millisecond,
		},
	}}
}

// clusterChaosRequest drives one row through the router handler,
// retrying until 200: injected route errors (500), full-owner
// partitions (503), and failover exhaustion (502) are all retryable
// storm weather; anything else fails the run.
func clusterChaosRequest(t *testing.T, h http.Handler, kind string, row []float64) float64 {
	t.Helper()
	body, err := json.Marshal(map[string]any{"instances": [][]float64{row}})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 0; attempt < 200; attempt++ {
		req := httptest.NewRequest(http.MethodPost, "/predict/"+kind, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			var resp struct {
				Predictions []float64 `json:"predictions"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s: decode: %v", kind, err)
			}
			if len(resp.Predictions) != 1 {
				t.Fatalf("%s: %d predictions for one row", kind, len(resp.Predictions))
			}
			return resp.Predictions[0]
		case http.StatusInternalServerError, http.StatusServiceUnavailable,
			http.StatusBadGateway, http.StatusGatewayTimeout:
			continue // seeded storm weather; the retry is part of the schedule
		default:
			t.Fatalf("%s: unexpected status %d: %s", kind, rec.Code, rec.Body.String())
		}
	}
	t.Fatalf("%s: no 200 in 200 attempts — storm too hot to be useful", kind)
	return 0
}

// runClusterChaos executes one complete storm: fresh metrics, fresh
// 3-node cluster, every probe of every kind driven serially through
// the router under the plan, sweepScale passes, one node killed midway
// through the first pass. Returns predictions per kind (last pass) and
// the final counter snapshot.
func runClusterChaos(t *testing.T, trained []modelzoo.Trained, seed int64) (map[string][]float64, map[string]int64) {
	t.Helper()
	obs.ResetMetrics()
	fault.Activate(clusterChaosPlan(seed))
	defer fault.Deactivate()

	lc, err := cluster.NewLocal(3, serve.Config{MaxBatch: 1, RequestTimeout: 10 * time.Second}, cluster.Config{
		Replication: 3,
		DownAfter:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	// Deactivate during setup so boot probes and loads draw nothing.
	fault.Deactivate()
	for _, tr := range trained {
		a, err := model.Encode(tr.Model, model.Meta{Name: string(tr.Kind), Seed: seed})
		if err != nil {
			t.Fatalf("%s: encode: %v", tr.Kind, err)
		}
		if err := lc.LoadDirect(string(tr.Kind), a); err != nil {
			t.Fatal(err)
		}
	}
	if n := lc.ProbeAll(t.Context()); n != 3 {
		t.Fatalf("boot: %d/3 replicas healthy", n)
	}
	fault.Activate(clusterChaosPlan(seed))

	// The kill schedule: midway through the first pass, close the
	// listener of the primary owner of a seed-chosen later kind — the
	// storm is then guaranteed to route requests at the corpse and
	// fail them over.
	h := lc.Router.Handler()
	killAfter := len(trained) / 2
	victimKind := string(trained[killAfter+int(seed%int64(len(trained)-killAfter))].Kind)
	victim := lc.Router.Owners(victimKind)[0]

	preds := make(map[string][]float64, len(trained))
	for pass := 0; pass < sweepScale; pass++ {
		for ki, tr := range trained {
			if pass == 0 && ki == killAfter {
				lc.Kill(victim)
			}
			out := make([]float64, tr.Probes.Rows)
			for i := 0; i < tr.Probes.Rows; i++ {
				out[i] = clusterChaosRequest(t, h, string(tr.Kind), tr.Probes.Row(i))
			}
			preds[string(tr.Kind)] = out
		}
	}

	counters := make(map[string]int64)
	for _, m := range obs.Snapshot() {
		if m.Kind == "counter" {
			counters[m.Name] = m.Value
		}
	}
	return preds, counters
}

func TestClusterChaosStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster chaos skipped in -short")
	}
	trained, err := modelzoo.TrainAll(13, 48, 16)
	if err != nil {
		t.Fatal(err)
	}

	const stormSeed = 20_260_808
	preds1, counters1 := runClusterChaos(t, trained, stormSeed)

	// Claim 1: the storm never changes an answer.
	for _, tr := range trained {
		got := preds1[string(tr.Kind)]
		for i := range got {
			if got[i] != tr.Want[i] {
				t.Errorf("%s probe %d: cluster storm prediction %v != in-process %v",
					tr.Kind, i, got[i], tr.Want[i])
			}
		}
	}

	// The storm actually bit: partitions drawn, routing faults injected,
	// and the node kill forced real failovers. A storm that injected
	// nothing proves nothing.
	for _, name := range []string{
		"fault.cluster.replica_down.errors",
		"fault.cluster.route.errors",
		"cluster.failovers",
		"cluster.partitions",
	} {
		if counters1[name] == 0 {
			t.Errorf("counter %s = 0 — the storm did not engage", name)
		}
	}

	// Claim 2: same seed, same storm — snapshots identical.
	preds2, counters2 := runClusterChaos(t, trained, stormSeed)
	for kind, got := range preds2 {
		for i := range got {
			if got[i] != preds1[kind][i] {
				t.Errorf("%s probe %d: second storm predicted %v, first %v", kind, i, got[i], preds1[kind][i])
			}
		}
	}
	if err := diffCounters(counters1, counters2); err != nil {
		t.Errorf("same seed, different counters: %v", err)
	}

	// Claim 3: a different seed is a different storm.
	_, counters3 := runClusterChaos(t, trained, stormSeed+1)
	if diffCounters(counters1, counters3) == nil {
		t.Errorf("seeds %d and %d produced identical counter snapshots", stormSeed, stormSeed+1)
	}
}
