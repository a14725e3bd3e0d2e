package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/serve/cluster"
	"repro/internal/svm"
)

// rungs is the per-layer ladder: the median time of one call into each
// layer's public entry point, innermost first, each rung on the same
// pool bodies. Adjacent rungs differ by exactly one layer.
type rungs struct {
	kernelNs  float64 // L1 kernel.CrossGramInto, per instance
	modelNs   float64 // L2 Scorer.ScoreBatchInto, per instance
	serveNs   float64 // L3 in-process Handler().ServeHTTP, per instance
	httpNs    float64 // L4 loopback TCP to that handler, per instance
	httpReqNs float64 // L4 per request
	routerNs  float64 // L5 loopback TCP through the router to the replicas, per request
	evals     float64 // kernel evaluations per instance
	failovers int64
	sent      int
	failed    int
}

// runLadder times calls requests per rung, one at a time, after a tenth
// as many untimed ones. The rungs take turns body by body, so a burst of
// host contention slows all of them alike instead of one rung's whole
// run. want[b] is the reference answer for body b.
func runLadder(art *model.Artifact, p *pool, want [][]float64, calls int, tr *tracer) (*rungs, error) {
	oc, ok := art.Model.(*svm.OneClass)
	if !ok {
		return nil, fmt.Errorf("ladder: served model is %T, want one-class", art.Model)
	}
	sc, err := art.Scorer()
	if err != nil {
		return nil, err
	}
	// L3, L4 and L5 each get servers of their own, so every rung starts
	// with an empty row cache and sees the same bodies in the same order.
	newServer := func() (*serve.Server, error) {
		srv := serve.New(serveConfig)
		return srv, srv.Load(modelName, art)
	}
	inProc, err := newServer()
	defer inProc.Close()
	if err != nil {
		return nil, err
	}
	h := inProc.Handler()
	overTCP, err := newServer()
	defer overTCP.Close()
	if err != nil {
		return nil, err
	}
	base, stop, err := listen(overTCP.Handler())
	if err != nil {
		return nil, err
	}
	defer stop()
	cl, err := cluster.NewLocal(replicas, serveConfig, clusterConfig)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	routerBase, err := bootCluster(cl, art)
	if err != nil {
		return nil, err
	}
	hc := newClient(1)
	defer hc.CloseIdleConnections()
	overHTTP := func(base string) *target {
		return &target{url: base + "/predict/" + modelName, hc: hc, pool: p,
			check: func(b int, preds []float64, _, _ time.Time) bool { return sameBits(preds, want[b]) }}
	}
	l4, l5 := overHTTP(base), overHTTP(routerBase)

	g := linalg.NewMatrix(p.rows[0].Rows, oc.SV.Rows)
	out := make([]float64, p.rows[0].Rows)
	ladder := []struct {
		name string
		call func(b int) bool
	}{
		{"kernel.CrossGramInto", func(b int) bool {
			kernel.CrossGramInto(oc.K, p.rows[b], oc.SV, g)
			return true
		}},
		{"model.ScoreBatchInto", func(b int) bool { return sameBits(sc.ScoreBatchInto(p.rows[b], out), want[b]) }},
		{"serve.ServeHTTP", func(b int) bool {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict/"+modelName, bytes.NewReader(p.bodies[b])))
			return rec.Code == http.StatusOK && answerIs(rec.Body, want[b])
		}},
		{"http.roundtrip", func(b int) bool { ok, _, _ := l4.do(b); return ok }},
		{"cluster.roundtrip", func(b int) bool { ok, _, _ := l5.do(b); return ok }},
	}

	r := &rungs{}
	before := takeObs()
	ladder[0].call(0)
	rowsPer := float64(p.rows[0].Rows)
	r.evals = float64(takeObs().count(before, "kernel.crossgram_cells")) / rowsPer

	ns := make([][]float64, len(ladder))
	before = takeObs()
	for i := -calls / 10; i < calls; i++ {
		b := (i%len(want) + len(want)) % len(want)
		for k, l := range ladder {
			t0 := time.Now()
			good := l.call(b)
			t1 := time.Now()
			r.sent++
			if !good {
				r.failed++
			}
			if i >= 0 {
				ns[k] = append(ns[k], float64(t1.Sub(t0)))
				tr.add(tr.id(), 0, l.name, t0, t1)
			}
		}
	}
	r.failovers = takeObs().count(before, "cluster.failovers")
	r.kernelNs = median(ns[0]) / rowsPer
	r.modelNs = median(ns[1]) / rowsPer
	r.serveNs = median(ns[2]) / rowsPer
	r.httpReqNs = median(ns[3])
	r.httpNs = r.httpReqNs / rowsPer
	r.routerNs = median(ns[4])
	return r, nil
}

// answerIs decodes a predict reply and compares it bit for bit.
func answerIs(r io.Reader, want []float64) bool {
	var reply struct {
		Predictions []float64 `json:"predictions"`
	}
	return json.NewDecoder(r).Decode(&reply) == nil && sameBits(reply.Predictions, want)
}
