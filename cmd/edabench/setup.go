package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"time"

	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/serve/cluster"
	"repro/internal/stream"
	"repro/internal/svm"
)

// The servers run with the shipped flag defaults of cmd/edaserved and
// cmd/edarouter; TestShippedDefaults fails when a default there changes
// and these do not follow.
var (
	serveConfig = serve.Config{
		MaxBatch:       16,
		MaxWait:        2 * time.Millisecond,
		MaxInFlight:    256,
		CacheRows:      1024,
		RequestTimeout: 10 * time.Second,
		DrainTimeout:   10 * time.Second,
	}
	clusterConfig = cluster.Config{
		Replication:    2,
		VNodes:         64,
		MaxInFlight:    256,
		RequestTimeout: 10 * time.Second,
		AttemptTimeout: 5 * time.Second,
		SpreadMin:      8,
		DownAfter:      1,
		Seed:           1,
	}
	probeInterval = time.Second
)

const (
	modelName = "bench-oneclass"
	replicas  = 3
	// fitNu is the one-class outlier fraction of the served models.
	fitNu = 0.25
)

// pool is a workload's request bodies, encoded before any timing starts
// so the generator spends nothing on building them, with the rows each
// carries.
type pool struct {
	rows   []*linalg.Matrix
	bodies [][]byte
	// want holds Scorer.ScoreRow of every row under the served model,
	// computed in setup; nil when the served model changes during the run.
	want [][]float64
}

// drawRows takes the next n candidates' feature rows from src.
func drawRows(src stream.Source, n int) *linalg.Matrix {
	x := linalg.NewMatrix(n, src.Dim())
	for i := 0; i < n; i++ {
		copy(x.Row(i), src.Next().Features)
	}
	return x
}

func newPool(src stream.Source, bodies, rowsPer int) (*pool, error) {
	p := &pool{}
	for b := 0; b < bodies; b++ {
		x := drawRows(src, rowsPer)
		inst := make([][]float64, x.Rows)
		for i := range inst {
			inst[i] = x.Row(i)
		}
		body, err := json.Marshal(map[string][][]float64{"instances": inst})
		if err != nil {
			return nil, fmt.Errorf("encode body: %w", err)
		}
		p.rows = append(p.rows, x)
		p.bodies = append(p.bodies, body)
	}
	return p, nil
}

// expected scores the first n bodies through scoreRows, the reference
// every served answer is compared against.
func (p *pool) expected(sc model.Scorer, n int) [][]float64 {
	return parallel.Map(n, func(b int) []float64 { return scoreRows(sc, p.rows[b]) })
}

// scoreRows scores x row by row through sc.ScoreRow.
func scoreRows(sc model.Scorer, x *linalg.Matrix) []float64 {
	out := make([]float64, x.Rows)
	for i := range out {
		out[i] = sc.ScoreRow(x.Row(i))
	}
	return out
}

// sameBits reports whether got equals want bit for bit.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// env is one workload's running system and the inputs that drive it.
type env struct {
	pool  *pool
	art   *model.Artifact // the served model; nil for loop-isa, whose model changes
	srv   *serve.Server   // loop-isa: the embedded server refreshes are published into
	url   string          // predict URL the generator targets
	close func()
}

// listen serves h on a loopback port the way cmd/edaserved does and
// returns its base URL and a stop function that waits for the server.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) //nolint:errcheck — Serve returns ErrServerClosed on Close
	}()
	return "http://" + ln.Addr().String(), func() { hs.Close(); <-done }, nil
}

// fitModel draws the training rows from src and fits the served
// one-class model on them.
func fitModel(src stream.Source, rows int, seed int64) (*model.Artifact, error) {
	m, err := svm.FitOneClass(drawRows(src, rows), nil, svm.OneClassConfig{Nu: fitNu})
	if err != nil {
		return nil, fmt.Errorf("fit: %w", err)
	}
	return model.Encode(m, model.Meta{Name: modelName, Seed: seed})
}

// setupServing builds a serving workload from its seed: training rows
// and request pool from the workload's stream source, the model, the
// reference scores, and a booted edaserved (or router plus replicas).
func setupServing(w workload, seed int64, sz sizes) (*env, error) {
	src, err := stream.NewSource(w.source, seed, 0)
	if err != nil {
		return nil, err
	}
	art, err := fitModel(src, sz.fitRows, seed)
	if err != nil {
		return nil, err
	}
	p, err := newPool(src, sz.bodies(w.rows), w.rows)
	if err != nil {
		return nil, err
	}
	sc, err := art.Scorer()
	if err != nil {
		return nil, err
	}
	p.want = p.expected(sc, len(p.bodies))

	if w.routed {
		cl, err := cluster.NewLocal(replicas, serveConfig, clusterConfig)
		if err != nil {
			return nil, err
		}
		base, err := bootCluster(cl, art)
		if err != nil {
			cl.Close()
			return nil, err
		}
		return &env{pool: p, art: art, url: base + "/predict/" + modelName, close: cl.Close}, nil
	}
	srv := serve.New(serveConfig)
	if err := srv.Load(modelName, art); err != nil {
		srv.Close()
		return nil, err
	}
	base, stop, err := listen(srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &env{pool: p, art: art, url: base + "/predict/" + modelName,
		close: func() { stop(); srv.Close() }}, nil
}

// bootCluster loads art on its owners, admits them (a replica holding no
// model is not ready, so only owners join), starts the background prober
// as cmd/edarouter does, and serves the router.
func bootCluster(cl *cluster.Local, art *model.Artifact) (string, error) {
	if err := cl.LoadDirect(modelName, art); err != nil {
		return "", err
	}
	ctx, cancel := context.WithTimeout(context.Background(), clusterConfig.AttemptTimeout)
	defer cancel()
	if n := cl.ProbeAll(ctx); n != clusterConfig.Replication {
		return "", fmt.Errorf("%d replicas healthy, want the %d owners", n, clusterConfig.Replication)
	}
	cl.Router.StartProbing(probeInterval)
	return cl.Serve()
}

// setupLoop builds loop-isa's read pool and the empty embedded server
// the loop publishes into.
func setupLoop(w workload, seed int64, sz sizes) (*env, error) {
	// Reads come from their own isa stream, half of it past the planted
	// shift, so they see both regimes the loop trains on.
	bodies := sz.bodies(w.rows)
	src, err := stream.NewSource(w.source, seed+1, bodies*w.rows/2)
	if err != nil {
		return nil, err
	}
	p, err := newPool(src, bodies, w.rows)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serveConfig)
	base, stop, err := listen(srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &env{pool: p, srv: srv, url: base + "/predict/" + modelName,
		close: func() { stop(); srv.Close() }}, nil
}
