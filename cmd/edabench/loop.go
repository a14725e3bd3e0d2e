package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/stream"
)

// loopRun is one stream.Run whose refreshes are published through a
// hook into an embedded server, and, when traced, whose Source and
// Detector are wrapped to time each stage.
type loopRun struct {
	srv *serve.Server
	tr  *tracer
	src *tracedSource   // nil when untraced
	det *tracedDetector // nil when untraced

	first     chan struct{} // closed by the first publish
	swap      stage
	publishes int
	last      *model.Artifact

	mu sync.Mutex
	// published holds the swaps a read still in flight may have seen:
	// everything from the last one that finished before a request could
	// have been sent and still be awaiting its answer.
	published []publish
}

// publish is one hot swap: the model that went live and when its Load
// began and returned (end is zero while the Load runs).
type publish struct {
	scorer     model.Scorer
	start, end time.Time
}

func newLoopRun(srv *serve.Server, tr *tracer) *loopRun {
	return &loopRun{srv: srv, tr: tr, first: make(chan struct{})}
}

// hook is the stream.Config.Publish hook: it hot-swaps the refreshed
// model into the embedded server with serve.Server.Load.
func (lr *loopRun) hook(a *model.Artifact) error {
	sc, err := a.Scorer()
	if err != nil {
		return err
	}
	lr.mu.Lock()
	i := len(lr.published)
	start := time.Now()
	lr.published = append(lr.published, publish{scorer: sc, start: start})
	lr.mu.Unlock()
	err = lr.srv.Load(modelName, a)
	end := time.Now()
	lr.mu.Lock()
	lr.published[i].end = end
	// A read sent before the previous swap finished has long since been
	// answered or timed out once the server's request timeout has passed.
	for len(lr.published) > 1 && !lr.published[1].end.IsZero() &&
		end.Sub(lr.published[1].end) > serveConfig.RequestTimeout {
		lr.published = lr.published[1:]
	}
	lr.mu.Unlock()
	if err != nil {
		return err
	}
	lr.swap.add(end.Sub(start))
	lr.last = a
	lr.publishes++
	if lr.publishes == 1 {
		close(lr.first)
	}
	if lr.src != nil {
		lr.tr.add(lr.src.trace, 0, "stream.publish", start, end)
	}
	return nil
}

// run drives stream.Run over src with the loop's defaults except the
// window, and returns the trajectory and Run's wall time.
func (lr *loopRun) run(src stream.Source, seed int64, candidates, window int) (*stream.Result, time.Duration, error) {
	cfg := stream.Config{Seed: seed, Source: src, Candidates: candidates, Window: window,
		ModelName: modelName, Publish: lr.hook}
	if lr.tr != nil {
		lr.src = &tracedSource{Source: src, tr: lr.tr}
		lr.det = &tracedDetector{Detector: stream.NewPageHinkley(0, 0, 0), src: lr.src}
		cfg.Source, cfg.Drift = lr.src, lr.det
	}
	start := time.Now()
	res, err := stream.Run(context.Background(), cfg)
	return res, time.Since(start), err
}

// checkRead accepts a read whose answers match a model live at some
// instant between send and receive: the one live at send time, or one
// whose Load began before the response arrived.
func (lr *loopRun) checkRead(p *pool) func(body int, preds []float64, sent, done time.Time) bool {
	return func(body int, preds []float64, sent, done time.Time) bool {
		lr.mu.Lock()
		lo, hi := 0, -1
		for j, e := range lr.published {
			if !e.end.IsZero() && !e.end.After(sent) {
				lo = j
			}
			if !e.start.After(done) {
				hi = j
			}
		}
		live := append([]publish(nil), lr.published[lo:hi+1]...)
		lr.mu.Unlock()
		for j := len(live) - 1; j >= 0; j-- {
			if sameBits(preds, scoreRows(live[j].scorer, p.rows[body])) {
				return true
			}
		}
		return false
	}
}

// loopProblems checks the loop's own bookkeeping.
func loopProblems(res *stream.Result, candidates, publishes int) []string {
	var out []string
	if res.Examined != candidates {
		out = append(out, fmt.Sprintf("examined %d of %d candidates", res.Examined, candidates))
	}
	if res.Selected+res.Rejected+res.Dropped != res.Examined {
		out = append(out, fmt.Sprintf("selected %d + rejected %d + dropped %d != examined %d",
			res.Selected, res.Rejected, res.Dropped, res.Examined))
	}
	if res.RetrainErr != 0 {
		out = append(out, fmt.Sprintf("%d retrain errors", res.RetrainErr))
	}
	if res.Swaps() != publishes {
		out = append(out, fmt.Sprintf("%d swaps but %d publish calls", res.Swaps(), publishes))
	}
	return out
}

// trajectorySHA fingerprints the whole trajectory: counters, selected
// sequence and refresh points.
func trajectorySHA(res *stream.Result) string {
	data, err := json.Marshal(res)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// tracedSource times Next and Simulate and gives every candidate a
// trace ID that its later spans share.
type tracedSource struct {
	stream.Source
	tr        *tracer
	trace     uint64
	nextEnd   time.Time
	next, sim stage
}

func (s *tracedSource) Next() stream.Candidate {
	t0 := time.Now()
	c := s.Source.Next()
	t1 := time.Now()
	s.trace = s.tr.id()
	s.nextEnd = t1
	s.next.add(t1.Sub(t0))
	s.tr.add(s.trace, 0, "stream.next", t0, t1)
	return c
}

func (s *tracedSource) Simulate(c stream.Candidate) stream.SimResult {
	t0 := time.Now()
	r := s.Source.Simulate(c)
	t1 := time.Now()
	s.sim.add(t1.Sub(t0))
	s.tr.add(s.trace, 0, "stream.simulate", t0, t1)
	return r
}

// tracedDetector times novelty scoring: the loop scores a drawn
// candidate against the live model and then hands the score to Observe,
// so the time from Next's return to Observe is the scoring.
type tracedDetector struct {
	stream.Detector
	src   *tracedSource
	score stage
}

func (d *tracedDetector) Observe(v float64) bool {
	t := time.Now()
	d.score.add(t.Sub(d.src.nextEnd))
	d.src.tr.add(d.src.trace, 0, "stream.score", d.src.nextEnd, t)
	return d.Detector.Observe(v)
}
