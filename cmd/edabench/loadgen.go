package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// target is one HTTP predict endpoint, driven with a pool of
// pre-encoded request bodies that are cycled in order.
type target struct {
	url  string
	hc   *http.Client
	pool *pool
	// check reports whether a 200 response's predictions are right for
	// the body sent; sent and done bracket the exchange.
	check func(body int, preds []float64, sent, done time.Time) bool
	tr    *tracer

	next       atomic.Int64
	answered   atomic.Int64 // requests answered correctly
	mismatches atomic.Int64
	retried    atomic.Int64 // requests sent a second time after a 503

	mu       sync.Mutex
	failures map[string]int // failed requests by cause
}

func (t *target) fail(cause string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failures == nil {
		t.failures = map[string]int{}
	}
	t.failures[cause]++
}

// newClient opens at most conns connections: the generator never has
// more requests on the wire than the box has CPUs, so an open-loop
// request that finds both busy waits in the client, and that wait is
// part of its latency.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func (t *target) nextBody() int { return int((t.next.Add(1) - 1) % int64(len(t.pool.bodies))) }

// do sends one body and reports whether it was answered 200 with the
// right predictions. A 503 is sent once more at once, as the shipped
// client (internal/serve/client) retries it: a loop-isa read that looks
// its model up just before a hot swap reaches the replaced model's
// closed batcher and gets 503 "server is draining", and the same read
// sent again reaches the new model. sent is the first attempt's.
func (t *target) do(body int) (ok bool, sent, done time.Time) {
	var status int
	var data []byte
	for attempt := 0; attempt < 2; attempt++ {
		req, err := http.NewRequest(http.MethodPost, t.url, bytes.NewReader(t.pool.bodies[body]))
		if err != nil {
			t.fail("request: " + err.Error())
			return false, time.Now(), time.Now()
		}
		req.Header.Set("Content-Type", "application/json")
		if attempt == 0 {
			sent = time.Now()
		} else {
			t.retried.Add(1)
		}
		resp, err := t.hc.Do(req)
		if err != nil {
			t.fail("transport error")
			return false, sent, time.Now()
		}
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		done = time.Now()
		if err != nil {
			t.fail("truncated body")
			return false, sent, done
		}
		if status = resp.StatusCode; status != http.StatusServiceUnavailable {
			break
		}
	}
	if status != http.StatusOK {
		t.fail(fmt.Sprintf("%d %s", status, bytes.TrimSpace(data)))
		return false, sent, done
	}
	var reply struct {
		Predictions []float64 `json:"predictions"`
	}
	if json.Unmarshal(data, &reply) != nil || !t.check(body, reply.Predictions, sent, done) {
		t.mismatches.Add(1)
		t.fail("wrong answer")
		return false, sent, done
	}
	t.answered.Add(1)
	return true, sent, done
}

// phase is the outcome of one open-loop phase.
type phase struct {
	rate       float64
	sent, ok   int
	retried    int           // requests sent a second time after a 503
	latMs      []float64     // answered requests' latency from intended send time, in dispatch order
	lagMs      []float64     // generator lateness: dispatch time minus intended send time
	backlogMax int           // most requests outstanding at any dispatch
	backlogEnd int           // requests outstanding when the last one was dispatched
	start      time.Time     // the phase's time zero; request i was due at start+sched[i]
	span       time.Duration // intended send offset of the last request
}

func (p *phase) failFrac() float64 { return ratio(float64(p.sent-p.ok), float64(p.sent)) }

// quantile is the median over the phase's windows of about window each
// of the q-quantile latency (see chunkQuantile).
func (p *phase) quantile(q float64, window time.Duration) float64 {
	return chunkQuantile(p.latMs, max(1, int(p.span/window)), q)
}

// schedule draws the offsets of a Poisson arrival process at rate per
// second over d. The same seed gives the same schedule.
func schedule(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, time.Duration(t*float64(time.Second)))
	}
	return out
}

// openLoop dispatches request i when sched[i] has elapsed since the
// phase began, whether or not earlier requests have been answered, and
// stops early when stop closes. Latency runs from the intended send
// time, so a stall is charged to every request that was due during it.
func (t *target) openLoop(rate float64, sched []time.Duration, stop <-chan struct{}) *phase {
	ph := &phase{rate: rate, lagMs: make([]float64, len(sched))}
	lat := make([]float64, len(sched))
	answered := make([]bool, len(sched))
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	retried := t.retried.Load()
	start := time.Now()
	ph.start = start
dispatch:
	for i, off := range sched {
		select {
		case <-stop:
			break dispatch
		default:
		}
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		ph.lagMs[i] = ms(time.Since(due))
		ph.sent++
		backlog := int(outstanding.Add(1))
		ph.backlogMax = max(ph.backlogMax, backlog)
		ph.backlogEnd = backlog
		ph.span = off
		body := t.nextBody()
		wg.Add(1)
		go func(i, body int, due time.Time) {
			defer wg.Done()
			good, sent, done := t.do(body)
			outstanding.Add(-1)
			lat[i], answered[i] = ms(done.Sub(due)), good
			if t.tr != nil {
				trace := t.tr.id()
				root := t.tr.add(trace, 0, "loadgen.request", due, done)
				t.tr.add(trace, root, "http.roundtrip", sent, done)
			}
		}(i, body, due)
	}
	wg.Wait()
	ph.retried = int(t.retried.Load() - retried)
	for i := 0; i < ph.sent; i++ {
		if answered[i] {
			ph.latMs = append(ph.latMs, lat[i])
		}
	}
	ph.ok = len(ph.latMs)
	ph.lagMs = ph.lagMs[:ph.sent]
	return ph
}

// closedLoop keeps conns requests outstanding back to back for d and
// returns the rate of correct answers per second.
func (t *target) closedLoop(conns int, d time.Duration) (rate float64, sent, ok int) {
	var nSent, nOK atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				nSent.Add(1)
				if good, _, _ := t.do(t.nextBody()); good {
					nOK.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return float64(nOK.Load()) / time.Since(start).Seconds(), int(nSent.Load()), int(nOK.Load())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// The max-rate search probes only rates on the fixed grid
// gridBase·gridStep^k, so two runs report comparable numbers.
const (
	gridBase = 50.0
	gridStep = 1.05
)

func gridRate(k int) float64 { return gridBase * math.Pow(gridStep, float64(k)) }

// gridIndexBelow is the highest grid index whose rate is at most r (0
// when r is below the grid).
func gridIndexBelow(r float64) int {
	k := 0
	for gridRate(k+1) <= r {
		k++
	}
	return k
}

// searchMaxRate returns the highest grid rate that passes, bisecting
// the grid between the rate just below good, taken to pass, and the one
// just above bad, taken to fail, with at most maxProbes probes.
func searchMaxRate(good, bad float64, maxProbes int, pass func(rate float64) bool) float64 {
	lo, hi := gridIndexBelow(good), gridIndexBelow(bad)+1
	for probes := 0; probes < maxProbes && hi-lo > 1; probes++ {
		mid := (lo + hi) / 2
		if pass(gridRate(mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return gridRate(lo)
}

// meetsLimit is a max-rate probe's pass rule: p90 of the answered
// requests (over windows of window) within limit, at most one request in
// a thousand failed, and no backlog left growing when the schedule
// ended. A failed request misses the limit by failing the second test.
func meetsLimit(ph *phase, limit, window time.Duration) bool {
	return ph.quantile(0.9, window) <= ms(limit) && ph.failFrac() <= 0.001 &&
		ph.backlogEnd <= max(4, int(ph.rate*limit.Seconds()))
}
