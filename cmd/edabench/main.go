// Command edabench is the repository's benchmark: it drives the shipped
// serving stack (edaserved, edarouter) and the online knowledge-discovery
// loop (edaloop's stream.Run) through their public APIs, from inputs it
// builds out of one seed, and checks every answer bit for bit.
//
// The untraced run prints the end-to-end metrics: set-up time, open-loop
// latency at a fixed reference rate, CPU per operation and peak heap,
// which are gated, the timings scaled to the host's full speed by a
// speedometer that runs beside them (speed.go); and beside them the
// timings as timed, p90, p99, the closed-loop capacity
// and the highest rate that meets a latency limit (on loop-isa,
// candidates examined per second). The traced run (-trace 1) prints one
// metric set per layer instead: a ladder of timed calls into kernel,
// model, serve, net/http and cluster, the serving counters, the loop's
// stage timings, and the generator's own numbers; -spans writes every
// span as a JSON line. Each workload's last output line is its result as
// JSON. See README.md for the workloads and metrics.
//
// Usage:
//
//	edabench [-workload score-isa|score-mfg|route-single|loop-isa|all]
//	         [-seed 1] [-seconds 20] [-trace 0|1] [-spans FILE] [-quick]
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stream"
)

// workload is one set of inputs and the traffic that carries them.
type workload struct {
	name string
	why  string
	// source is the stream source the rows are drawn from.
	source string
	// rows is the number of rows per request.
	rows int
	// rate is the reference open-loop rate in requests per second.
	rate float64
	// limit is the p90 latency a max-rate probe must meet.
	limit  time.Duration
	routed bool // through edarouter to three replicas
	loop   bool // reads while stream.Run hot-swaps the model
}

// timerWait is the part of a request's latency spent on the batcher's
// timer, which a slow host does not stretch. A request of fewer rows
// than a batch holds waits about MaxWait for rows that do not come; a
// larger one fills its batch at once.
func (w workload) timerWait() time.Duration {
	if w.rows >= serveConfig.MaxBatch {
		return 0
	}
	return serveConfig.MaxWait
}

var workloads = []workload{
	{name: "score-isa", source: "isa", rows: 64, rate: 300, limit: 10 * time.Millisecond,
		why: "64 ISA feature rows per request to one edaserved: kernel-bound, and the rows repeat, so the kernel-row cache hits"},
	{name: "score-mfg", source: "mfgtest", rows: 64, rate: 120, limit: 10 * time.Millisecond,
		why: "64 mfgtest chip rows per request: kernel-bound with no repeated rows, so the row cache always misses"},
	{name: "route-single", source: "mfgtest", rows: 1, rate: 250, limit: 10 * time.Millisecond, routed: true,
		why: "single-row requests through edarouter to 3 replicas: HTTP, JSON, the router hop and batcher wait dominate"},
	{name: "loop-isa", source: "isa", rows: 16, rate: 100, loop: true,
		why: "stream.Run over 60000 ISA candidates hot-swapping each refresh while 16-row reads arrive at 100 req/s"},
}

// sizes are a run's input sizes and fixed phase lengths.
type sizes struct {
	fitRows   int // rows the served model is fit on
	maxBodies int // request bodies in a pool, at most
	poolRows  int // rows in a pool, at most
	setupReps int // set-ups timed for setup_s, at least; the last one is measured
	// setupTime is how long the timed set-ups take in all, at least: a
	// short set-up is timed more often, since its speedometer reading
	// rests on fewer chunks.
	setupTime   time.Duration
	warmup      time.Duration
	ladderCalls int
	loopCands   int // loop-isa candidates; the shift is planted halfway
	loopWindow  int
	// miniCands is the candidates of the loop that gives the stream
	// layer's numbers on the serving workloads.
	miniCands int
}

func sizesFor(quick bool) sizes {
	if quick {
		return sizes{fitRows: 512, maxBodies: 256, poolRows: 4096, setupReps: 1, warmup: 200 * time.Millisecond,
			ladderCalls: 20, loopCands: 2000, loopWindow: 256, miniCands: 512}
	}
	// Pools of 512 64-row, 2048 16-row or 2048 1-row bodies cycle at
	// least 2048 rows, so a row comes back only after more distinct rows
	// than the 1024-row cache holds, and every hit comes from the data's
	// own redundancy. The row cap keeps set-up's reference scoring short.
	return sizes{fitRows: 4096, maxBodies: 2048, poolRows: 32768, setupReps: 3, setupTime: 1500 * time.Millisecond,
		warmup: 3 * time.Second, ladderCalls: 500, loopCands: 60000, loopWindow: 1024, miniCands: 4096}
}

// bodies is the pool size for requests of rows rows each.
func (sz sizes) bodies(rows int) int { return min(sz.maxBodies, sz.poolRows/rows) }

// reps is how many set-ups a run times, at least, and how long they
// take in all, at least: setup_s is an end-to-end metric, so the traced
// run sets up once.
func (sz sizes) reps(o options) (int, time.Duration) {
	if o.trace {
		return 1, 0
	}
	return sz.setupReps, sz.setupTime
}

// trajectorySeed1 is loop-isa's trajectory fingerprint at seed 1 and
// full size. A different value means the loop's behaviour changed.
const trajectorySeed1 = "b0b5dcdf5587d1b48149f963b086c1fb5ca967a17ad04e8865c7277d205a119a"

// runSeconds is the default -seconds, BENCHMARK.json's run_seconds.
const runSeconds = 20

type options struct {
	workloads []workload
	seed      int64
	seconds   int
	trace     bool
	spans     string
	quick     bool
}

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := flag.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed every input and arrival schedule derives from")
	seconds := flag.Int("seconds", runSeconds, "measured seconds per workload")
	trace := flag.Int("trace", 0, "1 runs the traced run, which reports per-layer metrics")
	spans := flag.String("spans", "", "with -trace 1, write the spans to this file as JSON lines")
	quick := flag.Bool("quick", false, "small inputs and short fixed phases, for tests")
	flag.Parse()

	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans, quick: *quick}
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			o.workloads = append(o.workloads, w)
		}
	}
	switch {
	case len(o.workloads) == 0:
		fatal(fmt.Errorf("unknown workload %q", *name))
	case *seconds < 1:
		fatal(fmt.Errorf("-seconds must be at least 1"))
	case *trace != 0 && *trace != 1:
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	ok, err := run(o, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "edabench:", err)
	os.Exit(1)
}

// run runs the chosen workloads and prints each report; it reports
// whether every answer was correct.
func run(o options, w io.Writer) (bool, error) {
	obs.SetEnabled(true) // the shipped servers count their work; REPRO_OBS stays on
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	sz := sizesFor(o.quick)
	allOK := true
	for _, wl := range o.workloads {
		fmt.Fprintf(w, "edabench %s seed=%d seconds=%d trace=%t quick=%t gomaxprocs=%d conns=%d\n",
			wl.name, o.seed, o.seconds, o.trace, o.quick, runtime.GOMAXPROCS(0), conns())
		runWorkload := runServing
		if wl.loop {
			runWorkload = runLoop
		}
		r, err := runWorkload(wl, o, sz, tr)
		if err != nil {
			return false, fmt.Errorf("%s: %w", wl.name, err)
		}
		if err := r.write(w); err != nil {
			return false, err
		}
		allOK = allOK && r.correct()
		runtime.GC()
	}
	if tr != nil && o.spans != "" {
		if err := tr.write(o.spans); err != nil {
			return false, fmt.Errorf("write spans: %w", err)
		}
	}
	return allOK, nil
}

// candidatesSeen is the loop's own count of examined candidates.
var candidatesSeen = obs.GetCounter("stream.candidates_seen")

// conns is how many connections the generator opens: one per CPU.
func conns() int { return runtime.NumCPU() }

// phaseSeed derives the arrival-schedule seed of one named phase.
func phaseSeed(seed int64, phase string) int64 {
	h := fnv.New64a()
	h.Write([]byte(phase))
	return seed ^ int64(h.Sum64())
}

// setUp times at least reps set-ups, and more until they have taken
// total in all, and keeps the last. setup_s is the median set-up time at
// the host's full speed.
func setUp(r *report, reps int, total time.Duration, build func() (*env, error)) (*env, error) {
	var e *env
	var secs, timed []float64
	var spent float64
	for i := 0; i < reps || spent < total.Seconds(); i++ {
		if e != nil {
			e.close()
		}
		sp := startSpeedometer(setupSpeedEvery)
		start := time.Now()
		var err error
		e, err = build()
		d := time.Since(start).Seconds()
		slow := slowdown(reading{}, sp.read())
		sp.halt()
		if err != nil {
			return nil, err
		}
		spent += d
		timed = append(timed, d)
		secs = append(secs, d/slow)
	}
	r.set("setup_s", median(secs))
	r.setUngated("setup_s_timed", median(timed), "s")
	r.notef("setup %v s at full speed, %v s as timed, median of %d", secs, timed, len(secs))
	// Set-up garbage (the fit's Gram matrix) must not count in the
	// measured phases' heap.
	runtime.GC()
	return e, nil
}

// runServing runs score-isa, score-mfg or route-single.
func runServing(w workload, o options, sz sizes, tr *tracer) (*report, error) {
	r := newReport(w.name, o.trace)
	reps, total := sz.reps(o)
	e, err := setUp(r, reps, total, func() (*env, error) { return setupServing(w, o.seed, sz) })
	if err != nil {
		return nil, err
	}
	defer e.close()
	tgt := &target{url: e.url, hc: newClient(conns()), pool: e.pool,
		check: func(body int, preds []float64, _, _ time.Time) bool { return sameBits(preds, e.pool.want[body]) }}
	defer tgt.hc.CloseIdleConnections()
	S := time.Duration(o.seconds) * time.Second
	open := func(phase string, rate float64, d time.Duration) *phase {
		ph := tgt.openLoop(rate, schedule(phaseSeed(o.seed, phase), rate, d), nil)
		r.add(ph)
		return ph
	}
	open("warmup", w.rate, sz.warmup)

	if !o.trace {
		u := beginUsage(tgt.answered.Load)
		ref := open("reference", w.rate, S*2/5)
		d := u.end()
		r.latency(ref, d.slowdown, w.timerWait())
		r.cpu(d)
		r.set("peak_heap_mb", float64(d.peakHeap)/1e6)

		capacity, sent, ok := tgt.closedLoop(conns(), S/5)
		r.attempted += sent
		r.failed += sent - ok
		r.setUngated("closed_loop_rps", capacity, "1/s")

		// max_rate_rps is the highest grid rate whose open-loop probe meets
		// the latency limit. The open loop cannot outrun conns requests
		// back to back, so the closed-loop capacity bounds the search from
		// above; the reference rate, when it meets the limit, bounds it
		// from below.
		good, bad := w.rate, capacity
		if !meetsLimit(ref, w.limit, time.Second) {
			good, bad = 0, w.rate
		}
		probes := 0
		maxRate := searchMaxRate(good, bad, 6, func(rate float64) bool {
			probes++
			ph := open(fmt.Sprintf("probe-%d", probes), rate, S*3/40)
			pass := meetsLimit(ph, w.limit, S*3/160)
			r.notef("probe %d: %.1f req/s, %d sent, p90 %.3f ms, fail_frac %.4f, backlog at end %d, pass=%t",
				probes, rate, ph.sent, ph.quantile(0.9, S*3/160), ph.failFrac(), ph.backlogEnd, pass)
			return pass
		})
		r.setUngated("max_rate_rps", maxRate, "1/s")
	} else {
		untraced := open("untraced", w.rate, S/4)
		tgt.tr = tr
		u := beginUsage(tgt.answered.Load)
		traced := open("traced", w.rate, S/4)
		d := u.end()
		tgt.tr = nil
		r.serveLayer(d, traced)
		r.overhead(untraced, traced)
		l, err := runLadder(e.art, e.pool, e.pool.want, sz.ladderCalls, tr)
		if err != nil {
			return nil, err
		}
		r.ladder(l)
		// The stream layer's numbers on a serving workload come from a
		// short loop over the workload's own source.
		if err := streamOnly(r, w, o, sz, tr); err != nil {
			return nil, err
		}
	}
	r.failures(tgt, "responses did not match Scorer.ScoreRow")
	return r, nil
}

// streamOnly runs sz.miniCands candidates of the loop over w's source,
// publishing into a server of its own, and sets the stream.* metrics.
func streamOnly(r *report, w workload, o options, sz sizes, tr *tracer) error {
	src, err := stream.NewSource(w.source, o.seed, sz.miniCands/2)
	if err != nil {
		return err
	}
	srv := serve.New(serveConfig)
	defer srv.Close()
	lr := newLoopRun(srv, tr)
	u := beginUsage(candidatesSeen.Value)
	res, wall, err := lr.run(src, o.seed, sz.miniCands, sz.loopWindow)
	d := u.end()
	if err != nil {
		return err
	}
	r.loop(res, sz.miniCands, lr, wall)
	r.streamLayer(lr, res, wall, d)
	return nil
}

// runLoop runs loop-isa: stream.Run publishes every refresh into an
// embedded edaserved while one connection reads from it.
func runLoop(w workload, o options, sz sizes, tr *tracer) (*report, error) {
	r := newReport(w.name, o.trace)
	reps, total := sz.reps(o)
	e, err := setUp(r, reps, total, func() (*env, error) { return setupLoop(w, o.seed, sz) })
	if err != nil {
		return nil, err
	}
	defer e.close()
	S := time.Duration(o.seconds) * time.Second
	lr := newLoopRun(e.srv, tr)
	tgt := &target{url: e.url, hc: newClient(1), pool: e.pool, check: lr.checkRead(e.pool), tr: tr}
	defer tgt.hc.CloseIdleConnections()
	src, err := stream.NewSource(w.source, o.seed, sz.loopCands/2)
	if err != nil {
		return nil, err
	}

	// Reads start with the first published model and stop when Run
	// returns; the schedule is drawn far longer than the loop runs.
	stop := make(chan struct{})
	readsDone := make(chan *phase, 1)
	go func() {
		select {
		case <-lr.first:
			readsDone <- tgt.openLoop(w.rate, schedule(phaseSeed(o.seed, "reads"), w.rate, 10*S), stop)
		case <-stop:
			readsDone <- &phase{rate: w.rate}
		}
	}()
	u := beginUsage(candidatesSeen.Value)
	res, wall, err := lr.run(src, o.seed, sz.loopCands, sz.loopWindow)
	d := u.end()
	close(stop)
	reads := <-readsDone
	if err != nil {
		return nil, err
	}
	r.add(reads)
	r.loop(res, sz.loopCands, lr, wall)
	sha := trajectorySHA(res)
	r.notef("stream.trajectory_sha256 %s", sha)
	if o.seed == 1 && !o.quick && sha != trajectorySeed1 {
		r.notef("WARNING: the trajectory differs from the committed seed-1 value %s", trajectorySeed1)
	}

	if !o.trace {
		r.latency(reads, d.slowdown, w.timerWait())
		r.setUngated("loop_cps", float64(res.Examined)/wall.Seconds(), "1/s")
		r.cpu(d)
		r.set("peak_heap_mb", float64(d.peakHeap)/1e6)
	} else {
		r.serveLayer(d, reads)
		r.streamLayer(lr, res, wall, d)
		// Tracing overhead on reads, measured against the final model
		// once the loop has stopped swapping.
		tgt.tr = nil
		untraced := tgt.openLoop(w.rate, schedule(phaseSeed(o.seed, "untraced"), w.rate, S/10), nil)
		tgt.tr = tr
		traced := tgt.openLoop(w.rate, schedule(phaseSeed(o.seed, "traced"), w.rate, S/10), nil)
		r.add(untraced)
		r.add(traced)
		r.overhead(untraced, traced)
		if lr.last == nil {
			return nil, fmt.Errorf("the loop published no model")
		}
		sc, err := lr.last.Scorer()
		if err != nil {
			return nil, err
		}
		want := e.pool.expected(sc, min(sz.ladderCalls, len(e.pool.bodies)))
		l, err := runLadder(lr.last, e.pool, want, sz.ladderCalls, tr)
		if err != nil {
			return nil, err
		}
		r.ladder(l)
	}
	r.failures(tgt, "reads matched no model live between send and receive")
	return r, nil
}
