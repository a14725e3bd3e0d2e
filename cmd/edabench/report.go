package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/stream"
)

// metric defines one reported number. BENCHMARK.json at the repository
// root lists the same names, units and directions (TestBenchmarkSpec).
type metric struct {
	name, unit, better string
	// bound is how far an end-to-end metric may worsen, as a share of the
	// parent commit's median, before a change counts as a regression.
	bound float64
}

// endToEnd is what a user of the serving stack or the loop sees, and
// what a change is gated on. The untraced run reports each of them on
// every workload; "op" is a request on the serving workloads and a
// candidate on loop-isa. The timings are taken at the host's full speed
// (speed.go) and get the largest bound allowed: across 10 seeds on a
// 2-vCPU host whose vCPUs run at half speed for a drifting share of the
// time they still spread up to 0.15, and set-up up to 0.19 (README.md).
// p90, throughput and max rate spread wider and are printed ungated.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_heap_mb", "MB", "lower", 0.15},
}

// perLayer is what the traced run reports, layer by layer.
var perLayer = []metric{
	{"kernel.ns_per_instance", "ns", "lower", 0},
	{"kernel.evals_per_instance", "count", "lower", 0},
	{"model.ns_per_instance", "ns", "lower", 0},
	{"serve.ns_per_instance", "ns", "lower", 0},
	{"serve.batch_size_mean", "count", "higher", 0},
	{"serve.queue_wait_ms_mean", "ms", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.cache_hits", "count", "higher", 0},
	{"serve.cache_misses", "count", "lower", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.alloc_bytes_per_req", "B", "lower", 0},
	{"serve.gc_cycles", "count", "lower", 0},
	{"http.ns_per_instance", "ns", "lower", 0},
	{"cluster.ns_per_request", "ns", "lower", 0},
	{"cluster.hop_ns", "ns", "lower", 0},
	{"cluster.failovers", "count", "lower", 0},
	{"stream.next_us_mean", "us", "lower", 0},
	{"stream.score_us_mean", "us", "lower", 0},
	{"stream.simulate_us_mean", "us", "lower", 0},
	{"stream.swap_ms_mean", "ms", "lower", 0},
	{"stream.refreshes", "count", "lower", 0},
	{"stream.refresh_ms_mean", "ms", "lower", 0},
	{"stream.warm_fallback_frac", "ratio", "lower", 0},
	{"stream.selected_frac", "ratio", "higher", 0},
	{"stream.loop_self_ms", "ms", "lower", 0},
	{"loadgen.sent", "count", "higher", 0},
	{"loadgen.ok", "count", "higher", 0},
	{"loadgen.failed", "count", "lower", 0},
	{"loadgen.retried", "count", "lower", 0},
	{"loadgen.lag_p99_ms", "ms", "lower", 0},
	{"loadgen.backlog_max", "count", "lower", 0},
	{"loadgen.p99_ms", "ms", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

// report collects one workload's run.
type report struct {
	workload  string
	traced    bool
	lines     []string
	values    map[string]float64
	ungated   []ungated
	attempted int
	failed    int
	problems  []string // correctness failures; any makes the run incorrect
}

func newReport(workload string, traced bool) *report {
	return &report{workload: workload, traced: traced, values: map[string]float64{}}
}

func (r *report) notef(format string, a ...any) { r.lines = append(r.lines, fmt.Sprintf(format, a...)) }

func (r *report) problemf(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// ungated is an end-to-end number printed beside the gated ones.
type ungated struct {
	name  string
	value float64
	unit  string
}

func (r *report) setUngated(name string, v float64, unit string) {
	r.ungated = append(r.ungated, ungated{name, v, unit})
}

// add counts a phase's requests.
func (r *report) add(ph *phase) {
	r.attempted += ph.sent
	r.failed += ph.sent - ph.ok
}

// failures notes why a target's requests failed; a wrong answer makes
// the run incorrect.
func (r *report) failures(t *target, wrong string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	causes := make([]string, 0, len(t.failures))
	for c := range t.failures {
		causes = append(causes, c)
	}
	sort.Strings(causes)
	for _, c := range causes {
		r.notef("failed: %d × %s", t.failures[c], c)
	}
	if n := t.retried.Load(); n > 0 {
		r.notef("retried after 503: %d", n)
	}
	if n := t.mismatches.Load(); n > 0 {
		r.problemf("%d %s", n, wrong)
	}
}

// correct reports whether every answer and loop invariant checked out.
func (r *report) correct() bool { return len(r.problems) == 0 }

// latency sets p50_ms and the ungated p90_ms, each the median over the
// phase's one-second windows, and the ungated p99_ms over the whole
// phase, all at the host's full speed. A slow host stretches the CPU
// work in a latency but not timer, the wait on the batcher's timer, so
// only the rest is divided by slow, the host's slowdown over the phase.
// The notes and p50_ms_timed give the latency as timed.
func (r *report) latency(ph *phase, slow float64, timer time.Duration) {
	lat := sorted(ph.latMs)
	atFullSpeed := func(v float64) float64 { return min(v, ms(timer)) + max(0, v-ms(timer))/slow }
	p50 := ph.quantile(0.5, time.Second)
	r.set("p50_ms", atFullSpeed(p50))
	r.setUngated("p50_ms_timed", p50, "ms")
	r.setUngated("p90_ms", atFullSpeed(ph.quantile(0.9, time.Second)), "ms")
	r.setUngated("p99_ms", atFullSpeed(quantile(lat, 0.99)), "ms")
	r.setUngated("slowdown", slow, "ratio")
	r.notef("latency over %d requests at %.0f req/s, host slowdown %.3f, batcher timer wait %v",
		len(lat), ph.rate, slow, timer)
	if tail := tailPercentile(len(lat)); tail > 0 {
		r.notef("p%g %.3f ms as timed is the highest percentile with 10 samples beyond it", tail, quantile(lat, tail/100))
	}
	r.notef("generator: lag p99 %.3f ms, backlog max %d", quantile(sorted(ph.lagMs), 0.99), ph.backlogMax)
}

// cpu sets cpu_ms_per_op at the host's full speed and the ungated
// cpu_ms_per_op_timed as timed.
func (r *report) cpu(d usageDelta) {
	r.set("cpu_ms_per_op", d.cpuMsPerOp(true))
	r.setUngated("cpu_ms_per_op_timed", d.cpuMsPerOp(false), "ms")
}

// serveLayer sets the serve.* counters and the generator's own numbers
// for the traced phase ph, whose resource use is d.
func (r *report) serveLayer(d usageDelta, ph *phase) {
	a, b := d.obsAfter, d.obsBefore
	hits := float64(a.count(b, "serve.kernel_row_cache_hits"))
	misses := float64(a.count(b, "serve.kernel_row_cache_misses"))
	r.set("serve.batch_size_mean", a.mean(b, "serve.batch_size"))
	r.set("serve.queue_wait_ms_mean", a.mean(b, "serve.queue_wait_ns")/1e6)
	r.set("serve.cache_hits", hits)
	r.set("serve.cache_misses", misses)
	r.set("serve.cache_hit_ratio", ratio(hits, hits+misses))
	r.set("serve.rejected", float64(a.count(b, "serve.throttled_429")+a.count(b, "serve.deadline_exceeded")))
	r.set("serve.alloc_bytes_per_req", ratio(float64(d.allocBytes), float64(ph.ok)))
	r.set("serve.gc_cycles", float64(d.gcCycles))
	r.set("loadgen.sent", float64(ph.sent))
	r.set("loadgen.ok", float64(ph.ok))
	r.set("loadgen.failed", float64(ph.sent-ph.ok))
	r.set("loadgen.retried", float64(ph.retried))
	r.set("loadgen.lag_p99_ms", quantile(sorted(ph.lagMs), 0.99))
	r.set("loadgen.backlog_max", float64(ph.backlogMax))
	r.set("loadgen.p99_ms", quantile(sorted(ph.latMs), 0.99))
	r.values["cluster.failovers"] += float64(a.count(b, "cluster.failovers"))
}

// overhead sets trace.overhead_frac from an untraced and a traced phase
// at the same rate.
func (r *report) overhead(untraced, traced *phase) {
	r.set("trace.overhead_frac", traced.quantile(0.5, time.Second)/untraced.quantile(0.5, time.Second)-1)
}

// ladder sets the rung metrics.
func (r *report) ladder(l *rungs) {
	r.set("kernel.ns_per_instance", l.kernelNs)
	r.set("kernel.evals_per_instance", l.evals)
	r.set("model.ns_per_instance", l.modelNs)
	r.set("serve.ns_per_instance", l.serveNs)
	r.set("http.ns_per_instance", l.httpNs)
	r.set("cluster.ns_per_request", l.routerNs)
	r.set("cluster.hop_ns", l.routerNs-l.httpReqNs)
	r.values["cluster.failovers"] += float64(l.failovers)
	r.attempted += l.sent
	r.failed += l.failed
	if l.failed > 0 {
		r.problemf("%d of %d ladder calls failed or answered wrong", l.failed, l.sent)
	}
}

// streamLayer sets the stream.* metrics of a traced loop run; d is the
// run's resource use.
func (r *report) streamLayer(lr *loopRun, res *stream.Result, wall time.Duration, d usageDelta) {
	nRefresh, refreshNs := d.obsAfter.hist(d.obsBefore, "stream.refresh_ns")
	r.set("stream.next_us_mean", lr.src.next.meanUs())
	r.set("stream.score_us_mean", lr.det.score.meanUs())
	r.set("stream.simulate_us_mean", lr.src.sim.meanUs())
	r.set("stream.swap_ms_mean", lr.swap.meanUs()/1e3)
	r.set("stream.refreshes", float64(res.Swaps()))
	r.set("stream.refresh_ms_mean", ratio(float64(refreshNs)/1e6, float64(nRefresh)))
	r.set("stream.warm_fallback_frac", ratio(float64(res.Fallbacks), float64(res.Swaps())))
	r.set("stream.selected_frac", ratio(float64(res.Selected), float64(res.Examined)))
	stages := lr.src.next.sum + lr.det.score.sum + lr.src.sim.sum + lr.swap.sum + time.Duration(refreshNs)
	r.set("stream.loop_self_ms", ms(wall-stages))
}

// loop checks a loop run's bookkeeping and notes its trajectory.
func (r *report) loop(res *stream.Result, candidates int, lr *loopRun, wall time.Duration) {
	for _, p := range loopProblems(res, candidates, lr.publishes) {
		r.problemf("loop: %s", p)
	}
	r.notef("loop: examined %d in %.2f s, selected %d, rejected %d, dropped %d, swaps %d, warm-start fallbacks %d",
		res.Examined, wall.Seconds(), res.Selected, res.Rejected, res.Dropped, res.Swaps(), res.Fallbacks)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the report: notes, one line per metric with its unit,
// and last the JSON result line.
func (r *report) write(w io.Writer) error {
	table := endToEnd
	if r.traced {
		table = perLayer
	}
	fmt.Fprintf(w, "== %s (traced=%t)\n", r.workload, r.traced)
	for _, l := range r.lines {
		fmt.Fprintf(w, "  %s\n", l)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  INCORRECT: %s\n", p)
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]jsonMetric{}}
	for _, m := range table {
		v, ok := r.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured (%v)", r.workload, m.name, v)
		}
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = jsonMetric{v, m.unit}
	}
	for _, u := range append(r.ungated, ungated{"fail_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio"}) {
		fmt.Fprintf(w, "  %-26s %14.6g %s (not gated)\n", u.name, u.value, u.unit)
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
