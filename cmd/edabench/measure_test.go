package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %g, want NaN", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestChunkQuantileIgnoresABurstInOneChunk(t *testing.T) {
	var xs []float64
	for c := 0; c < 5; c++ {
		v := 1.0
		if c == 2 {
			v = 100 // one window spoiled by host contention
		}
		for i := 0; i < 10; i++ {
			xs = append(xs, v)
		}
	}
	if got := chunkQuantile(xs, 5, 0.9); got != 1 {
		t.Errorf("median of per-chunk p90 = %g, want 1", got)
	}
	if got := chunkQuantile(xs, 1, 0.9); got != 100 {
		t.Errorf("single-chunk p90 = %g, want 100", got)
	}
}

func TestObsDeltas(t *testing.T) {
	before := obsSnap{
		"c": {Name: "c", Kind: "counter", Value: 5},
		"h": {Name: "h", Kind: "histogram", Count: 2, Sum: 10},
	}
	after := obsSnap{
		"c": {Name: "c", Kind: "counter", Value: 12},
		"h": {Name: "h", Kind: "histogram", Count: 6, Sum: 50},
		"x": {Name: "x", Kind: "counter", Value: 3}, // registered mid-phase
	}
	if got := after.count(before, "c"); got != 7 {
		t.Errorf("counter delta = %d, want 7", got)
	}
	if got := after.count(before, "x"); got != 3 {
		t.Errorf("delta of a counter born mid-phase = %d, want 3", got)
	}
	if n, sum := after.hist(before, "h"); n != 4 || sum != 40 {
		t.Errorf("histogram delta = (%d, %d), want (4, 40)", n, sum)
	}
	if got := after.mean(before, "h"); got != 10 {
		t.Errorf("mean of new observations = %g, want 10", got)
	}
	if got := after.mean(after, "h"); got != 0 {
		t.Errorf("mean with no new observations = %g, want 0", got)
	}
	if got := after.count(before, "missing"); got != 0 {
		t.Errorf("delta of an unknown counter = %d, want 0", got)
	}
}

func TestObsSnapReadsTheRegistry(t *testing.T) {
	c := obs.GetCounter("edabench.test.counter")
	before := takeObs()
	c.Add(3)
	if got := takeObs().count(before, "edabench.test.counter"); got != 3 {
		t.Errorf("registry delta = %d, want 3", got)
	}
}

func TestCPUPerOpIsAMedianOfWindows(t *testing.T) {
	t0 := time.Unix(0, 0)
	// The speedometer ran 40 chunks a window: at full speed, then at half
	// speed in the slow window, then at full speed again.
	chunk := time.Duration(calChunkNs)
	d := usageDelta{ticks: []tick{
		{at: t0, cpu: 0, ops: 0},
		{at: t0.Add(time.Second), cpu: 100 * time.Millisecond, ops: 100, speed: reading{40 * chunk, 40}},
		{at: t0.Add(2 * time.Second), cpu: 900 * time.Millisecond, ops: 200, speed: reading{120 * chunk, 80}},
		{at: t0.Add(3 * time.Second), cpu: 1000 * time.Millisecond, ops: 300, speed: reading{160 * chunk, 120}},
	}}
	if got := d.cpuMsPerOp(false); got != 1 {
		t.Errorf("median CPU per op = %g ms, want 1", got)
	}
	// At full speed the windows read 1, 4 and 1 ms.
	if got := d.cpuMsPerOp(true); got != 1 {
		t.Errorf("median CPU per op at full speed = %g ms, want 1", got)
	}
}

// At half speed a 3 ms latency holds 1.5 ms of work at full speed, or,
// behind a 2 ms batcher timer, 0.5 ms.
func TestLatencyAtFullSpeedKeepsTheTimerWait(t *testing.T) {
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = 3
	}
	ph := &phase{rate: 100, sent: 100, ok: 100, latMs: lat, span: time.Second}
	for _, c := range []struct {
		timer time.Duration
		want  float64
	}{{0, 1.5}, {2 * time.Millisecond, 2.5}, {5 * time.Millisecond, 3}} {
		r := newReport("test", false)
		r.latency(ph, 2, c.timer)
		if got := r.values["p50_ms"]; got != c.want {
			t.Errorf("timer %v: p50 at full speed %g ms, want %g", c.timer, got, c.want)
		}
	}
}

func TestSlowdown(t *testing.T) {
	chunk := time.Duration(calChunkNs)
	if got := slowdown(reading{10 * chunk, 10}, reading{50 * chunk, 30}); got != 2 {
		t.Errorf("20 chunks in 40 chunk-times: slowdown %g, want 2", got)
	}
	if got := slowdown(reading{chunk, 1}, reading{chunk, 1}); got != 1 {
		t.Errorf("no chunks: slowdown %g, want 1", got)
	}
	sp := startSpeedometer(speedEvery)
	time.Sleep(10 * speedEvery)
	r := sp.read()
	sp.halt()
	if r.chunks < 2 || r.busy <= 0 {
		t.Errorf("the speedometer ran %d chunks in %v over 10 periods", r.chunks, r.busy)
	}
}
