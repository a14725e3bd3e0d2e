package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleIsSeeded(t *testing.T) {
	a := schedule(7, 200, 2*time.Second)
	if b := schedule(7, 200, 2*time.Second); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different schedules")
	}
	if c := schedule(8, 200, 2*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same schedule")
	}
	if n := len(a); n < 320 || n > 480 {
		t.Errorf("%d arrivals in 2 s at 200/s", n)
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) || a[len(a)-1] >= 2*time.Second {
		t.Error("arrivals are not increasing offsets inside the phase")
	}
}

// A server that answers nothing for its first 200 ms must be charged,
// for every request due in that time, at least the wait from the
// request's intended send time to the end of the stall, even though the
// generator could not put those requests on the wire before then.
func TestLatencyCountsFromIntendedSendTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var stallEndNs atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Until(time.Unix(0, stallEndNs.Load())))
		fmt.Fprint(w, `{"predictions":[0]}`)
	}))
	defer srv.Close()
	tgt := &target{url: srv.URL, hc: newClient(2), pool: &pool{bodies: [][]byte{[]byte(`{}`)}},
		check: func(int, []float64, time.Time, time.Time) bool { return true }}
	defer tgt.hc.CloseIdleConnections()

	sched := schedule(1, 200, 500*time.Millisecond)
	stallEnd := time.Now().Add(stall)
	stallEndNs.Store(stallEnd.UnixNano())
	ph := tgt.openLoop(200, sched, nil)
	if ph.ok != len(sched) {
		t.Fatalf("%d of %d requests answered", ph.ok, len(sched))
	}
	during := 0
	for i, off := range sched {
		wait := stallEnd.Sub(ph.start.Add(off))
		if wait <= 0 {
			continue
		}
		during++
		if ph.latMs[i] < ms(wait) {
			t.Errorf("request %d due %v before the stall ended recorded %.3f ms", i, wait, ph.latMs[i])
		}
	}
	if during < 20 {
		t.Fatalf("only %d requests were due during the stall", during)
	}
}

// A 503 is sent once more; a second 503 fails the request.
func TestDoRetriesA503Once(t *testing.T) {
	var calls, refuse atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= refuse.Load() {
			http.Error(w, "serve: server is draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"predictions":[0]}`)
	}))
	defer srv.Close()
	tgt := &target{url: srv.URL, hc: newClient(1), pool: &pool{bodies: [][]byte{[]byte(`{}`)}},
		check: func(int, []float64, time.Time, time.Time) bool { return true }}
	defer tgt.hc.CloseIdleConnections()

	for _, tc := range []struct {
		refuse, calls, retried int64
		ok                     bool
	}{{0, 1, 0, true}, {1, 2, 1, true}, {2, 2, 1, false}} {
		calls.Store(0)
		refuse.Store(tc.refuse)
		tgt.retried.Store(0)
		ok, _, _ := tgt.do(0)
		if ok != tc.ok || calls.Load() != tc.calls || tgt.retried.Load() != tc.retried {
			t.Errorf("%d refusals: ok=%t after %d calls, %d retried; want ok=%t, %d calls, %d retried",
				tc.refuse, ok, calls.Load(), tgt.retried.Load(), tc.ok, tc.calls, tc.retried)
		}
	}
}

func TestSearchMaxRateReturnsTheHighestPassingGridRate(t *testing.T) {
	isGrid := func(r float64) bool {
		for k := 0; k < 200; k++ {
			if gridRate(k) == r {
				return true
			}
		}
		return false
	}
	for _, limit := range []float64{310, 333.3, 400, 512, 645, 700} {
		var probed []float64
		got := searchMaxRate(300, 700, 6, func(rate float64) bool {
			probed = append(probed, rate)
			return rate <= limit
		})
		if want := gridRate(gridIndexBelow(limit)); got != want {
			t.Errorf("limit %g: got %g, want %g", limit, got, want)
		}
		if len(probed) > 6 {
			t.Errorf("limit %g: %d probes", limit, len(probed))
		}
		for _, r := range append(probed, got) {
			if !isGrid(r) {
				t.Errorf("limit %g: %g is not a grid rate", limit, r)
			}
		}
	}
	if got := searchMaxRate(300, 700, 6, func(float64) bool { return false }); got != gridRate(gridIndexBelow(300)) {
		t.Errorf("nothing passing: got %g, want the rate known to pass", got)
	}
}

func TestMeetsLimit(t *testing.T) {
	fast := make([]float64, 100)
	for i := range fast {
		fast[i] = 1
	}
	ph := func(ok, backlogEnd int) *phase {
		return &phase{rate: 100, sent: len(fast), ok: ok, latMs: fast[:ok], backlogEnd: backlogEnd, span: time.Second}
	}
	if !meetsLimit(ph(100, 1), 10*time.Millisecond, time.Second) {
		t.Error("1 ms everywhere misses a 10 ms limit")
	}
	if meetsLimit(ph(100, 50), 10*time.Millisecond, time.Second) {
		t.Error("a growing backlog passed")
	}
	if meetsLimit(ph(99, 1), 10*time.Millisecond, time.Second) {
		t.Error("1% failed requests passed")
	}
	slow := append([]float64(nil), fast...)
	for i := 0; i < 20; i++ {
		slow[i*5] = 50
	}
	if meetsLimit(&phase{rate: 100, sent: 100, ok: 100, latMs: slow, backlogEnd: 1, span: time.Second},
		10*time.Millisecond, time.Second) {
		t.Error("p90 of 50 ms passed a 10 ms limit")
	}
}
