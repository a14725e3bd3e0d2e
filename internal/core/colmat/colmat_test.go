package colmat

import (
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/parallel"
)

// sameBacking reports whether two non-empty slices share a first element.
func sameBacking(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	return &a[0] == &b[0]
}

// TestShapeIsolation is the core arena contract: a buffer returned
// under one shape and a buffer leased under any other shape never share
// storage, because each exact shape owns a private arena.
func TestShapeIsolation(t *testing.T) {
	a := Get(7, 5)
	returned := a.Data
	Put(a)
	for _, shape := range [][2]int{{5, 7}, {7, 4}, {8, 5}, {1, 35}, {35, 1}} {
		b := Get(shape[0], shape[1])
		if sameBacking(returned, b.Data) {
			t.Fatalf("buffer returned as 7x5 re-leased as %dx%d with shared backing storage",
				shape[0], shape[1])
		}
		Put(b)
	}
	// The same shape, though, should reuse the returned buffer (pool
	// permitting — GC may clear it, so only assert when it does hit).
	c := Get(7, 5)
	if sameBacking(returned, c.Data) {
		for i, v := range c.Data {
			if v != 0 {
				t.Fatalf("reused buffer not zeroed at %d: %v", i, v)
			}
		}
	}
	Put(c)
}

// TestAliasHammer leases, writes, verifies, and returns buffers of a
// handful of shapes concurrently (width set by REPRO_WORKERS, like
// every parallel path in the repo). Each lease fills its buffer with a
// sentinel unique to the iteration; if any two live leases ever alias,
// or a put buffer is handed out before its next zeroing, the sentinel
// check fails. Run under -race this also proves the arena's internal
// synchronization.
func TestAliasHammer(t *testing.T) {
	shapes := [][2]int{{4, 4}, {4, 8}, {8, 4}, {1, 16}, {16, 16}, {3, 5}}
	const iters = 4000
	parallel.For(iters, func(lo, hi int) {
		for it := lo; it < hi; it++ {
			shape := shapes[it%len(shapes)]
			m := Get(shape[0], shape[1])
			want := float64(it + 1)
			for i := range m.Data {
				m.Data[i] = want
			}
			// Interleave a second lease of a different shape so live
			// leases from distinct arenas coexist on every iteration.
			other := shapes[(it+1)%len(shapes)]
			o := Get(other[0], other[1])
			for i := range o.Data {
				o.Data[i] = -want
			}
			for i, v := range m.Data {
				if v != want {
					t.Errorf("iter %d: lease %dx%d corrupted at %d: got %v want %v",
						it, shape[0], shape[1], i, v, want)
					return
				}
			}
			for i, v := range o.Data {
				if v != -want {
					t.Errorf("iter %d: lease %dx%d corrupted at %d: got %v want %v",
						it, other[0], other[1], i, v, -want)
					return
				}
			}
			Put(o)
			Put(m)
		}
	})
}

// TestPoisonMakesUseAfterPutLoud: with poison on, a caller that
// wrongly retains a slice of a returned buffer reads NaN, not stale
// plausible numbers.
func TestPoisonMakesUseAfterPutLoud(t *testing.T) {
	defer SetPoison(SetPoison(true))
	m := Get(3, 3)
	for i := range m.Data {
		m.Data[i] = 42
	}
	retained := m.Data // the bug under test: retaining across Put
	Put(m)
	for i, v := range retained {
		if !math.IsNaN(v) {
			t.Fatalf("use-after-put at %d read %v, want NaN poison", i, v)
		}
	}
}

// TestGetZeroes: a pooled buffer full of prior garbage comes back
// zeroed, so accumulate-into callers (Mul) are safe on pooled storage.
func TestGetZeroes(t *testing.T) {
	m := Get(6, 6)
	for i := range m.Data {
		m.Data[i] = math.Inf(1)
	}
	Put(m)
	n := Get(6, 6)
	defer Put(n)
	for i, v := range n.Data {
		if v != 0 {
			t.Fatalf("leased buffer not zeroed at %d: %v", i, v)
		}
	}
}

// TestPutInconsistentPanics: a sliced-down or corrupted handle must
// never enter an arena.
func TestPutInconsistentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put of inconsistent matrix did not panic")
		}
	}()
	m := linalg.NewMatrix(4, 4)
	m.Rows = 3 // header no longer matches storage
	Put(m)
}

// TestVecLease: vector leases behave like 1×n matrices and isolate by
// length.
func TestVecLease(t *testing.T) {
	v := GetVec(9)
	if v.Rows != 1 || v.Cols != 9 || len(v.Data) != 9 {
		t.Fatalf("GetVec(9) = %dx%d with %d elements", v.Rows, v.Cols, len(v.Data))
	}
	data := v.Data
	PutVec(v)
	w := GetVec(10)
	if sameBacking(data, w.Data) {
		t.Fatal("vector leases of different lengths share storage")
	}
	PutVec(w)
}

// raceEnabled is set by race_test.go under -race.
var raceEnabled = false

// TestSteadyStateHits: after a warm-up lease/return cycle, repeated
// same-shape leases are served from the pool, not the allocator.
func TestSteadyStateHits(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a random share of Puts on purpose, so the hit count measures the race detector, not the arena")
	}
	Put(Get(13, 11)) // warm the arena
	h0, _, _ := Stats()
	for i := 0; i < 8; i++ {
		Put(Get(13, 11))
	}
	h1, _, _ := Stats()
	if h1-h0 < 6 { // GC may steal a buffer or two; near-all must hit
		t.Fatalf("steady-state leases mostly missed the pool: %d hits in 8 cycles", h1-h0)
	}
}
