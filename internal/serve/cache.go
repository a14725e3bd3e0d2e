package serve

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/linalg"
)

// rowCache is the score memo: a bounded LRU from an input row to the
// score the model gave it. Production query streams repeat inputs (the
// novelty loop re-scores the same constrained-random tests after each
// refit), and a repeated row skips kernel evaluation entirely. A row
// hits only when a stored row equals it bit for bit (so +0 and -0
// differ); scoring is a pure function of the row, so a memoized score
// is bit-identical to recomputing it and the memo can never change a
// prediction. Each served model owns its memo, so a hot-reload starts
// from an empty one.
//
// Slot s holds a row, its score and its hash in flat arrays, and int32
// links order the slots from most to least recently used. An index from
// the row's hash finds the slot. The arrays grow as slots fill, up to
// capacity, so a memo that is never full never holds its whole size.
// Two different rows with the same 64-bit hash are a miss, never a
// wrong score; storing the newer one takes over the older one's slot.
// Without such a collision, the hits, misses and evictions are those of
// any LRU of this capacity.
type rowCache struct {
	mu         sync.Mutex
	capacity   int
	dim        int
	rows       []float64 // slot s's row at rows[s*dim:(s+1)*dim]
	scores     []float64
	hashes     []uint64
	prev, next []int32 // neighbours toward the head and the tail; -1 at either end
	head, tail int32   // most and least recently used slot; -1 when empty
	index      map[uint64]int32
}

// newRowCache returns a memo holding up to capacity scores of dim-wide
// rows; capacity <= 0 returns nil (memoization disabled).
func newRowCache(capacity, dim int) *rowCache {
	if capacity <= 0 {
		return nil
	}
	return &rowCache{
		capacity: min(capacity, math.MaxInt32),
		dim:      dim,
		head:     -1,
		tail:     -1,
		index:    make(map[uint64]int32),
	}
}

// misses is one batch's record of the rows the memo lacks, and the
// scratch that scores them. The batcher goroutine that owns a model
// reuses it batch after batch.
type misses struct {
	rows   []int    // indices into the batch
	hashes []uint64 // their hashRow
	x      linalg.Matrix
	scores []float64
}

// gather copies the missed rows of x into the scratch matrix and returns
// it with a score slice of the same length.
func (m *misses) gather(x *linalg.Matrix) (*linalg.Matrix, []float64) {
	n := len(m.rows)
	m.x = linalg.Matrix{Rows: n, Cols: x.Cols, Data: slices.Grow(m.x.Data[:0], n*x.Cols)[:n*x.Cols]}
	for k, i := range m.rows {
		copy(m.x.Row(k), x.Row(i))
	}
	m.scores = slices.Grow(m.scores[:0], n)[:n]
	return &m.x, m.scores
}

// hashRow mixes the bits of x, in order, into 64 bits. Each step is a
// bijection of the running hash for a given value, so two rows that
// differ in one value never collide.
func hashRow(x []float64) uint64 {
	h := uint64(len(x))
	for _, v := range x {
		h = bits.RotateLeft64((h^math.Float64bits(v))*0x9e3779b97f4a7c15, 29)
	}
	return h
}

// lookup answers every row of x the memo holds into out, marking it
// most recently used in row order, and records the others in m. It takes
// the lock once. A nil memo holds nothing.
func (c *rowCache) lookup(x *linalg.Matrix, out []float64, m *misses) {
	m.rows, m.hashes = m.rows[:0], m.hashes[:0]
	if c != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		h := hashRow(row)
		if c != nil {
			if s, ok := c.index[h]; ok && sameRow(c.row(s), row) {
				c.touch(s)
				out[i] = c.scores[s]
				continue
			}
		}
		m.rows = append(m.rows, i)
		m.hashes = append(m.hashes, h)
	}
}

// store memoizes scores[k] for the row m.rows[k] of x, in order, each
// as the most recently used, evicting the least recently used when full.
func (c *rowCache) store(x *linalg.Matrix, m *misses, scores []float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, i := range m.rows {
		h := m.hashes[k]
		s, ok := c.index[h]
		if !ok {
			s = c.claim()
			c.index[h] = s
			c.hashes[s] = h
		}
		// With ok, the slot holds this row (it missed twice in one batch)
		// or, after a hash collision, another row, which this one replaces.
		copy(c.row(s), x.Row(i))
		c.scores[s] = scores[k]
		c.touch(s)
	}
}

// claim returns an unlinked slot: a new one below capacity, or else the
// least recently used one, evicted.
func (c *rowCache) claim() int32 {
	if n := len(c.scores); n < c.capacity {
		c.rows = slices.Grow(c.rows, c.dim)[:(n+1)*c.dim]
		c.scores = append(c.scores, 0)
		c.hashes = append(c.hashes, 0)
		c.prev = append(c.prev, -1)
		c.next = append(c.next, -1)
		return int32(n)
	}
	s := c.tail
	c.unlink(s)
	delete(c.index, c.hashes[s])
	return s
}

// touch makes slot s the most recently used.
func (c *rowCache) touch(s int32) {
	if s == c.head {
		return
	}
	if c.prev[s] >= 0 {
		c.unlink(s)
	}
	c.next[s] = c.head
	if c.head >= 0 {
		c.prev[c.head] = s
	} else {
		c.tail = s
	}
	c.head = s
}

func (c *rowCache) unlink(s int32) {
	p, n := c.prev[s], c.next[s]
	if p >= 0 {
		c.next[p] = n
	} else {
		c.head = n
	}
	if n >= 0 {
		c.prev[n] = p
	} else {
		c.tail = p
	}
	c.prev[s], c.next[s] = -1, -1
}

func (c *rowCache) row(s int32) []float64 {
	return c.rows[int(s)*c.dim : (int(s)+1)*c.dim]
}

// sameRow reports whether a and b hold the same bits.
func sameRow(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// len returns the number of memoized scores.
func (c *rowCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.scores)
}
