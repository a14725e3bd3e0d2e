package serve

import (
	"container/list"
	"math"
	"sync"
)

// rowCache is the score memo: a bounded LRU from an input row to the
// score the model gave it. Production query streams repeat inputs (the
// novelty loop re-scores the same constrained-random tests after each
// refit), and a repeated row skips kernel evaluation entirely. Keys are
// the raw IEEE-754 bits of the input vector, so only bit-identical
// inputs hit; scoring is a pure function of the row, so a memoized score
// is bit-identical to recomputing it and the memo can never change a
// prediction. Each served model owns its memo, so a hot-reload starts
// from an empty one.
type rowCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type rowEntry struct {
	key   string
	score float64
}

// newRowCache returns a memo holding up to capacity scores; capacity <= 0
// returns nil (memoization disabled).
func newRowCache(capacity int) *rowCache {
	if capacity <= 0 {
		return nil
	}
	return &rowCache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element, capacity)}
}

// rowKey packs the float64 bits of x into a string key.
func rowKey(x []float64) string {
	b := make([]byte, 8*len(x))
	for i, v := range x {
		bits := math.Float64bits(v)
		for k := 0; k < 8; k++ {
			b[8*i+k] = byte(bits >> (8 * k))
		}
	}
	return string(b)
}

// get returns the memoized score for key and marks it most recently used.
func (c *rowCache) get(key string) (float64, bool) {
	if c == nil {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		return 0, false
	}
	c.ll.MoveToFront(e)
	return e.Value.(*rowEntry).score, true
}

// put stores a score, evicting the least recently used entry when full.
func (c *rowCache) put(key string, score float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		c.ll.MoveToFront(e)
		e.Value.(*rowEntry).score = score
		return
	}
	c.m[key] = c.ll.PushFront(&rowEntry{key: key, score: score})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*rowEntry).key)
	}
}

// len returns the number of memoized scores.
func (c *rowCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
