package serve

import (
	"container/list"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// refCache is the score memo as it was before its slot arrays: a
// container/list LRU keyed by the row's bytes. rowCache must answer
// every row sequence hit for hit and score for score as it does.
type refCache struct {
	cap       int
	ll        *list.List // front = most recently used
	m         map[string]*list.Element
	evictions int
}

type refEntry struct {
	key   string
	score float64
}

func newRefCache(capacity int) *refCache {
	return &refCache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element, capacity)}
}

// refKey packs the float64 bits of x into a string key.
func refKey(x []float64) string {
	b := make([]byte, 8*len(x))
	for i, v := range x {
		bits := math.Float64bits(v)
		for k := 0; k < 8; k++ {
			b[8*i+k] = byte(bits >> (8 * k))
		}
	}
	return string(b)
}

func (c *refCache) get(key string) (float64, bool) {
	e, ok := c.m[key]
	if !ok {
		return 0, false
	}
	c.ll.MoveToFront(e)
	return e.Value.(*refEntry).score, true
}

func (c *refCache) put(key string, score float64) {
	if e, ok := c.m[key]; ok {
		c.ll.MoveToFront(e)
		e.Value.(*refEntry).score = score
		return
	}
	c.m[key] = c.ll.PushFront(&refEntry{key: key, score: score})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*refEntry).key)
		c.evictions++
	}
}

// memoGet looks row up in c as a batch of one.
func memoGet(c *rowCache, row ...float64) (float64, bool) {
	var m misses
	out := []float64{0}
	c.lookup(&linalg.Matrix{Rows: 1, Cols: len(row), Data: row}, out, &m)
	return out[0], len(m.rows) == 0
}

// memoPut stores score for row in c as a batch of one.
func memoPut(c *rowCache, score float64, row ...float64) {
	m := misses{rows: []int{0}, hashes: []uint64{hashRow(row)}}
	c.store(&linalg.Matrix{Rows: 1, Cols: len(row), Data: row}, &m, []float64{score})
}

// TestRowCacheMatchesReference drives rowCache and the container/list
// reference through the same batches, as scoreBatch does: look every
// row up, then store the misses with fresh scores. Rows come from a
// skewed draw over 100 rows, some differing only in the sign of a zero,
// so every capacity sees both hits and evictions. Both must report the
// same hit or miss for every row, the same score for every hit, and the
// same size after every batch. A row whose hash leads to another row's
// slot must miss.
func TestRowCacheMatchesReference(t *testing.T) {
	const dim, alphabet = 3, 100
	rows := make([][]float64, alphabet)
	for i := range rows {
		zero := 0.0
		if i >= alphabet/2 {
			zero = math.Copysign(0, -1)
		}
		rows[i] = []float64{float64(i % 10), float64(i / 10 % 5), zero}
	}
	r := rand.New(rand.NewSource(11))
	for _, capacity := range []int{1, 2, 7, 64} {
		c, ref := newRowCache(capacity, dim), newRefCache(capacity)
		draw := rand.NewZipf(r, 1.1, 2, alphabet-1)
		var m misses
		hits, stored := 0, 0
		for batch := 0; batch < 400; batch++ {
			x := linalg.NewMatrix(1+r.Intn(16), dim)
			for i := 0; i < x.Rows; i++ {
				copy(x.Row(i), rows[draw.Uint64()])
			}
			out := make([]float64, x.Rows)
			c.lookup(x, out, &m)
			k := 0
			for i := 0; i < x.Rows; i++ {
				want, hit := ref.get(refKey(x.Row(i)))
				missed := k < len(m.rows) && m.rows[k] == i
				switch {
				case hit == missed:
					t.Fatalf("capacity %d, batch %d, row %d %v: reference hit %v, memo hit %v",
						capacity, batch, i, x.Row(i), hit, !missed)
				case hit && math.Float64bits(out[i]) != math.Float64bits(want):
					t.Fatalf("capacity %d, batch %d, row %d: memo score %v, reference %v",
						capacity, batch, i, out[i], want)
				case hit:
					hits++
				default:
					k++
				}
			}
			if k != len(m.rows) {
				t.Fatalf("capacity %d, batch %d: %d misses recorded, reference missed %d", capacity, batch, len(m.rows), k)
			}
			// Fresh scores, so a stale or misplaced slot would show.
			scores := make([]float64, len(m.rows))
			for k, i := range m.rows {
				stored++
				scores[k] = float64(stored)
				ref.put(refKey(x.Row(i)), scores[k])
			}
			c.store(x, &m, scores)
			if c.len() != ref.ll.Len() {
				t.Fatalf("capacity %d, batch %d: memo holds %d, reference %d", capacity, batch, c.len(), ref.ll.Len())
			}
		}
		if hits == 0 || ref.evictions == 0 {
			t.Fatalf("capacity %d: %d hits and %d evictions; the sequence must exercise both",
				capacity, hits, ref.evictions)
		}
	}

	c := newRowCache(4, dim)
	a, b := []float64{1, 2, 3}, []float64{3, 2, 1}
	memoPut(c, 10, a...)
	c.index[hashRow(b)] = c.index[hashRow(a)] // b's hash now leads to a's slot
	if v, ok := memoGet(c, b...); ok {
		t.Fatalf("a row whose hash leads to another row's slot hit, with that row's score %v", v)
	}
	if v, ok := memoGet(c, a...); !ok || v != 10 {
		t.Fatalf("a = %v, %v; want 10, true", v, ok)
	}
}
