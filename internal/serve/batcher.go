package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// Micro-batching metrics: how many batches were assembled, their size
// distribution in rows, and how long each row waited in the queue
// before the batch that scored it.
var (
	batchesFormed = obs.GetCounter("serve.batches")
	batchSizeHist = obs.GetHistogram("serve.batch_size")
	queueWaitHist = obs.GetHistogram("serve.queue_wait_ns")
)

// ErrDraining is returned to requests that arrive after the server
// started shutting down.
var ErrDraining = errors.New("serve: server is draining")

// drainGrace is how long closeWithin waits after canceling the batch
// context before abandoning a scorer that ignores cancellation.
const drainGrace = 250 * time.Millisecond

// scoreFunc scores every row of x into out, which has x.Rows entries.
// It must be bit-identical to scoring the rows one at a time (the
// repo-wide determinism contract). The context carries the batch
// deadline: a scorer that can stall (kernel eval under an
// injected-latency chaos plan) must honor it and return the context's
// error instead of a result.
type scoreFunc func(ctx context.Context, x *linalg.Matrix, out []float64) error

// batchRequest is one predict request waiting to be scored: its rows,
// the slice their scores go to, and the channel that reports completion.
type batchRequest struct {
	ctx      context.Context
	x        *linalg.Matrix
	out      []float64
	enqueued time.Time
	done     chan error // buffered; receives nil once every row is scored, or the first error
	next     int        // rows already taken into batches; the batcher goroutine's
}

// segment is the rows [lo, hi) of one request that a batch scores.
type segment struct {
	req    *batchRequest
	lo, hi int
}

// batcher is the micro-batching queue in front of one served model. A
// queue item is one request, however many rows it carries. A single
// goroutine drains the queue: it blocks for the first request, takes
// whatever else is already queued, up to maxBatch rows, scores that
// batch through one scoreFunc call, and reports each request done once
// all its rows are scored. A request with more rows than a batch has
// room for is split over consecutive batches. Batching is load-driven:
// a lone request is scored at once, and requests that arrive while a
// batch is scored form the next one, so kernel/Gram evaluation is
// amortized exactly when requests wait.
//
// A batch drawn from one request is scored in place, as a view of that
// request's rows, straight into its response slice; a batch that spans
// requests is copied into scratch the goroutine reuses.
//
// Batching changes only the grouping of work, never the arithmetic:
// scoreFunc is bit-identical per row regardless of batch composition,
// so a request's answer does not depend on which requests it shares a
// batch with (asserted by TestBatchingDeterminism).
type batcher struct {
	score    scoreFunc
	dim      int
	maxBatch int
	queue    chan *batchRequest

	// baseCtx is the root of every batch's scoring context; cancel is
	// the drain hammer — closeWithin fires it when the queue refuses to
	// empty within the deadline, aborting any context-honoring stall.
	baseCtx context.Context
	cancel  context.CancelFunc

	// mu serializes submit against close: a submit that passed the
	// closed check is guaranteed to finish its enqueue before close()
	// signals the run loop, so every accepted request is answered.
	mu     sync.RWMutex
	closed bool
	stop   chan struct{}
	done   chan struct{}

	// The run goroutine's own state, reused batch after batch.
	carry  *batchRequest // a request whose rows did not all fit the last batch
	batch  []segment
	view   linalg.Matrix // the rows the current batch scores
	buf    []float64     // rows of a batch that spans requests
	scores []float64     // and their scores
}

func newBatcher(score scoreFunc, dim, maxBatch int) *batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	b := &batcher{
		score:    score,
		dim:      dim,
		maxBatch: maxBatch,
		// Room for four full batches of one-row requests (more rows when
		// requests carry several), so a burst that arrives while a batch
		// is scored enqueues without blocking. Past that, submit blocks
		// under the request's context, and the front's in-flight bound
		// caps how many requests can wait there.
		queue:   make(chan *batchRequest, 4*maxBatch),
		baseCtx: ctx,
		cancel:  cancel,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go b.run()
	return b
}

// donePool holds requests' done channels for reuse. The batcher sends
// on a request's channel exactly once, so a caller that has received
// from it may hand it back with releaseDone, and a steady stream of
// requests allocates no channels.
var donePool = sync.Pool{New: func() any { return make(chan error, 1) }}

// releaseDone returns a done channel from submit, already received
// from, to donePool. A caller that gave up waiting must not release it.
func releaseDone(done chan error) { donePool.Put(done) }

// submit enqueues one request, the rows of x, and returns the channel
// that receives nil once every row's score is in out (len(out) ==
// x.Rows), or the first error. x must be dim wide. A canceled/expired
// ctx aborts the enqueue (and, via the batch deadline, bounds the
// scoring the request takes part in).
func (b *batcher) submit(ctx context.Context, x *linalg.Matrix, out []float64) (chan error, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return nil, ErrDraining
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	req := &batchRequest{ctx: ctx, x: x, out: out, enqueued: time.Now(), done: donePool.Get().(chan error)}
	// May block when the queue is full; the run loop keeps consuming
	// until close() is signaled, and close() cannot be signaled while
	// this RLock is held. The ctx arm keeps a full queue from holding a
	// deadlined request hostage.
	select {
	case b.queue <- req:
		return req.done, nil
	case <-ctx.Done():
		releaseDone(req.done)
		return nil, ctx.Err()
	}
}

// run is the batcher goroutine. On shutdown it keeps scoring until the
// queue is empty and the last split request is done, so every accepted
// request gets an answer.
func (b *batcher) run() {
	defer close(b.done)
	for {
		first := b.carry
		if first == nil {
			select {
			case first = <-b.queue:
			case <-b.stop:
				// Drain: score whatever is still queued, then exit.
				select {
				case first = <-b.queue:
				default:
					return
				}
			}
		}
		b.flush(b.gather(first))
	}
}

// gather returns the next batch: the rows of first not yet taken, then
// the requests already queued behind it, up to maxBatch rows. It never
// waits for more; on shutdown the same non-blocking take drains the
// queue. A request whose rows do not all fit is carried: its remaining
// rows open the next batch.
func (b *batcher) gather(first *batchRequest) []segment {
	b.batch, b.carry = b.batch[:0], nil
	n := 0
	for req := first; ; {
		take := min(req.x.Rows-req.next, b.maxBatch-n)
		b.batch = append(b.batch, segment{req: req, lo: req.next, hi: req.next + take})
		req.next += take
		n += take
		if req.next < req.x.Rows {
			b.carry = req
			return b.batch
		}
		if n == b.maxBatch {
			return b.batch
		}
		select {
		case req = <-b.queue:
		default:
			return b.batch
		}
	}
}

// flush scores one batch and reports every request it completes. A
// failed batch reports its error to every request in it, once, and the
// rows of theirs it did not reach are never scored. The scoring context
// descends from the batcher's base context (so a forced drain can abort
// it) and, when every member carries a deadline, expires at the latest
// one — scoring for a batch never outlives the last caller still
// waiting for it.
func (b *batcher) flush(batch []segment) {
	now := time.Now()
	rows := 0
	latest := time.Time{}
	allDeadlined := true
	for _, s := range batch {
		wait := now.Sub(s.req.enqueued)
		for i := s.lo; i < s.hi; i++ {
			queueWaitHist.ObserveDuration(wait)
		}
		rows += s.hi - s.lo
		if d, ok := s.req.ctx.Deadline(); ok {
			if d.After(latest) {
				latest = d
			}
		} else {
			allDeadlined = false
		}
	}
	ctx := b.baseCtx
	if allDeadlined {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(b.baseCtx, latest)
		defer cancel()
	}
	batchesFormed.Inc()
	batchSizeHist.Observe(int64(rows))
	err := b.scoreInto(ctx, batch, rows)
	for _, s := range batch {
		if err != nil {
			s.req.done <- err
		} else if s.hi == s.req.x.Rows {
			s.req.done <- nil
		}
	}
	if err != nil {
		b.carry = nil // answered above; the rest of its rows go unscored
	}
}

// scoreInto scores the batch's rows into their requests' response
// slices: in place when they come from one request, else through the
// goroutine's scratch.
func (b *batcher) scoreInto(ctx context.Context, batch []segment, rows int) error {
	if len(batch) == 1 {
		s := batch[0]
		b.view = linalg.Matrix{Rows: rows, Cols: b.dim, Data: s.req.x.Data[s.lo*b.dim : s.hi*b.dim]}
		return scoreSafely(ctx, b.score, &b.view, s.req.out[s.lo:s.hi])
	}
	b.buf = slices.Grow(b.buf[:0], rows*b.dim)
	b.scores = slices.Grow(b.scores[:0], rows)[:rows]
	for _, s := range batch {
		b.buf = append(b.buf, s.req.x.Data[s.lo*b.dim:s.hi*b.dim]...)
	}
	b.view = linalg.Matrix{Rows: rows, Cols: b.dim, Data: b.buf}
	if err := scoreSafely(ctx, b.score, &b.view, b.scores); err != nil {
		return err
	}
	at := 0
	for _, s := range batch {
		at += copy(s.req.out[s.lo:s.hi], b.scores[at:])
	}
	return nil
}

// scoreSafely converts a scoring panic (e.g. a malformed model) into an
// error so one bad batch cannot take down the serving loop.
func scoreSafely(ctx context.Context, score scoreFunc, x *linalg.Matrix, out []float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: scoring panic: %v", r)
		}
	}()
	return score(ctx, x, out)
}

// close stops accepting new requests, waits for the queue to drain, and
// returns once the batcher goroutine has exited. Safe to call more than
// once. Unbounded — callers with a shutdown deadline use closeWithin.
func (b *batcher) close() {
	b.beginClose()
	<-b.done
}

// closeWithin is close with a deadline: it gives the run loop d to
// drain normally, then cancels the batch context to abort any
// context-honoring stall (injected latency, slow kernel eval), and
// finally — if the scorer ignores cancellation too — abandons the
// goroutine so shutdown always completes. Returns false only on that
// last resort.
func (b *batcher) closeWithin(d time.Duration) bool {
	b.beginClose()
	if d <= 0 {
		<-b.done
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-b.done:
		return true
	case <-timer.C:
	}
	// Deadline passed: abort in-flight scoring through the context.
	b.cancel()
	grace := time.NewTimer(drainGrace)
	defer grace.Stop()
	select {
	case <-b.done:
		return true
	case <-grace.C:
		// A truly stalled scorer (blocked outside the context). The
		// goroutine is abandoned; every queued request already holds a
		// buffered reply channel, so nothing else blocks on it.
		return false
	}
}

func (b *batcher) beginClose() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.stop)
	}
	b.mu.Unlock()
}
