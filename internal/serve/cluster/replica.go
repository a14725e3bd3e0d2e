package cluster

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// Replica is one member of the fleet: its base URL, its own client,
// and its health. A replica starts unknown/unhealthy — the first
// successful readiness probe admits it to the serving set. Health
// transitions are counted per replica (cluster.replica.<i>.{up,down})
// so a chaos run's membership churn is visible in the snapshot.
type Replica struct {
	// Index is the replica's stable position in the fleet — its ring
	// identity and metric label.
	Index int
	// Base is the replica's base URL, e.g. "http://127.0.0.1:18081".
	Base string

	c         *client.Client
	downAfter int

	mu          sync.Mutex
	healthy     bool
	consecFails int

	requests  *obs.Counter
	instances *obs.Counter
	failures  *obs.Counter
	ups       *obs.Counter
	downs     *obs.Counter
}

func newReplica(idx int, base string, cfg Config) *Replica {
	scope := obs.Scope(fmt.Sprintf("cluster.replica.%d", idx))
	return &Replica{
		Index: idx,
		Base:  base,
		c: client.New(client.Config{
			BaseURL: base,
			Timeout: cfg.AttemptTimeout,
			Seed:    cfg.Seed + int64(idx),
		}),
		downAfter: cfg.DownAfter,
		requests:  scope.Counter("requests"),
		instances: scope.Counter("instances"),
		failures:  scope.Counter("failures"),
		ups:       scope.Counter("up"),
		downs:     scope.Counter("down"),
	}
}

// Healthy reports whether the replica is in the serving set.
func (r *Replica) Healthy() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.healthy
}

// Probe runs one readiness probe and updates health: success marks the
// replica up; failure, whether the replica never answered or answered
// that it is not ready, counts toward DownAfter.
func (r *Replica) Probe(ctx context.Context) error {
	err := r.c.TryReadyz(ctx)
	if err != nil {
		r.noteFailure()
		return err
	}
	r.noteSuccess()
	return nil
}

// predict scores one chunk on this replica, with health bookkeeping.
// A reply from the server — any status — proves the node is alive, so
// only failures where it never answered (StatusCode 0: refused
// connections, timeouts) count toward marking it down; a 429 or a 500
// is an unhealthy answer, not an unreachable host.
func (r *Replica) predict(ctx context.Context, model string, instances [][]float64, priority string) (*serve.PredictResponse, error) {
	r.requests.Inc()
	p, err := r.c.TryPredict(ctx, model, instances, priority)
	if err != nil {
		r.failures.Inc()
		if client.StatusCode(err) == 0 {
			r.noteFailure()
		} else {
			r.noteSuccess()
		}
		return nil, err
	}
	r.noteSuccess()
	r.instances.Add(int64(len(p.Predictions)))
	return p, nil
}

// load hot-loads the artifact bytes data under name on this replica
// through its PUT /models/{name}.
func (r *Replica) load(ctx context.Context, name string, data []byte) (*serve.ModelInfo, error) {
	info, err := r.c.TryLoad(ctx, name, data)
	if err != nil {
		if client.StatusCode(err) == 0 {
			r.noteFailure()
		}
		return nil, err
	}
	r.noteSuccess()
	return info, nil
}

// models lists the replica's registry.
func (r *Replica) models(ctx context.Context) ([]serve.ModelInfo, error) {
	return r.c.TryModels(ctx)
}

func (r *Replica) noteSuccess() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.consecFails = 0
	if !r.healthy {
		r.healthy = true
		r.ups.Inc()
	}
}

func (r *Replica) noteFailure() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.consecFails++
	if r.healthy && r.consecFails >= r.downAfter {
		r.healthy = false
		r.downs.Inc()
	}
}
