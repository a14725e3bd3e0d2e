package cluster

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// Router metrics. Per-replica counters live on each Replica; the
// serve.Front mints the per-endpoint, panic, deadline and admission
// metrics under the scope "cluster".
var (
	routedRequests  = obs.GetCounter("cluster.requests_routed")
	routedInstances = obs.GetCounter("cluster.instances_routed")
	failovers       = obs.GetCounter("cluster.failovers")
	partitions      = obs.GetCounter("cluster.partitions")
	noHealthy       = obs.GetCounter("cluster.no_healthy_replica")
	rollouts        = obs.GetCounter("cluster.rollouts")
	replicasHealthy = obs.GetGauge("cluster.replicas_healthy")
)

// Router is the cluster front-end: it owns the fleet and the ring, and
// serves the same HTTP surface as a single serve.Server through the
// same serve.Front — a client cannot tell (and must not be able to
// tell, bit for bit) whether it is talking to one node or the fleet.
type Router struct {
	cfg      Config
	replicas []*Replica
	ring     *ring
	front    *serve.Front

	probeMu   sync.Mutex
	probeStop chan struct{}
}

// NewRouter builds a router over the replica base URLs. Replicas start
// unhealthy; probe them (ProbeAll, Replica.Probe, or StartProbing) to
// admit them.
func NewRouter(cfg Config, bases []string) *Router {
	cfg.defaults()
	rt := &Router{
		cfg:   cfg,
		ring:  newRing(len(bases), cfg.VNodes),
		front: serve.NewFront("cluster", cfg.MaxInFlight, cfg.RequestTimeout),
	}
	for i, base := range bases {
		rt.replicas = append(rt.replicas, newReplica(i, strings.TrimSuffix(base, "/"), cfg))
	}
	return rt
}

// Replicas returns the fleet in index order.
func (rt *Router) Replicas() []*Replica { return rt.replicas }

// Owners returns the replica indices owning a model, primary first.
func (rt *Router) Owners(model string) []int {
	return rt.ring.owners(model, rt.cfg.Replication)
}

// ProbeAll probes every replica once, serially in index order, and
// returns how many are healthy. Deterministic harnesses call this
// instead of running the background prober.
func (rt *Router) ProbeAll(ctx context.Context) int {
	n := 0
	for _, r := range rt.replicas {
		r.Probe(ctx) //nolint:errcheck — health is recorded on the replica
		if r.Healthy() {
			n++
		}
	}
	replicasHealthy.Set(int64(n))
	return n
}

// StartProbing launches a background prober that re-probes the fleet
// every interval until StopProbing (or Close). The deterministic
// harness never calls this; cmd/edarouter does.
func (rt *Router) StartProbing(interval time.Duration) {
	rt.probeMu.Lock()
	defer rt.probeMu.Unlock()
	if rt.probeStop != nil {
		return
	}
	stop := make(chan struct{})
	rt.probeStop = stop
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), interval)
				rt.ProbeAll(ctx)
				cancel()
			}
		}
	}()
}

// StopProbing stops the background prober, if running.
func (rt *Router) StopProbing() {
	rt.probeMu.Lock()
	defer rt.probeMu.Unlock()
	if rt.probeStop != nil {
		close(rt.probeStop)
		rt.probeStop = nil
	}
}

// StartDraining flips readiness off; requests already admitted finish.
func (rt *Router) StartDraining() { rt.front.StartDraining() }

// Close stops the prober and drains. Idempotent.
func (rt *Router) Close() {
	rt.StartDraining()
	rt.StopProbing()
}

// Handler returns the router's HTTP mux (see serve.Front.Handler), so
// serve/client works unchanged against the fleet. The router's own
// bodies:
//
//	GET  /readyz           200 while ≥1 replica is healthy and not draining
//	                       (the recorded health; nothing is probed)
//	GET  /models           per-replica registry listing
//	PUT  /models/{name}    blue/green rollout across the model's owners
//	POST /predict/{model}  the whole request to one healthy owner, in ring order
func (rt *Router) Handler() http.Handler {
	return rt.front.Handler(rt.handleReadyz, rt.handleModels, rt.handleLoad, rt.handlePredict)
}

// replicaStatus is one fleet member's health in the /readyz reply.
type replicaStatus struct {
	Replica int    `json:"replica"`
	Base    string `json:"base"`
	Healthy bool   `json:"healthy"`
}

// handleReadyz reports the health already recorded and sends nothing
// over the network: a revived replica rejoins at its next probe, so a
// readiness check never waits on a host that drops packets.
func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	healthy := 0
	statuses := make([]replicaStatus, len(rt.replicas))
	for i, rep := range rt.replicas {
		ok := rep.Healthy()
		if ok {
			healthy++
		}
		statuses[i] = replicaStatus{Replica: rep.Index, Base: rep.Base, Healthy: ok}
	}
	replicasHealthy.Set(int64(healthy))
	status := http.StatusOK
	state := "ready"
	if healthy == 0 {
		status = http.StatusServiceUnavailable
		state = "no healthy replicas"
	}
	serve.WriteJSON(w, status, map[string]any{"status": state, "healthy": healthy, "replicas": statuses})
}

func (rt *Router) handleModels(w http.ResponseWriter, r *http.Request) {
	type replicaModels struct {
		Replica int               `json:"replica"`
		Base    string            `json:"base"`
		Healthy bool              `json:"healthy"`
		Models  []serve.ModelInfo `json:"models,omitempty"`
		Error   string            `json:"error,omitempty"`
	}
	out := make([]replicaModels, len(rt.replicas))
	for i, rep := range rt.replicas {
		rm := replicaModels{Replica: rep.Index, Base: rep.Base, Healthy: rep.Healthy()}
		if rep.Healthy() {
			models, err := rep.models(r.Context())
			if err != nil {
				rm.Error = err.Error()
			} else {
				rm.Models = models
			}
		}
		out[i] = rm
	}
	serve.WriteJSON(w, http.StatusOK, out)
}

// rolloutStep is one owner's outcome in the PUT /models/{name} reply.
type rolloutStep struct {
	Replica  int    `json:"replica"`
	Base     string `json:"base"`
	OK       bool   `json:"ok"`
	Checksum string `json:"payload_sha256,omitempty"`
	Error    string `json:"error,omitempty"`
}

// handleLoad is the blue/green rollout: walk the model's owners in ring
// order, forwarding the artifact bytes the front accepted to one
// replica at a time. Each replica's registry swap is atomic and the
// remaining owners keep serving the old version, so a rollout under
// live traffic drops nothing; a request during the transition gets one
// version or the other, both bit-exact for their artifact. 200 when
// any owner loaded; 502 when none did.
func (rt *Router) handleLoad(w http.ResponseWriter, r *http.Request, name string, _ *model.Artifact, body []byte) {
	owners := rt.Owners(name)
	steps := make([]rolloutStep, 0, len(owners))
	loaded := 0
	for _, oi := range owners {
		rep := rt.replicas[oi]
		step := rolloutStep{Replica: rep.Index, Base: rep.Base}
		info, err := rep.load(r.Context(), name, body)
		if err != nil {
			step.Error = err.Error()
		} else {
			step.OK = true
			step.Checksum = info.Checksum
			loaded++
			// The freshly loaded replica is ready by construction.
			rep.Probe(r.Context()) //nolint:errcheck — health bookkeeping only
		}
		steps = append(steps, step)
	}
	status := http.StatusOK
	if loaded == 0 {
		status = http.StatusBadGateway
	} else {
		rollouts.Inc()
	}
	serve.WriteJSON(w, status, map[string]any{"name": name, "loaded": loaded, "replicas": steps})
}

func (rt *Router) handlePredict(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	// Chaos coverage of the routing step itself: an injected error is a
	// retryable 500 before any replica sees the request; an injected
	// delay stalls routing under the request deadline.
	if o := fault.Check(fault.SiteClusterRoute); o.Err != nil || o.Delay > 0 {
		if werr := o.Wait(ctx); werr != nil {
			rt.front.Deadline(w, werr)
			return
		}
		if o.Err != nil {
			serve.Error(w, http.StatusInternalServerError, o.Err.Error())
			return
		}
	}

	name := strings.TrimPrefix(r.URL.Path, "/predict/")
	body, ok := serve.ReadBody(w, r, serve.MaxRequestBytes)
	if !ok {
		return
	}
	in, ok := serve.DecodePredict(w, body)
	if !ok {
		return
	}

	// Owner set, partition-filtered then health-filtered. The partition
	// site is drawn once per owner in ring order — before any network
	// I/O — so the entire routing decision for a request is a fixed
	// number of deterministic draws.
	owners := rt.Owners(name)
	avail := make([]*Replica, 0, len(owners))
	for _, oi := range owners {
		rep := rt.replicas[oi]
		o := fault.Check(fault.SiteClusterReplicaDown)
		if o.Err != nil {
			partitions.Inc()
			continue
		}
		if o.Delay > 0 {
			if werr := o.Wait(ctx); werr != nil {
				rt.front.Deadline(w, werr)
				return
			}
		}
		if rep.Healthy() {
			avail = append(avail, rep)
		}
	}
	if len(avail) == 0 {
		noHealthy.Inc()
		w.Header().Set("Retry-After", "1")
		serve.Error(w, http.StatusServiceUnavailable,
			fmt.Sprintf("no healthy replica for model %q", name))
		return
	}

	// Route: the whole body, as read and checked above, to the first
	// healthy owner in ring order, failing over through the rest, so
	// every reply comes from one replica and so from one artifact.
	// Failover happens only when the replica never answered (transport
	// error), answered 5xx, or answered a 2xx that does not decode to
	// one prediction per row. A 4xx goes back at once: a 429 must never
	// be silently retried into a different replica, which would convert
	// load-shedding into load-spreading, and any other 4xx is the
	// caller's bug on every replica alike. Replica.predict keeps the
	// health record.
	pri := serve.PriorityOf(r).String()
	var lastErr error
	for i, rep := range avail {
		if i > 0 {
			failovers.Inc()
		}
		p, err := rep.predict(ctx, name, body, in.Len(), pri)
		if err == nil {
			routedRequests.Inc()
			routedInstances.Add(int64(len(p.Predictions)))
			serve.WriteJSON(w, http.StatusOK, serve.PredictResponse{Model: name, Kind: p.Kind, Predictions: p.Predictions})
			return
		}
		if code := client.StatusCode(err); code >= 400 && code < 500 {
			if code == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			rt.front.Fail(w, code, err)
			return
		}
		if ctx.Err() != nil {
			rt.front.Deadline(w, ctx.Err())
			return
		}
		lastErr = err
	}
	rt.front.Fail(w, http.StatusBadGateway, fmt.Errorf("all %d healthy replicas failed: %w", len(avail), lastErr))
}
