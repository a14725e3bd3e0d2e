// Package cluster is the sharded multi-node serving tier over
// internal/serve: the ROADMAP's "millions of users" architecture item.
// A Router fronts a fixed fleet of replica servers (each one an
// ordinary edaserved / serve.Server), maps every model onto a subset of
// the fleet with a consistent-hash ring, gates membership on health,
// and fans prediction batches out across the healthy owners of a model
// — merging the per-replica answers back into one response that is
// bit-identical to single-node serving.
//
// Architecture (net/http only, like everything else in the repo):
//
//   - Consistent-hash sharding (ring.go): each replica projects VNodes
//     virtual points onto a 64-bit ring; a model's owner set is the
//     first Replication distinct replicas clockwise from the hash of
//     its name. Ownership is a pure function of (model name, fleet
//     size, VNodes) — every router instance computes the same owners
//     with no coordination, and adding a replica moves only ~1/N of
//     the models.
//   - Health-gated membership (replica.go): a replica serves traffic
//     only while healthy, and its health is the one record that says
//     so. DownAfter consecutive requests that never reached it, or
//     failed readiness probes, mark it down; any HTTP answer to a
//     request proves it up, so a 429 or a 5xx never takes it out. A
//     successful readiness probe (GET /readyz: the background prober,
//     ProbeAll, Probe, or the probe after each load) is the way back
//     in. Routing never consults an unhealthy replica, so a dead node
//     costs at most DownAfter failed requests fleet-wide before traffic
//     routes around it.
//   - Fan-out and merge (router.go): a predict batch of n instances
//     for a model with k healthy owners is split into k contiguous
//     chunks scored concurrently, one per owner, and the chunk results
//     are merged back in request order. Scoring is row-independent and
//     deterministic, so the merged vector is bit-identical to any
//     single node scoring the whole batch (the testkit DiffPaths
//     cluster lane asserts this for all six persisted kinds).
//   - Admission before routing: the router mounts the same HTTP front
//     as a single node (serve.Front, scope "cluster"), so a predict
//     passes the same gate (method, drain, priority-tiered shedding —
//     low at 50% of MaxInFlight, normal at 90%, high at 100% — and the
//     request deadline) and the same body readers before the ring is
//     consulted. A 429 from a replica is propagated to the caller,
//     never silently retried into a different replica: shedding is a
//     load decision, and rerouting shed traffic would defeat it.
//     Failover across replicas happens only for failures where the
//     server never answered (transport errors) or answered 5xx.
//   - Blue/green rollout: PUT /models/{name} on the router, whose body
//     is the artifact itself, passes the same front checks as on a
//     single node (a body model.Decode refuses reaches no replica),
//     then walks the model's owner replicas in ring order, forwarding
//     the same bytes to each replica's PUT /models/{name}. No replica
//     shares a filesystem with the caller or the router. Each replica
//     swaps atomically and the other owners keep serving, so a version
//     rollout drops zero requests (cluster_smoke.sh and
//     TestClusterRolloutZeroDrops drive this under live traffic).
//   - Chaos: two injection sites (internal/fault). cluster.route fails
//     or stalls the routing step itself; cluster.replica_down
//     partitions the router from one owner for one request. Both are
//     drawn serially in deterministic order, so an entire cluster run
//     — including node-kill, exercised by really closing a replica's
//     listener — is a pure function of one int64 seed
//     (cluster_chaos_e2e_test.go).
//
// The in-process harness (harness.go) boots N real serve.Servers on
// loopback listeners behind one Router in a single process, sharing the
// global obs registry — which is what lets the chaos test assert that
// two same-seed storms produce identical counter snapshots.
package cluster

import (
	"time"
)

// Config tunes the router. The zero value gets sane defaults.
type Config struct {
	// Replication is how many replicas own each model. Clamped to the
	// fleet size. Default 2.
	Replication int
	// VNodes is the number of virtual ring points per replica; more
	// points smooth the shard distribution. Default 64.
	VNodes int
	// MaxInFlight bounds concurrently routed predict requests; excess
	// requests get 429, lowest priority first (same tier slices as a
	// single node). Default 256.
	MaxInFlight int
	// RequestTimeout is the end-to-end deadline for one routed predict
	// request, covering every failover attempt. Zero means the 10s
	// default; negative disables the deadline.
	RequestTimeout time.Duration
	// AttemptTimeout bounds each per-replica attempt. Default 5s.
	AttemptTimeout time.Duration
	// DownAfter is how many consecutive requests that never reached a
	// replica, or failed probes, mark it unhealthy. Default 1: route
	// around a node on the first failure — probes bring it back.
	DownAfter int
	// SpreadMin is the minimum instance count at which a batch is
	// split across the model's healthy owners; smaller batches go
	// whole to the first healthy owner in ring order. Default 8.
	SpreadMin int
	// Seed derives each replica client's jitter stream. The router
	// itself never draws jitter (it fails over instead of retrying in
	// place), but the seed keeps any future in-place retry
	// deterministic.
	Seed int64
}

func (c *Config) defaults() {
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.RequestTimeout < 0 {
		c.RequestTimeout = 0 // negative disables the deadline
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 5 * time.Second
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 1
	}
	if c.SpreadMin <= 0 {
		c.SpreadMin = 8
	}
}
