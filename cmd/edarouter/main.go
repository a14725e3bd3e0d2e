// Command edarouter fronts a fleet of edaserved replicas with the
// sharded cluster router (internal/serve/cluster): consistent-hash
// model→shard routing with replication, health-gated membership fed by
// background readiness probes, batch fan-out across healthy owners,
// and blue/green rollout: PUT /models/{name} checks the artifact in the
// body as a single node would, then forwards the same bytes to each
// owner's PUT /models/{name} in ring order, so the router and the
// replicas share no filesystem. Its HTTP front (wire types,
// priority-tiered admission, deadlines, load checks, error replies,
// /healthz and /metrics) is edaserved's own serve.Front.
//
// Usage:
//
//	edarouter -replica http://host1:8080 -replica http://host2:8080 \
//	          [-addr :9090] [-replication 2] [-vnodes 64]
//	          [-max-inflight 256] [-request-timeout 10s]
//	          [-attempt-timeout 5s] [-probe-interval 1s]
//	          [-spread-min 8] [-down-after 1] [-drain-timeout 10s]
//	          [-chaos-seed N] [-chaos-err p] [-chaos-latency-rate p]
//	          [-chaos-latency d]
//
// The router exposes the same HTTP surface as a single edaserved, so
// existing clients point at it unchanged. On SIGTERM/SIGINT it flips
// /readyz to 503, finishes in-flight requests within -drain-timeout,
// and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/serve/cluster"
)

// replicaList collects repeated -replica flags.
type replicaList []string

func (r *replicaList) String() string     { return strings.Join(*r, ",") }
func (r *replicaList) Set(v string) error { *r = append(*r, v); return nil }

var (
	addr          = flag.String("addr", ":9090", "listen address")
	replication   = flag.Int("replication", 2, "replicas owning each model (clamped to fleet size)")
	vnodes        = flag.Int("vnodes", 64, "virtual ring points per replica")
	maxInflight   = flag.Int("max-inflight", 256, "concurrent routed predict requests before 429 backpressure")
	reqTimeout    = flag.Duration("request-timeout", 10*time.Second, "end-to-end deadline per routed request, all failovers included (negative disables)")
	attTimeout    = flag.Duration("attempt-timeout", 5*time.Second, "per-replica attempt deadline")
	probeInterval = flag.Duration("probe-interval", time.Second, "background readiness probe period")
	spreadMin     = flag.Int("spread-min", 8, "minimum batch size to fan out across owners")
	downAfter     = flag.Int("down-after", 1, "consecutive failures before a replica leaves the serving set")
	drainTimeout  = flag.Duration("drain-timeout", 10*time.Second, "deadline for in-flight requests during shutdown")
	version       = flag.Bool("version", false, "print the build revision and exit")

	// Chaos flags (see internal/fault): any nonzero rate activates a
	// deterministic fault plan over the cluster routing sites. The same
	// -chaos-seed replays the identical fault sequence.
	chaosSeed        = flag.Int64("chaos-seed", 1, "seed for the fault-injection plan")
	chaosErr         = flag.Float64("chaos-err", 0, "injected error rate in [0,1] at each cluster fault site")
	chaosLatencyRate = flag.Float64("chaos-latency-rate", 0, "injected latency rate in [0,1] at each cluster fault site")
	chaosLatency     = flag.Duration("chaos-latency", 5*time.Millisecond, "injected latency magnitude")
)

// activateChaos installs the fault plan the chaos flags describe, if any
// rate is nonzero. Returns the active site names (nil when clean).
func activateChaos() []string {
	if *chaosErr <= 0 && *chaosLatencyRate <= 0 {
		return nil
	}
	fault.Activate(fault.Uniform(*chaosSeed, fault.SiteConfig{
		ErrRate:     *chaosErr,
		LatencyRate: *chaosLatencyRate,
		Latency:     *chaosLatency,
	}, fault.ClusterSites()...))
	return fault.ActiveSites()
}

func main() {
	var replicas replicaList
	flag.Var(&replicas, "replica", "replica base URL, e.g. http://127.0.0.1:8080; repeatable")
	flag.Parse()
	if *version {
		rev, modified := obs.BuildRevision()
		if modified {
			rev += "-dirty"
		}
		fmt.Printf("edarouter %s\n", rev)
		return
	}
	if len(replicas) == 0 {
		fatal(fmt.Errorf("no replicas: pass at least one -replica URL"))
	}
	if sites := activateChaos(); sites != nil {
		fmt.Printf("edarouter: CHAOS PLAN ACTIVE (seed %d) at sites: %s\n",
			*chaosSeed, strings.Join(sites, ", "))
	}

	rt := cluster.NewRouter(cluster.Config{
		Replication:    *replication,
		VNodes:         *vnodes,
		MaxInFlight:    *maxInflight,
		RequestTimeout: *reqTimeout,
		AttemptTimeout: *attTimeout,
		SpreadMin:      *spreadMin,
		DownAfter:      *downAfter,
		Seed:           *chaosSeed,
	}, replicas)
	defer rt.Close()

	// Admit whoever is already up, then keep probing in the background.
	bootCtx, bootCancel := context.WithTimeout(context.Background(), *attTimeout)
	healthy := rt.ProbeAll(bootCtx)
	bootCancel()
	fmt.Printf("edarouter: fronting %d replica(s), %d healthy at boot (replication %d)\n",
		len(replicas), healthy, *replication)
	rt.StartProbing(*probeInterval)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Graceful drain: first signal flips readiness and stops accepting;
	// in-flight requests get -drain-timeout to finish.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("edarouter: listening on %s\n", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Println("edarouter: draining...")
	rt.StartDraining()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "edarouter: drain deadline exceeded:", err)
		httpSrv.Close() //nolint:errcheck — already exiting
	}
	rt.Close()
	fmt.Println("edarouter: drained, exiting")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "edarouter:", err)
	os.Exit(1)
}
