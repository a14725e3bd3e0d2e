// Command edaserved serves predictions from versioned model artifacts
// (see internal/model) over HTTP with micro-batching, a per-model score
// memo for repeated inputs, bounded in-flight concurrency, and graceful
// drain (see internal/serve).
//
// Usage:
//
//	edaserved [-addr :8080] [-model file]... [-model-dir dir]
//	          [-max-batch N] [-max-wait d] [-max-inflight N]
//	          [-cache-rows N] [-workers N] [-drain-timeout d]
//	          [-request-timeout d] [-chaos-seed N] [-chaos-err p]
//	          [-chaos-latency-rate p] [-chaos-latency d] [-chaos-corrupt p]
//
// Each model's batcher scores the rows already queued, up to -max-batch,
// as soon as it is free, so no batch waits for more rows. -max-wait is
// accepted and ignored.
//
// Train artifacts with `edamine -save-model DIR models`, then:
//
//	edaserved -model-dir DIR
//	curl -s localhost:8080/readyz
//	curl -s -X POST localhost:8080/predict/zoo-ridge \
//	     -d '{"instances": [[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]]}'
//
// On SIGTERM/SIGINT the server flips /readyz to 503, finishes in-flight
// requests within -drain-timeout, drains the batch queues, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/serve"
)

// modelList collects repeated -model flags.
type modelList []string

func (m *modelList) String() string     { return strings.Join(*m, ",") }
func (m *modelList) Set(v string) error { *m = append(*m, v); return nil }

var (
	addr         = flag.String("addr", ":8080", "listen address")
	modelDir     = flag.String("model-dir", "", "load every *.model.json artifact in this directory at boot")
	maxBatch     = flag.Int("max-batch", 16, "most rows scored in one call per model (1 disables batching)")
	maxWait      = flag.Duration("max-wait", 2*time.Millisecond, "ignored: batches never wait for more rows (deprecated)")
	maxInflight  = flag.Int("max-inflight", 256, "concurrent predict requests before 429 backpressure")
	cacheRows    = flag.Int("cache-rows", 1024, "score-memo capacity (input rows) per exact kernel model (0 disables)")
	workers      = flag.Int("workers", 0, "worker goroutines for the compute pool (0 = REPRO_WORKERS env or GOMAXPROCS)")
	drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "deadline for in-flight requests during shutdown")
	reqTimeout   = flag.Duration("request-timeout", 10*time.Second, "per-request deadline for predict (0 disables)")
	version      = flag.Bool("version", false, "print the build revision and exit")

	// Chaos flags (see internal/fault): any nonzero rate activates a
	// deterministic fault plan over the serving-path sites. The same
	// -chaos-seed replays the identical fault sequence.
	chaosSeed        = flag.Int64("chaos-seed", 1, "seed for the fault-injection plan")
	chaosErr         = flag.Float64("chaos-err", 0, "injected error rate in [0,1] at each serving-path fault site")
	chaosLatencyRate = flag.Float64("chaos-latency-rate", 0, "injected latency rate in [0,1] at each serving-path fault site")
	chaosLatency     = flag.Duration("chaos-latency", 5*time.Millisecond, "injected latency magnitude")
	chaosCorrupt     = flag.Float64("chaos-corrupt", 0, "injected payload-corruption rate in [0,1]")
)

// activateChaos installs the fault plan the chaos flags describe, if any
// rate is nonzero. Returns the active site names (nil when clean).
func activateChaos() []string {
	if *chaosErr <= 0 && *chaosLatencyRate <= 0 && *chaosCorrupt <= 0 {
		return nil
	}
	fault.Activate(fault.Uniform(*chaosSeed, fault.SiteConfig{
		ErrRate:     *chaosErr,
		LatencyRate: *chaosLatencyRate,
		Latency:     *chaosLatency,
		CorruptRate: *chaosCorrupt,
	}, fault.ServeSites()...))
	return fault.ActiveSites()
}

func main() {
	var models modelList
	flag.Var(&models, "model", "artifact file to load at boot; repeatable, optionally NAME=PATH")
	flag.Parse()
	if *version {
		rev, modified := obs.BuildRevision()
		if modified {
			rev += "-dirty"
		}
		fmt.Printf("edaserved %s\n", rev)
		return
	}
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}
	if sites := activateChaos(); sites != nil {
		fmt.Printf("edaserved: CHAOS PLAN ACTIVE (seed %d) at sites: %s\n",
			*chaosSeed, strings.Join(sites, ", "))
	}

	srv := serve.New(serve.Config{
		MaxBatch:       *maxBatch,
		MaxWait:        *maxWait,
		MaxInFlight:    *maxInflight,
		CacheRows:      *cacheRows,
		RequestTimeout: *reqTimeout,
		DrainTimeout:   *drainTimeout,
	})
	defer srv.Close()

	if err := loadModels(srv, models, *modelDir); err != nil {
		fatal(err)
	}
	if names := srv.Models(); len(names) > 0 {
		fmt.Printf("edaserved: serving %d model(s): %s\n", len(names), strings.Join(names, ", "))
	} else {
		fmt.Println("edaserved: no models loaded; /readyz stays 503 until PUT /models/{name}")
	}

	// Bind before printing, so the line names the bound address (with
	// -addr 127.0.0.1:0, the free port the system chose).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	// Graceful drain: first signal flips readiness and stops accepting;
	// in-flight requests get -drain-timeout to finish.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errc := make(chan error, 1)
	fmt.Printf("edaserved: listening on %s\n", ln.Addr())
	go func() {
		errc <- httpSrv.Serve(ln)
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	fmt.Println("edaserved: draining...")
	srv.StartDraining()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "edaserved: drain deadline exceeded:", err)
		httpSrv.Close() //nolint:errcheck — already exiting
	}
	srv.Close()
	fmt.Println("edaserved: drained, exiting")
}

// loadModels registers every -model flag and every artifact in -model-dir.
func loadModels(srv *serve.Server, models modelList, dir string) error {
	for _, spec := range models {
		name, path := "", spec
		if i := strings.IndexByte(spec, '='); i >= 0 {
			name, path = spec[:i], spec[i+1:]
		}
		a, err := model.Load(path)
		if err == nil {
			err = srv.Load(name, a)
		}
		if err != nil {
			return err
		}
		if name == "" {
			name = a.Envelope.Name
		}
		fmt.Printf("edaserved: loaded %s (%s) from %s\n", name, a.Envelope.Kind, path)
	}
	if dir == "" {
		return nil
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.model.json"))
	if err != nil {
		return err
	}
	if len(paths) == 0 && len(models) == 0 {
		return errors.New("edaserved: no artifacts found in " + dir)
	}
	sort.Strings(paths)
	for _, path := range paths {
		a, err := model.Load(path)
		if err == nil {
			err = srv.Load("", a)
		}
		if err != nil {
			return err
		}
		fmt.Printf("edaserved: loaded %s (%s) from %s\n", a.Envelope.Name, a.Envelope.Kind, path)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "edaserved:", err)
	os.Exit(1)
}
