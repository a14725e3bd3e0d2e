// Command edaloop runs the online knowledge-discovery loop (see
// internal/stream): generate candidates, score their novelty against
// the live one-class model, simulate only the selected few, retrain
// incrementally on a sliding window (warm-started SMO over a Gram
// matrix whose new rows fill as one block per refresh), and hot-swap
// each refreshed model atomically into the embedded serving registry —
// and, optionally, push it to a remote edaserved. A Page–Hinkley
// detector on the decision stream triggers refreshes when the candidate
// distribution drifts.
//
// Usage:
//
//	edaloop [-seed 42] [-source isa|mfgtest] [-candidates 512]
//	        [-window 256] [-warmup 32] [-nu 0.1] [-shift-at N]
//	        [-min-refit 8] [-refresh-max 64] [-drift-lambda 0.5]
//	        [-addr :8090] [-artifact-dir DIR] [-push-url URL]
//	        [-model-name stream-oneclass] [-workers N] [-json]
//	        [-chaos-seed N] [-chaos-err p] [-chaos-latency-rate p]
//	        [-chaos-latency d]
//
// The whole trajectory is a pure function of -seed: same seed, same
// selected-test sequence, same swap points, same counters (at any
// -workers). -shift-at plants a distribution shift at that stream
// position so a drift-triggered refresh is guaranteed — the lever
// TestBinaryLoop pulls. Chaos flags inject deterministic faults at the
// stream.ingest and stream.retrain sites; the same -chaos-seed replays
// the identical fault sequence.
//
// With -addr the refreshed model is served over HTTP while the loop
// runs (plus GET /loop/status for the live trajectory); with
// -artifact-dir each refresh is also written to disk; with -push-url it
// is sent, as the artifact's own bytes, to the PUT /models/{name} of a
// remote edaserved or edarouter, which needs no filesystem in common
// with the loop. On SIGTERM/SIGINT the loop drains gracefully: it stops
// at the next candidate boundary, prints the trajectory summary, and
// exits 0.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/stream"
)

var (
	seed       = flag.Int64("seed", 42, "seed for the whole trajectory (generator, selection, swaps)")
	sourceName = flag.String("source", "isa", "candidate source: isa (novel test selection) or mfgtest (customer returns)")
	candidates = flag.Int("candidates", 512, "how many candidates to examine")
	window     = flag.Int("window", 256, "sliding training-window capacity")
	warmup     = flag.Int("warmup", 32, "selected samples before the first model is trained")
	nu         = flag.Float64("nu", 0.1, "one-class outlier fraction")
	shiftAt    = flag.Int("shift-at", 0, "plant a distribution shift at this stream position (0 disables)")
	minRefit   = flag.Int("min-refit", 8, "selected samples required between refreshes")
	refreshMax = flag.Int("refresh-max", 64, "force a refresh after this many selected samples (negative disables)")
	driftLam   = flag.Float64("drift-lambda", 0.5, "Page-Hinkley detection threshold")
	driftDelta = flag.Float64("drift-delta", 0.005, "Page-Hinkley magnitude tolerance")
	modelName  = flag.String("model-name", "stream-oneclass", "registry name refreshed models are published under")

	addr        = flag.String("addr", "", "serve the refreshed model over HTTP at this address while the loop runs")
	artifactDir = flag.String("artifact-dir", "", "also write each refreshed model artifact into this directory")
	pushURL     = flag.String("push-url", "", "send each refreshed artifact to PUT /models/{name} of the edaserved or edarouter at this URL")
	jsonOut     = flag.Bool("json", false, "print the final trajectory as JSON instead of the summary")
	workers     = flag.Int("workers", 0, "worker goroutines for the compute pool (0 = REPRO_WORKERS env or GOMAXPROCS)")
	drainWait   = flag.Duration("drain-timeout", 10*time.Second, "deadline for the embedded server's drain on shutdown")
	version     = flag.Bool("version", false, "print the build revision and exit")

	// Chaos flags (see internal/fault): any nonzero rate activates a
	// deterministic fault plan over the streaming-loop sites. The same
	// -chaos-seed replays the identical drop/abort sequence.
	chaosSeed        = flag.Int64("chaos-seed", 1, "seed for the fault-injection plan")
	chaosErr         = flag.Float64("chaos-err", 0, "injected error rate in [0,1] at each stream fault site")
	chaosLatencyRate = flag.Float64("chaos-latency-rate", 0, "injected latency rate in [0,1] at each stream fault site")
	chaosLatency     = flag.Duration("chaos-latency", 5*time.Millisecond, "injected latency magnitude")
)

func main() {
	flag.Parse()
	if *version {
		rev, modified := obs.BuildRevision()
		if modified {
			rev += "-dirty"
		}
		fmt.Printf("edaloop %s\n", rev)
		return
	}
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}
	if *chaosErr > 0 || *chaosLatencyRate > 0 {
		fault.Activate(fault.Uniform(*chaosSeed, fault.SiteConfig{
			ErrRate:     *chaosErr,
			LatencyRate: *chaosLatencyRate,
			Latency:     *chaosLatency,
		}, fault.StreamSites()...))
		fmt.Printf("edaloop: CHAOS PLAN ACTIVE (seed %d) at sites: %s\n",
			*chaosSeed, strings.Join(fault.ActiveSites(), ", "))
	}

	src, err := stream.NewSource(*sourceName, *seed, *shiftAt)
	if err != nil {
		fatal(err)
	}
	cfg := stream.Config{
		Seed:       *seed,
		Source:     src,
		Candidates: *candidates,
		Warmup:     *warmup,
		Window:     *window,
		Nu:         *nu,
		MinRefit:   *minRefit,
		RefreshMax: *refreshMax,
		Drift:      stream.NewPageHinkley(*driftDelta, *driftLam, 0),
		ModelName:  *modelName,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// Embedded registry: the refreshed model serves over HTTP while the
	// loop runs, swap by swap, with zero dropped requests.
	var registry *serve.Server
	var httpSrv *http.Server
	if *addr != "" {
		registry = serve.New(serve.Config{DrainTimeout: *drainWait})
	}

	cfg.Publish = publisher(registry)

	loop, err := stream.New(cfg)
	if err != nil {
		fatal(err)
	}

	if registry != nil {
		mux := http.NewServeMux()
		mux.Handle("/", registry.Handler())
		mux.HandleFunc("/loop/status", func(w http.ResponseWriter, _ *http.Request) {
			snap := loop.Snapshot()
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(&snap) //nolint:errcheck — best-effort status
		})
		// Bind before printing, so the line names the bound address
		// (with -addr 127.0.0.1:0, the free port the system chose).
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			fatal(err)
		}
		httpSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		fmt.Printf("edaloop: serving %q on %s (status at /loop/status)\n", *modelName, ln.Addr())
		go func() {
			if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "edaloop: serve:", err)
				os.Exit(1)
			}
		}()
	}

	fmt.Printf("edaloop: seed=%d source=%s candidates=%d window=%d shift-at=%d\n",
		*seed, *sourceName, *candidates, *window, *shiftAt)
	res, err := loop.Run(ctx)
	if err != nil {
		fatal(err)
	}

	if *jsonOut {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
	} else {
		fmt.Print(res.Summary())
	}

	// Drain: stop accepting, finish in-flight requests, then exit 0 —
	// whether the loop completed or a signal cut it short.
	if httpSrv != nil {
		registry.StartDraining()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "edaloop: drain deadline exceeded:", err)
			httpSrv.Close() //nolint:errcheck — already exiting
		}
		registry.Close()
	}
	if res.Drained {
		fmt.Println("edaloop: drained, exiting")
	} else {
		fmt.Println("edaloop: done, exiting")
	}
}

// publisher builds the per-refresh hook: hot-swap the artifact into the
// embedded registry (when serving with -addr), write it under
// -artifact-dir (atomic temp-file + rename, versioned by swap), and
// send its bytes to the remote at -push-url. Returns nil when there is
// nowhere to publish.
func publisher(registry *serve.Server) func(*model.Artifact) error {
	if registry == nil && *artifactDir == "" && *pushURL == "" {
		return nil
	}
	if *artifactDir != "" {
		if err := os.MkdirAll(*artifactDir, 0o755); err != nil {
			fatal(err)
		}
	}
	var push *client.Client
	if *pushURL != "" {
		push = client.New(client.Config{BaseURL: *pushURL})
	}
	swap := 0
	return func(a *model.Artifact) error {
		swap++
		if registry != nil {
			if err := registry.Load(*modelName, a); err != nil {
				return fmt.Errorf("hot-swap %q: %w", *modelName, err)
			}
		}
		if *artifactDir == "" && push == nil {
			return nil
		}
		data, err := a.Marshal()
		if err != nil {
			return err
		}
		if *artifactDir != "" {
			// The latest artifact lives at a stable path so an operator
			// can boot a server from one file; the rename keeps readers
			// from ever seeing a half-written artifact.
			path := filepath.Join(*artifactDir, fmt.Sprintf("%s.model.json", *modelName))
			tmp := fmt.Sprintf("%s.tmp.%d", path, swap)
			if err := os.WriteFile(tmp, data, 0o644); err != nil {
				return err
			}
			if err := os.Rename(tmp, path); err != nil {
				return err
			}
		}
		if push != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := push.TryLoad(ctx, *modelName, data); err != nil {
				return fmt.Errorf("push swap %d to %s: %w", swap, *pushURL, err)
			}
		}
		fmt.Printf("edaloop: swap %d published (%d bytes)\n", swap, len(data))
		return nil
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "edaloop:", err)
	os.Exit(1)
}
