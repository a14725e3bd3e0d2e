// Package stream is the paper's knowledge-discovery loop (Sections 1
// and 5) run *online*: generate candidates, score their novelty against
// the current one-class model, simulate only the selected few, fold
// them into a sliding training window, and retrain incrementally —
// warm-starting the SMO solve from the previous dual weights over a
// Gram matrix whose new rows kernel.SlidingGram fills as one block at
// each refresh — hot-swapping each refreshed model atomically through
// the serving registry. A drift detector on the decision-value stream
// decides when to refresh, instead of a fixed cadence.
//
// Determinism contract: the whole loop is a pure function of one int64
// seed. Candidates are drawn, scored, and selected strictly in stream
// order; all parallelism lives inside the kernel/solver math, which is
// bit-identical at any worker count (internal/parallel). Same seed —
// same selected-test sequence, same swap points, same counters, at 1,
// 2, or 8 workers (asserted by TestLoopDeterminism).
//
// Chaos: fault.SiteStreamIngest drops candidates at intake and
// fault.SiteStreamRetrain aborts refreshes (the previous model keeps
// serving), both deterministically per plan seed, so a chaos replay of
// the loop is reproducible end to end.
package stream

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/svm"
)

// Loop metrics. Everything is incremented serially by the loop
// goroutine, so two runs at one seed produce identical snapshots.
var (
	candidatesSeen     = obs.GetCounter("stream.candidates_seen")
	selectedCount      = obs.GetCounter("stream.selected")
	rejectedCount      = obs.GetCounter("stream.rejected")
	ingestDropped      = obs.GetCounter("stream.ingest_dropped")
	retrainFailures    = obs.GetCounter("stream.retrain_failures")
	swapCount          = obs.GetCounter("stream.swaps")
	driftEventCount    = obs.GetCounter("stream.drift_events")
	warmstartFallbacks = obs.GetCounter("stream.warmstart_fallbacks")
	simCycles          = obs.GetCounter("stream.sim_cycles")
	coverageGain       = obs.GetCounter("stream.coverage_gain")
	refreshLatency     = obs.GetHistogram("stream.refresh_ns")
	driftScoreGauge    = obs.GetGauge("stream.drift_score_e6")
	windowSizeGauge    = obs.GetGauge("stream.window_size")
)

// Config wires one streaming run.
type Config struct {
	// Seed is the single seed the whole trajectory derives from. It is
	// recorded in every published artifact's envelope.
	Seed int64
	// Source produces candidates and simulates the selected ones.
	// Required; build one with NewSource.
	Source Source
	// Candidates is how many candidates to examine, default 512.
	Candidates int
	// Warmup: until the window holds this many selected samples, every
	// candidate is selected (there is no model to filter with yet).
	// Default 32, clamped to Window.
	Warmup int
	// Window is the sliding training-window capacity, default 256.
	Window int
	// Nu is the one-class outlier fraction, default 0.1.
	Nu float64
	// Kernel defaults to RBF with gamma = 1/dim. Must be persistable
	// (model.SpecOf) when Publish is set.
	Kernel kernel.Kernel
	// MinRefit is the minimum number of newly selected samples since
	// the last refresh before a drift signal may trigger one, default 8.
	MinRefit int
	// RefreshMax forces a refresh after this many selected samples
	// without one — the safety cadence under a quiet detector. Default
	// 64; negative disables it.
	RefreshMax int
	// Drift decides when to refresh; default two-sided Page–Hinkley
	// with standard thresholds.
	Drift Detector
	// ModelName is the registry name refreshed models are published
	// under, default "stream-oneclass".
	ModelName string
	// Publish, when set, receives every refreshed model's artifact.
	// Loading it into a serve.Server is the zero-dropped-requests
	// hot-swap path; cmd/edaloop also writes artifact files and pushes
	// them to a remote edaserved.
	Publish func(*model.Artifact) error
}

func (cfg *Config) normalize() error {
	if cfg.Source == nil {
		return errors.New("stream: Config.Source is required")
	}
	if cfg.Candidates <= 0 {
		cfg.Candidates = 512
	}
	if cfg.Window <= 0 {
		cfg.Window = 256
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 32
	}
	if cfg.Warmup > cfg.Window {
		cfg.Warmup = cfg.Window
	}
	if cfg.MinRefit <= 0 {
		cfg.MinRefit = 8
	}
	if cfg.RefreshMax == 0 {
		cfg.RefreshMax = 64
	}
	if cfg.Drift == nil {
		cfg.Drift = NewPageHinkley(0, 0, 0)
	}
	if cfg.ModelName == "" {
		cfg.ModelName = "stream-oneclass"
	}
	if cfg.Kernel == nil {
		cfg.Kernel = kernel.RBF{Gamma: 1.0 / float64(cfg.Source.Dim())}
	}
	return nil
}

// Refresh records one model swap: where in the stream it happened and
// how the solve went.
type Refresh struct {
	Candidate int    `json:"candidate"` // stream position that triggered it
	Window    int    `json:"window"`    // window size trained on
	Reason    string `json:"reason"`    // "warmup" | "drift" | "cadence"
	Warm      bool   `json:"warm"`      // warm start used and kept
	Fallback  bool   `json:"fallback"`  // warm start failed; cold refit served
	Iters     int    `json:"iters"`     // solver iterations of the kept solve
}

// Result is the loop's trajectory — the reproducible record a seed
// maps to. SelectedSeq and Refreshes are the "same selected-test
// sequence, same swap points" half of the determinism contract;
// the counters mirror the obs deltas.
type Result struct {
	Seed        int64     `json:"seed"`
	Source      string    `json:"source"`
	Examined    int       `json:"examined"`
	Selected    int       `json:"selected"`
	Rejected    int       `json:"rejected"`
	Dropped     int       `json:"dropped"`        // candidates lost to injected ingest faults
	RetrainErr  int       `json:"retrain_errors"` // refreshes lost to injected retrain faults
	Fallbacks   int       `json:"warmstart_fallbacks"`
	DriftEvents int       `json:"drift_events"`
	SimCycles   int64     `json:"sim_cycles"`
	Gain        int       `json:"gain"` // coverage bins / latent defects found
	SelectedSeq []int     `json:"selected_seq"`
	Refreshes   []Refresh `json:"refreshes"`
	Drained     bool      `json:"drained"` // loop stopped early on context cancellation

	// FinalModel is the last model swapped in (nil if the loop never
	// completed a refresh).
	FinalModel *svm.OneClass `json:"-"`
}

// Swaps returns the number of completed refreshes.
func (r *Result) Swaps() int { return len(r.Refreshes) }

// Summary renders the Table-1-style iterative economics: how much of
// the stream was simulated, what it cost, and what it found.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stream[%s] seed=%d: examined %d, selected %d (%.1f%%), rejected %d, dropped %d\n",
		r.Source, r.Seed, r.Examined, r.Selected,
		100*float64(r.Selected)/float64(max(r.Examined, 1)), r.Rejected, r.Dropped)
	saved := int64(0)
	if r.Selected > 0 {
		perSim := r.SimCycles / int64(r.Selected)
		saved = perSim * int64(r.Rejected)
	}
	fmt.Fprintf(&b, "  sim cycles spent %d, est. cycles saved by filtering %d, gain %d\n",
		r.SimCycles, saved, r.Gain)
	fmt.Fprintf(&b, "  swaps %d, drift events %d, warm-start fallbacks %d, retrain errors %d\n",
		r.Swaps(), r.DriftEvents, r.Fallbacks, r.RetrainErr)
	for _, rf := range r.Refreshes {
		mode := "cold"
		if rf.Warm {
			mode = "warm"
		}
		if rf.Fallback {
			mode = "fallback"
		}
		fmt.Fprintf(&b, "  swap @%-6d window=%-4d reason=%-7s %s (%d iters)\n",
			rf.Candidate, rf.Window, rf.Reason, mode, rf.Iters)
	}
	return b.String()
}

// Loop is one streaming run in progress. Construct with New, drive with
// Run; Snapshot is safe to call concurrently with Run (cmd/edaloop's
// /loop/status endpoint does).
type Loop struct {
	cfg     Config
	trainer *Trainer

	mu     chan struct{} // 1-token semaphore guarding res for Snapshot
	res    Result
	active *svm.OneClass
}

// New validates the config and prepares a loop.
func New(cfg Config) (*Loop, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	tr, err := NewTrainer(TrainerConfig{
		Window: cfg.Window, Dim: cfg.Source.Dim(), Nu: cfg.Nu, Kernel: cfg.Kernel,
	})
	if err != nil {
		return nil, err
	}
	l := &Loop{
		cfg:     cfg,
		trainer: tr,
		mu:      make(chan struct{}, 1),
	}
	l.res = Result{Seed: cfg.Seed, Source: cfg.Source.Name()}
	return l, nil
}

func (l *Loop) lock() func() {
	l.mu <- struct{}{}
	return func() { <-l.mu }
}

// Snapshot returns a copy of the trajectory so far.
func (l *Loop) Snapshot() Result {
	defer l.lock()()
	r := l.res
	r.SelectedSeq = append([]int(nil), l.res.SelectedSeq...)
	r.Refreshes = append([]Refresh(nil), l.res.Refreshes...)
	return r
}

// Run drives the loop to completion (or context cancellation, which is
// a graceful drain: the partial trajectory is returned with Drained
// set, not an error). Run must be called once.
func (l *Loop) Run(ctx context.Context) (*Result, error) {
	cfg := &l.cfg
	selectedSince := 0 // selected samples since the last completed refresh
	driftPending := false

	for seq := 0; seq < cfg.Candidates; seq++ {
		if ctx.Err() != nil {
			l.setDrained()
			break
		}
		c := cfg.Source.Next()
		candidatesSeen.Inc()
		l.bump(func(r *Result) { r.Examined++ })

		// Intake chaos: an injected error drops the candidate before it
		// is scored or simulated; an injected delay stalls the intake.
		if o := fault.Check(fault.SiteStreamIngest); o.Err != nil || o.Delay > 0 {
			if err := o.Wait(ctx); err != nil {
				l.setDrained()
				break
			}
			if o.Err != nil {
				ingestDropped.Inc()
				l.bump(func(r *Result) { r.Dropped++ })
				continue
			}
		}

		novel := true
		if l.active != nil {
			score := l.active.Decision(c.Features)
			if cfg.Drift.Observe(score) && !driftPending {
				driftPending = true
				driftEventCount.Inc()
				l.bump(func(r *Result) { r.DriftEvents++ })
			}
			driftScoreGauge.Set(int64(cfg.Drift.Score() * 1e6))
			novel = score < 0
		}

		if novel {
			sim := cfg.Source.Simulate(c)
			simCycles.Add(sim.Cycles)
			coverageGain.Add(int64(sim.Gain))
			l.trainer.Add(c.Features)
			windowSizeGauge.Set(int64(l.trainer.Len()))
			selectedCount.Inc()
			selectedSince++
			l.bump(func(r *Result) {
				r.Selected++
				r.SimCycles += sim.Cycles
				r.Gain += sim.Gain
				r.SelectedSeq = append(r.SelectedSeq, c.Seq)
			})
		} else {
			rejectedCount.Inc()
			l.bump(func(r *Result) { r.Rejected++ })
		}

		// Refresh policy, evaluated strictly after the candidate is
		// handled so the trajectory stays serial and replayable.
		reason := ""
		switch {
		case l.active == nil && l.trainer.Len() >= cfg.Warmup:
			reason = "warmup"
		case l.active != nil && driftPending && selectedSince >= cfg.MinRefit:
			reason = "drift"
		case l.active != nil && cfg.RefreshMax > 0 && selectedSince >= cfg.RefreshMax:
			reason = "cadence"
		}
		if reason == "" {
			continue
		}
		ok, err := l.refresh(ctx, c.Seq, reason)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				l.setDrained()
				break
			}
			return l.result(), err
		}
		if ok {
			selectedSince = 0
			driftPending = false
			cfg.Drift.Reset()
		}
	}
	return l.result(), nil
}

// refresh retrains on the current window and swaps the new model in.
// Returns false (with nil error) when the refresh was aborted by an
// injected retrain fault — the previous model keeps serving.
func (l *Loop) refresh(ctx context.Context, at int, reason string) (bool, error) {
	if o := fault.Check(fault.SiteStreamRetrain); o.Err != nil || o.Delay > 0 {
		if err := o.Wait(ctx); err != nil {
			return false, err
		}
		if o.Err != nil {
			retrainFailures.Inc()
			l.bump(func(r *Result) { r.RetrainErr++ })
			return false, nil
		}
	}
	t := refreshLatency.Start()
	m, info, fellBack, err := l.trainer.Refresh()
	t.Stop()
	if err != nil {
		return false, err
	}
	if err := l.publish(m); err != nil {
		return false, err
	}
	l.active = m
	swapCount.Inc()
	if fellBack {
		l.bump(func(r *Result) { r.Fallbacks++ })
	}
	l.bump(func(r *Result) {
		r.FinalModel = m
		r.Refreshes = append(r.Refreshes, Refresh{
			Candidate: at, Window: l.trainer.Len(), Reason: reason,
			Warm: info.WarmStart, Fallback: fellBack, Iters: info.Iters,
		})
	})
	return true, nil
}

// publish hands the refreshed model's artifact to the publish hook.
func (l *Loop) publish(m *svm.OneClass) error {
	cfg := &l.cfg
	if cfg.Publish == nil {
		return nil
	}
	a, err := model.Encode(m, model.Meta{Name: cfg.ModelName, Seed: cfg.Seed})
	if err != nil {
		return fmt.Errorf("stream: encode refreshed model: %w", err)
	}
	if err := cfg.Publish(a); err != nil {
		return fmt.Errorf("stream: publish %q: %w", cfg.ModelName, err)
	}
	return nil
}

func (l *Loop) bump(f func(*Result)) {
	defer l.lock()()
	f(&l.res)
}

func (l *Loop) setDrained() {
	l.bump(func(r *Result) { r.Drained = true })
}

func (l *Loop) result() *Result {
	defer l.lock()()
	r := l.res
	return &r
}

// Run is the one-call convenience: build the loop and drive it.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	l, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return l.Run(ctx)
}
