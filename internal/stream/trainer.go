package stream

import (
	"errors"

	"repro/internal/core/colmat"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/svm"
)

// Trainer is the incremental retraining half of the loop: a sliding
// window whose Gram matrix is maintained by kernel.SlidingGram (one
// kernel row per append, O(1) eviction) and a warm-started ν-one-class
// solve that resumes from the previous window's dual weights. A refresh
// therefore costs one solve from a near-optimal start instead of an
// O(n²·d) Gram rebuild plus a cold solve — the incremental-vs-cold gap
// BenchmarkIncrementalRefresh measures and scripts/bench_ratchet.sh
// guards.
//
// The solve reads the window through SlidingGram.Col under the
// solver's column contract: K is exactly symmetric, and Col(j) is
// K(·, j) in logical order as at most two slices, split where the
// ring wraps.
//
// Warm-start correctness guard: a warm solve that exits without
// meeting the KKT-gap tolerance is not trusted — the trainer falls
// back to a cold solve on the same window and counts the event under
// stream.warmstart_fallbacks. The conformance suite additionally
// asserts that a converged warm solve agrees with the cold solution's
// decision function within solver tolerance.
type Trainer struct {
	cfg   TrainerConfig
	sg    *kernel.SlidingGram
	prev  []float64 // dual weights aligned to the live window; nil before the first fit
	fits  int
	warm  int
	falls int
}

// TrainerConfig sizes the incremental trainer.
type TrainerConfig struct {
	Window   int           // sliding window capacity, default 256
	Dim      int           // feature dimension, required
	Nu       float64       // expected outlier fraction, default 0.1
	Tol      float64       // solver KKT tolerance, default 1e-4
	MaxIters int           // solver sweep cap, default 200
	Kernel   kernel.Kernel // default RBF with gamma = 1/Dim
}

func (cfg *TrainerConfig) normalize() error {
	if cfg.Dim <= 0 {
		return errors.New("stream: TrainerConfig.Dim must be positive")
	}
	if cfg.Window <= 0 {
		cfg.Window = 256
	}
	if cfg.MaxIters <= 0 {
		// The batch default (200 pair updates) is tuned for small fits;
		// a full window needs room to reach its KKT certificate. The
		// solver stops at the tolerance anyway, so the cap is slack, not
		// cost.
		cfg.MaxIters = 4 * cfg.Window
	}
	if cfg.Kernel == nil {
		cfg.Kernel = kernel.RBF{Gamma: 1.0 / float64(cfg.Dim)}
	}
	return nil
}

// NewTrainer returns an empty incremental trainer.
func NewTrainer(cfg TrainerConfig) (*Trainer, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	return &Trainer{
		cfg: cfg,
		sg:  kernel.NewSlidingGram(cfg.Kernel, cfg.Window, cfg.Dim),
	}, nil
}

// Len returns the live window size.
func (t *Trainer) Len() int { return t.sg.Len() }

// Kernel returns the kernel the window is built with.
func (t *Trainer) Kernel() kernel.Kernel { return t.cfg.Kernel }

// Add appends a selected sample to the window, evicting the oldest when
// full, and keeps the carried dual weights aligned: the evicted row's
// weight is dropped, the newcomer starts at zero (WarmStartAlpha
// redistributes the lost mass at the next refresh).
func (t *Trainer) Add(x []float64) {
	evicted := t.sg.Append(x)
	if t.prev == nil {
		return
	}
	if evicted && len(t.prev) > 0 {
		copy(t.prev, t.prev[1:])
		t.prev = t.prev[:len(t.prev)-1]
	}
	if len(t.prev) < t.sg.Len() {
		t.prev = append(t.prev, 0)
	}
}

// Refresh fits a one-class model on the current window, warm-starting
// from the previous refresh's dual weights when available. The returned
// SolveInfo describes the solve that produced the returned model (so
// after a fallback it is the cold solve's info, with WarmStart false).
// fellBack reports that the warm solve failed to converge and the cold
// path was used instead.
func (t *Trainer) Refresh() (m *svm.OneClass, info svm.SolveInfo, fellBack bool, err error) {
	if t.sg.Len() == 0 {
		return nil, svm.SolveInfo{}, false, errors.New("stream: refresh on an empty window")
	}
	// The window matrix is leased from the columnar arena: the solver
	// copies support-vector rows into the model it returns, so nothing
	// retains the lease past this call and the refresh loop stops paying
	// an O(window·dim) allocation per cycle.
	win := colmat.Get(t.sg.Len(), t.cfg.Dim)
	defer colmat.Put(win)
	t.sg.WindowInto(win)
	cfg := svm.OneClassConfig{Nu: t.cfg.Nu, Tol: t.cfg.Tol, MaxIters: t.cfg.MaxIters}
	m, info, err = svm.FitOneClassPrecomputed(win, t.cfg.Kernel, t.sg.Col, cfg, t.prev)
	if err != nil {
		return nil, svm.SolveInfo{}, false, err
	}
	if info.WarmStart && !info.Converged {
		// The warm start stalled short of the KKT tolerance: retrain
		// cold rather than serve a model without its convergence
		// certificate.
		warmstartFallbacks.Inc()
		t.falls++
		m, info, err = svm.FitOneClassPrecomputed(win, t.cfg.Kernel, t.sg.Col, cfg, nil)
		if err != nil {
			return nil, svm.SolveInfo{}, false, err
		}
		fellBack = true
	}
	if info.WarmStart {
		t.warm++
	}
	t.fits++
	t.prev = info.Alpha
	return m, info, fellBack, nil
}

// WindowStats summarizes a FitWindow replay.
type WindowStats struct {
	Rows        int // samples streamed through the window
	Refreshes   int // fits performed
	WarmStarts  int // refreshes that used (and kept) a warm start
	Fallbacks   int // warm starts that failed to converge and refit cold
	FinalWindow int // live window size at the final fit
}

// FitWindow replays the rows of x through the incremental trainer —
// sliding window with eviction, a warm-started refresh every refitEvery
// rows and a final refresh on the last row — and returns the final
// model. It is the deterministic offline entry point for the streaming
// trainer: the conformance registry fits through it (see
// internal/testkit), which pins the incremental path to the same
// invariants, metamorphic relations, and differential scoring contracts
// as every batch learner.
func FitWindow(x *linalg.Matrix, k kernel.Kernel, window, refitEvery int, cfg svm.OneClassConfig) (*svm.OneClass, WindowStats, error) {
	if x.Rows == 0 {
		return nil, WindowStats{}, errors.New("stream: empty training set")
	}
	if refitEvery <= 0 {
		refitEvery = 32
	}
	tr, err := NewTrainer(TrainerConfig{
		Window: window, Dim: x.Cols, Nu: cfg.Nu, Tol: cfg.Tol, MaxIters: cfg.MaxIters,
		Kernel: k,
	})
	if err != nil {
		return nil, WindowStats{}, err
	}
	var m *svm.OneClass
	stats := WindowStats{Rows: x.Rows}
	for i := 0; i < x.Rows; i++ {
		tr.Add(x.Row(i))
		if (i+1)%refitEvery != 0 && i != x.Rows-1 {
			continue
		}
		mi, info, fellBack, err := tr.Refresh()
		if err != nil {
			return nil, stats, err
		}
		m = mi
		stats.Refreshes++
		if info.WarmStart {
			stats.WarmStarts++
		}
		if fellBack {
			stats.Fallbacks++
		}
	}
	stats.FinalWindow = tr.Len()
	return m, stats, nil
}
