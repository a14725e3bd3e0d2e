// Package modelzoo is the model-persistence experiment behind
// `edamine -save-model` / `-load-model`: it trains one model of every
// persistable kind (see internal/model) on deterministic synthetic
// substrates, scores a fixed probe set, and round-trips the models
// through the versioned artifact format.
//
// In save mode the trained artifacts are written to disk — the
// training half of the paper's durable-model loop (Section 5: a
// learned model pays off when it outlives the run that trained it).
// In load mode the artifacts are read back and re-scored, and the
// result reports whether every loaded model reproduces the freshly
// trained model's probe predictions bit for bit — the consuming half,
// and the in-process twin of what cmd/edaserved does over HTTP.
package modelzoo

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/dataset"
	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/linear"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/svm"
	"repro/internal/tree"
)

var (
	zooTrained = obs.GetCounter("modelzoo.models_trained")
	zooSaved   = obs.GetCounter("modelzoo.models_saved")
	zooLoaded  = obs.GetCounter("modelzoo.models_loaded")
)

// Config controls the experiment.
type Config struct {
	Seed        int64
	SaveDir     string // when set, write one artifact per kind here, creating it if need be
	LoadDir     string // when set, read artifacts back and verify them
	ManifestRef string // recorded in each artifact's envelope
	Train       int    // training samples per model, default 160
	Probes      int    // probe samples per model, default 64
	// Approx, when non-empty ("rff:D" or "nystrom:m"), additionally
	// compiles each kernel kind (svc, oneclass, gp) into an
	// approx-linear artifact alongside the exact one, and reports the
	// measured train-set decision error versus the exact model.
	Approx string
}

func (c *Config) defaults() {
	if c.Train <= 0 {
		c.Train = 160
	}
	if c.Probes <= 0 {
		c.Probes = 64
	}
}

// Payload kinds a zoo artifact can carry.
const (
	PayloadExact  = "exact"
	PayloadApprox = "approx-linear"
)

// ModelReport is the per-artifact outcome.
type ModelReport struct {
	Kind     model.Kind
	Payload  string // PayloadExact or PayloadApprox
	File     string // artifact path (save/load mode)
	Checksum string // payload SHA-256
	Bytes    int    // marshalled artifact size
	Probes   int
	// BitIdentical reports whether the artifact-round-tripped model
	// scored every probe bit-identically to the in-memory trained model
	// (for approx payloads, to the freshly compiled model).
	BitIdentical bool
	// MaxErr is the worst |approx − exact| decision gap over the
	// training rows; meaningful only for PayloadApprox.
	MaxErr float64
}

// Result is the experiment outcome.
type Result struct {
	Seed    int64
	Models  []ModelReport
	SaveDir string
	LoadDir string
	Approx  string // the -approx spec in effect, if any
}

// ArtifactFile returns the conventional artifact filename for a kind.
func ArtifactFile(dir string, kind model.Kind) string {
	return filepath.Join(dir, string(kind)+".model.json")
}

// Trained couples a fitted model with its probe matrix and the
// in-process predictions the round-tripped model must reproduce. The
// serve end-to-end tests reuse it to compare HTTP predictions against
// the in-process reference.
type Trained struct {
	Kind   model.Kind
	Model  any
	Train  *linalg.Matrix // training rows (the compile-error reference set)
	Probes *linalg.Matrix
	Want   []float64
}

// TrainAll fits one model per persistable kind on substrates derived
// deterministically from seed, and scores each model's probe set
// in-process (one sample at a time — the reference the batch and HTTP
// paths must match).
func TrainAll(seed int64, nTrain, nProbes int) ([]Trained, error) {
	var out []Trained

	// SVC: two-Gaussian binary classification, RBF kernel.
	{
		rng := rand.New(rand.NewSource(seed + 101))
		d := dataset.TwoGaussians(rng, nTrain, 4, 2.5, 1.0)
		k := kernel.RBF{Gamma: 0.5}
		m, err := svm.FitSVC(d, k, svm.SVCConfig{C: 1, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("modelzoo: svc: %w", err)
		}
		probes := dataset.TwoGaussians(rng, nProbes, 4, 2.5, 1.0).X
		out = append(out, Trained{model.KindSVC, m, d.X, probes, scoreRows(probes, m.Predict)})
	}

	// One-class SVM: novelty detection over a single cluster.
	{
		rng := rand.New(rand.NewSource(seed + 202))
		d := dataset.Blobs(rng, 1, nTrain, 3, 0, 1.0)
		k := kernel.RBF{Gamma: 0.3}
		m, err := svm.FitOneClass(d.X, k, svm.OneClassConfig{Nu: 0.1})
		if err != nil {
			return nil, fmt.Errorf("modelzoo: oneclass: %w", err)
		}
		probes := dataset.Blobs(rng, 1, nProbes, 3, 0, 2.0).X
		out = append(out, Trained{model.KindOneClass, m, d.X, probes, scoreRows(probes, m.Decision)})
	}

	// Ridge: Friedman #1 regression surface.
	{
		rng := rand.New(rand.NewSource(seed + 303))
		d := dataset.Friedman1(rng, nTrain, 8, 0.5)
		m, err := linear.FitRidge(d, 1.0)
		if err != nil {
			return nil, fmt.Errorf("modelzoo: ridge: %w", err)
		}
		probes := dataset.Friedman1(rng, nProbes, 8, 0.5).X
		out = append(out, Trained{model.KindRidge, m, d.X, probes, scoreRows(probes, m.Predict)})
	}

	// GP: noisy sine, RBF covariance. Smaller n — the fit is O(n³).
	{
		rng := rand.New(rand.NewSource(seed + 404))
		nGP := nTrain / 2
		if nGP < 16 {
			nGP = 16
		}
		d := dataset.NoisySine(rng, nGP, 0.15)
		m, err := gp.Fit(d, gp.Config{Kernel: kernel.RBF{Gamma: 2.0}, Noise: 0.05})
		if err != nil {
			return nil, fmt.Errorf("modelzoo: gp: %w", err)
		}
		probes := dataset.NoisySine(rng, nProbes, 0.15).X
		out = append(out, Trained{model.KindGP, m, d.X, probes, scoreRows(probes, m.Predict)})
	}

	// Decision tree: XOR — linearly inseparable, trees split it cleanly.
	{
		rng := rand.New(rand.NewSource(seed + 505))
		d := dataset.XOR(rng, nTrain/4, 0.35)
		m, err := tree.Fit(d, tree.Config{MaxDepth: 6, MinLeaf: 2})
		if err != nil {
			return nil, fmt.Errorf("modelzoo: tree: %w", err)
		}
		probes := dataset.XOR(rng, nProbes/4+1, 0.35).X
		out = append(out, Trained{model.KindTree, m, d.X, probes, scoreRows(probes, m.Predict)})
	}

	// CN2-SD rule set: subgroups of the positive Gaussian.
	{
		rng := rand.New(rand.NewSource(seed + 606))
		d := dataset.TwoGaussians(rng, nTrain, 3, 3.0, 1.0)
		rs, err := rules.CN2SD(d, 1, rules.CN2SDConfig{MaxRules: 4, MaxConditions: 2})
		if err != nil {
			return nil, fmt.Errorf("modelzoo: ruleset: %w", err)
		}
		m := &rules.RuleSet{Rules: rs, Target: 1, Default: 0}
		probes := dataset.TwoGaussians(rng, nProbes, 3, 3.0, 1.0).X
		out = append(out, Trained{model.KindRuleSet, m, d.X, probes, scoreRows(probes, m.Predict)})
	}

	zooTrained.Add(int64(len(out)))
	return out, nil
}

func scoreRows(x *linalg.Matrix, f func([]float64) float64) []float64 {
	out := make([]float64, x.Rows)
	for i := range out {
		out[i] = f(x.Row(i))
	}
	return out
}

// zooJob is one artifact to persist and verify: either a trained model
// in its exact form, or its compiled approx-linear form.
type zooJob struct {
	kind    model.Kind
	payload string // PayloadExact or PayloadApprox
	name    string // artifact base name, e.g. "svc.model.json"
	mdl     any
	probes  *linalg.Matrix
	want    []float64
	maxErr  float64 // approx only
}

// approxJobs compiles every kernel kind under spec and measures the
// worst train-set decision gap against the exact model.
func approxJobs(models []Trained, spec model.ApproxSpec) ([]zooJob, error) {
	var jobs []zooJob
	for _, t := range models {
		e, ok := model.ExpansionOf(t.Model)
		if !ok {
			continue
		}
		am, err := model.CompileApprox(t.Model, spec)
		if err != nil {
			return nil, fmt.Errorf("modelzoo: compile %s: %w", t.Kind, err)
		}
		jobs = append(jobs, zooJob{
			kind:    t.Kind,
			payload: PayloadApprox,
			name:    string(t.Kind) + ".approx.model.json",
			mdl:     am,
			probes:  t.Probes,
			want:    scoreRows(t.Probes, am.ScoreRow),
			maxErr:  trainSetError(e, t.Train, am),
		})
	}
	return jobs, nil
}

// trainSetError is the worst |approx − exact| raw-decision gap over the
// training rows — the measured compile error the report prints.
func trainSetError(e model.Expansion, train *linalg.Matrix, am *model.ApproxModel) float64 {
	worst := 0.0
	for i := 0; i < train.Rows; i++ {
		x := train.Row(i)
		if d := math.Abs(am.Decision(x) - e.Decision(x)); d > worst {
			worst = d
		}
	}
	return worst
}

// Run executes the experiment (see the package comment).
func Run(cfg Config) (*Result, error) {
	cfg.defaults()
	if cfg.SaveDir != "" {
		// Before training, so a directory that cannot be made costs nothing.
		if err := os.MkdirAll(cfg.SaveDir, 0o755); err != nil {
			return nil, fmt.Errorf("modelzoo: mkdir: %w", err)
		}
	}
	models, err := TrainAll(cfg.Seed, cfg.Train, cfg.Probes)
	if err != nil {
		return nil, err
	}
	res := &Result{Seed: cfg.Seed, SaveDir: cfg.SaveDir, LoadDir: cfg.LoadDir, Approx: cfg.Approx}

	jobs := make([]zooJob, 0, len(models))
	for _, t := range models {
		jobs = append(jobs, zooJob{
			kind: t.Kind, payload: PayloadExact, name: string(t.Kind) + ".model.json",
			mdl: t.Model, probes: t.Probes, want: t.Want,
		})
	}
	if cfg.Approx != "" {
		// The feature-map seed stream follows the zoo's seed+NNN
		// convention, independent of every training stream.
		spec, err := model.ParseApproxSpec(cfg.Approx, cfg.Seed+707)
		if err != nil {
			return nil, fmt.Errorf("modelzoo: -approx: %w", err)
		}
		aj, err := approxJobs(models, spec)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, aj...)
	}

	for _, j := range jobs {
		rep := ModelReport{Kind: j.kind, Payload: j.payload, Probes: j.probes.Rows, MaxErr: j.maxErr}
		meta := model.Meta{Name: "zoo-" + string(j.kind), Seed: cfg.Seed, ManifestRef: cfg.ManifestRef}

		var art *model.Artifact
		switch {
		case cfg.SaveDir != "":
			rep.File = filepath.Join(cfg.SaveDir, j.name)
			if art, err = model.Save(rep.File, j.mdl, meta); err != nil {
				return nil, err
			}
			zooSaved.Inc()
			// Verify the file that was just written, not the in-memory copy.
			if art, err = model.Load(rep.File); err != nil {
				return nil, err
			}
		case cfg.LoadDir != "":
			rep.File = filepath.Join(cfg.LoadDir, j.name)
			if art, err = model.Load(rep.File); err != nil {
				return nil, err
			}
			zooLoaded.Inc()
		default:
			// Pure round-trip through bytes, no disk.
			if art, err = model.Encode(j.mdl, meta); err != nil {
				return nil, err
			}
			data, merr := art.Marshal()
			if merr != nil {
				return nil, merr
			}
			if art, err = model.Decode(data); err != nil {
				return nil, err
			}
		}
		rep.Checksum = art.Envelope.Checksum
		data, merr := art.Marshal()
		if merr != nil {
			return nil, merr
		}
		rep.Bytes = len(data)

		scorer, err := art.Scorer()
		if err != nil {
			return nil, err
		}
		got := make([]float64, j.probes.Rows)
		for i := range got {
			got[i] = scorer.ScoreRow(j.probes.Row(i))
		}
		rep.BitIdentical = equalBits(got, j.want)
		res.Models = append(res.Models, rep)
	}
	return res, nil
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders the experiment report.
func (r *Result) String() string {
	var b strings.Builder
	mode := "round-trip (in-memory)"
	switch {
	case r.SaveDir != "":
		mode = "save to " + r.SaveDir
	case r.LoadDir != "":
		mode = "load from " + r.LoadDir
	}
	if r.Approx != "" {
		mode += ", approx=" + r.Approx
	}
	fmt.Fprintf(&b, "model persistence (seed=%d, %s)\n", r.Seed, mode)
	fmt.Fprintf(&b, "%-10s %-14s %-8s %-8s %-8s %-12s %s\n",
		"kind", "payload", "bytes", "probes", "bitexact", "train_err", "payload_sha256")
	ok := true
	for _, m := range r.Models {
		trainErr := "-"
		if m.Payload == PayloadApprox {
			trainErr = fmt.Sprintf("%.3g", m.MaxErr)
		}
		fmt.Fprintf(&b, "%-10s %-14s %-8d %-8d %-8v %-12s %s\n",
			m.Kind, m.Payload, m.Bytes, m.Probes, m.BitIdentical, trainErr, m.Checksum[:16])
		if !m.BitIdentical {
			ok = false
		}
	}
	if ok {
		fmt.Fprintf(&b, "all %d artifacts round-trip bit-identically\n", len(r.Models))
	} else {
		fmt.Fprintf(&b, "ERROR: some artifacts did not round-trip bit-identically\n")
	}
	return b.String()
}
