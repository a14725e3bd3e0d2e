package maps

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/linear"
	"repro/internal/litho"
	"repro/internal/svm"
)

// ModelKind selects the learner behind a map model.
type ModelKind string

const (
	KindRidge ModelKind = "ridge" // closed-form ridge regression on tile features
	KindGP    ModelKind = "gp"    // GP regression, RBF kernel
	KindSVC   ModelKind = "svc"   // hotspot classifier, histogram-intersection kernel
)

// FitConfig shapes FitMapModel. Zero values pick the benchmark defaults.
type FitConfig struct {
	Kind   ModelKind
	Label  LabelConfig
	Lambda float64 // ridge penalty per training row, default 2e-3·n
	Noise  float64 // GP observation noise, default 1e-3
	C      float64 // SVC box constraint, default 2
	Seed   int64   // SVC SMO heuristic seed
}

// MapModel predicts per-tile hotspot scores. Regression kinds predict
// the weak-edge fraction directly; the SVC kind scores tiles by SVM
// decision margin (hotspot threshold 0).
type MapModel struct {
	Kind  ModelKind
	Label LabelConfig

	ridge *linear.Regression
	gp    *gp.Regressor
	svc   *svm.SVC
}

// FitMapModel trains a map model on a per-tile dataset (as produced by
// TileDataset: features per tile, response = weak-edge fraction). For
// the SVC kind the response is binarized at Label.HotWeak before
// training.
func FitMapModel(train *dataset.Dataset, cfg FitConfig) (*MapModel, error) {
	cfg.Label.Defaults()
	if err := cfg.Label.Validate(); err != nil {
		return nil, err
	}
	m := &MapModel{Kind: cfg.Kind, Label: cfg.Label}
	switch cfg.Kind {
	case KindRidge, "":
		m.Kind = KindRidge
		lambda := cfg.Lambda
		if lambda <= 0 {
			lambda = 2e-3 * float64(train.Len())
		}
		r, err := linear.FitRidge(train, lambda)
		if err != nil {
			return nil, err
		}
		m.ridge = r
	case KindGP:
		noise := cfg.Noise
		if noise <= 0 {
			// Tile labels are noisy (identical-looking tiles carry
			// different weak fractions), so the GP needs a wide noise
			// band and a gentle length scale to generalize.
			noise = 0.1
		}
		g, err := gp.Fit(train, gp.Config{
			Kernel: kernel.RBF{Gamma: 0.5 / float64(train.Dim())},
			Noise:  noise,
		})
		if err != nil {
			return nil, err
		}
		m.gp = g
	case KindSVC:
		c := cfg.C
		if c <= 0 {
			c = 2
		}
		binY := make([]float64, len(train.Y))
		for i, v := range train.Y {
			if v >= cfg.Label.HotWeak {
				binY[i] = 1
			}
		}
		bin := &dataset.Dataset{X: train.X, Y: binY, Names: train.Names}
		s, err := svm.FitSVC(bin, kernel.HistogramIntersection{}, svm.SVCConfig{C: c, Seed: cfg.Seed})
		if err != nil {
			return nil, err
		}
		m.svc = s
	default:
		return nil, fmt.Errorf("maps: unknown model kind %q", cfg.Kind)
	}
	return m, nil
}

// HotThreshold is the score above which a predicted tile counts as a
// hotspot: the weak-fraction threshold for regression kinds, the
// decision boundary for the SVC.
func (m *MapModel) HotThreshold() float64 {
	if m.Kind == KindSVC {
		return 0
	}
	return m.Label.HotWeak
}

// ScoreFeatures scores each row of a tile-feature matrix. Rows are
// scored independently, so any row permutation permutes the output
// bit-identically — the invariance the conformance suite pins.
func (m *MapModel) ScoreFeatures(x *linalg.Matrix) []float64 {
	out := make([]float64, x.Rows)
	switch m.Kind {
	case KindGP:
		return m.gp.PredictBatchInto(x, out)
	case KindSVC:
		return m.svc.DecisionBatchInto(x, out)
	default:
		return m.ridge.PredictBatchInto(x, out)
	}
}

// ScoreRegions scores rows of raw zero-padded region pixels (flattened
// RegionSize² vectors, as produced by ExtractRegion), extracting the
// tile features internally. This is the probe surface the metamorphic
// transforms operate on: permuting or transposing region rows is pure
// matrix manipulation.
func (m *MapModel) ScoreRegions(regions *linalg.Matrix) []float64 {
	s := m.Label.RegionSize()
	feats := linalg.NewMatrix(regions.Rows, len(FeatureNames(m.Label)))
	for i := 0; i < regions.Rows; i++ {
		row := regions.Row(i)
		if len(row) != s*s {
			panic(fmt.Sprintf("maps: region row has %d pixels, want %d", len(row), s*s))
		}
		copy(feats.Row(i), RegionFeatures(row, m.Label))
	}
	return m.ScoreFeatures(feats)
}

// PredictMap predicts the full tile map of one window.
func (m *MapModel) PredictMap(w *litho.Window) (*TileMap, error) {
	if w.N != m.Label.N {
		return nil, fmt.Errorf("maps: window size %d does not match model config %d", w.N, m.Label.N)
	}
	g := m.Label.Grid()
	x := linalg.NewMatrix(g*g, len(FeatureNames(m.Label)))
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			copy(x.Row(i*g+j), TileFeatures(w, i, j, m.Label))
		}
	}
	out := NewTileMap(g)
	copy(out.Vals, m.ScoreFeatures(x))
	return out, nil
}

// MapRMSE is the per-tile root-mean-square error across a set of
// predicted/truth map pairs.
func MapRMSE(pred, truth []*TileMap) float64 {
	var sum float64
	var n int
	for k := range pred {
		for t := range pred[k].Vals {
			d := pred[k].Vals[t] - truth[k].Vals[t]
			sum += d * d
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// HotspotPR computes hotspot precision and recall over map pairs: a
// predicted hotspot is a tile with score ≥ predThresh, a true hotspot a
// tile with truth value ≥ truthThresh. Degenerate denominators yield 1
// (no predictions → vacuous precision; no true hotspots → vacuous
// recall).
func HotspotPR(pred, truth []*TileMap, predThresh, truthThresh float64) (precision, recall float64) {
	var tp, fp, fn float64
	for k := range pred {
		for t := range pred[k].Vals {
			p := pred[k].Vals[t] >= predThresh
			a := truth[k].Vals[t] >= truthThresh
			switch {
			case p && a:
				tp++
			case p && !a:
				fp++
			case !p && a:
				fn++
			}
		}
	}
	precision, recall = 1, 1
	if tp+fp > 0 {
		precision = tp / (tp + fp)
	}
	if tp+fn > 0 {
		recall = tp / (tp + fn)
	}
	return precision, recall
}

// RecallSweep evaluates hotspot recall at each prediction threshold.
// Raising the threshold can only shrink the predicted-hotspot set, so
// recall is non-increasing in the threshold — the monotonicity the
// conformance suite asserts.
func RecallSweep(pred, truth []*TileMap, truthThresh float64, thresholds []float64) []float64 {
	out := make([]float64, len(thresholds))
	for i, th := range thresholds {
		_, out[i] = HotspotPR(pred, truth, th, truthThresh)
	}
	return out
}
