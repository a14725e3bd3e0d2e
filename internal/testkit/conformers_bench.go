package testkit

// Conformers for the benchmark-workload packages: the spatial map
// regressor (internal/maps) and the stress-program generator
// (internal/isa stress profiles). Both back versioned dataset exports
// (internal/datasets), so their contracts — transpose-invariant tile
// features, row-independent tile scoring, seed-pure generation within
// the profile's mix tolerance — are exactly what makes those datasets
// reproducible.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"

	"repro/internal/dataset"
	"repro/internal/isa"
	"repro/internal/linalg"
	"repro/internal/linear"
	"repro/internal/litho"
	"repro/internal/maps"
)

func init() {
	registerMaps()
	registerISAStress()
}

// registerMaps pins the map-regression workload. Probes are raw
// zero-padded region-pixel rows (ExtractRegion output), so the
// metamorphic transforms manipulate the mask itself:
//
//   - permute-probes-aligned: tile scoring is row-independent, so any
//     tile order yields bit-identical per-tile values;
//   - transpose-regions: tile features are functions of pixel sums and
//     counts, so a transposed mask region scores bit-identically — the
//     probe-level form of "the predicted map transposes with the mask".
func registerMaps() {
	var cfg maps.LabelConfig
	cfg.Defaults()
	g := cfg.Grid()
	s := cfg.RegionSize()

	regionRows := func(ws []*litho.Window) *linalg.Matrix {
		out := linalg.NewMatrix(len(ws)*g*g, s*s)
		for wi, w := range ws {
			for i := 0; i < g; i++ {
				for j := 0; j < g; j++ {
					copy(out.Row((wi*g+i)*g+j), maps.ExtractRegion(w, i, j, cfg))
				}
			}
		}
		return out
	}

	transposeRegions := Transform{
		Name: "transpose-regions",
		Apply: func(_ *rand.Rand, c *Case) (*Case, Oracle) {
			out := *c
			p := linalg.NewMatrix(c.Probes.Rows, c.Probes.Cols)
			for i := 0; i < c.Probes.Rows; i++ {
				copy(p.Row(i), maps.TransposeRegion(c.Probes.Row(i), s))
			}
			out.Probes = p
			return &out, Identity
		},
	}

	Register(Conformer{
		Name:  "maps",
		Pkg:   "maps",
		Cases: 3,
		Gen: func(r *rand.Rand, _ int) *Case {
			ws := maps.GenWindows(r, 7, cfg.N)
			train := make([]*maps.Sample, 5)
			for i := range train {
				score, weak, err := maps.TruthMaps(ws[i], cfg)
				if err != nil { // unreachable: generated windows match cfg
					panic(err)
				}
				train[i] = &maps.Sample{Window: ws[i], Score: score, Weak: weak}
			}
			d, err := maps.TileDataset(train, cfg)
			if err != nil { // unreachable: train is never empty
				panic(err)
			}
			return &Case{Train: d, Probes: regionRows(ws[5:])}
		},
		Fit: func(cs *Case) (*Fit, error) {
			// Alternate the learner behind the map so the contract is
			// pinned through two families, not one implementation.
			kind := maps.KindRidge
			if cs.Index%2 == 1 {
				kind = maps.KindGP
			}
			m, err := maps.FitMapModel(cs.Train, maps.FitConfig{Kind: kind, Label: cfg})
			if err != nil {
				return nil, err
			}
			return &Fit{Predict: m.ScoreRegions}, nil
		},
		Invariants: func(cs *Case, f *Fit) error {
			scores := f.Predict(cs.Probes)
			if err := CheckFinite("map scores", scores); err != nil {
				return err
			}
			// Hotspot-threshold sweep: raising the prediction threshold
			// can only shrink the predicted-hotspot set, so recall is
			// non-increasing — against any truth map, so a random one
			// tests the metric itself, not the model's accuracy.
			nm := len(scores) / (g * g)
			pred := make([]*maps.TileMap, nm)
			truth := make([]*maps.TileMap, nm)
			tr := cs.Rng(171)
			for k := 0; k < nm; k++ {
				pred[k] = maps.NewTileMap(g)
				copy(pred[k].Vals, scores[k*g*g:(k+1)*g*g])
				truth[k] = maps.NewTileMap(g)
				for t := range truth[k].Vals {
					truth[k].Vals[t] = tr.Float64()
				}
			}
			ths := append([]float64(nil), scores...)
			sort.Float64s(ths)
			rec := maps.RecallSweep(pred, truth, 0.5, ths)
			for i := 1; i < len(rec); i++ {
				if rec[i] > rec[i-1] {
					return fmt.Errorf("hotspot recall rose with the threshold: %g -> %g at threshold %g",
						rec[i-1], rec[i], ths[i])
				}
			}
			return nil
		},
		Relations: []Relation{
			Rel(RefitIdentity(), Exact),
			Rel(PermuteProbesAligned(), Exact),
			Rel(transposeRegions, Exact),
		},
	})
}

// registerISAStress pins the stress-program generator through the
// regression task the datasets exporter ships (features → simulated
// cycles) plus the generator's own guarantees: emission is a pure
// function of the int64 seed, every program's realized instruction mix
// stays within MixTolerance of its profile target, and every program
// finishes under the structural cycle cap.
func registerISAStress() {
	profiles := isa.StressProfiles()
	profileOf := func(idx int) isa.StressProfile { return profiles[idx%len(profiles)] }

	Register(Conformer{
		Name:  "isa/stress",
		Pkg:   "isa",
		Cases: 4,
		Gen: func(r *rand.Rand, idx int) *Case {
			g, err := isa.NewStressGen(isa.StressConfig{Profile: profileOf(idx).Name}, r.Int63())
			if err != nil { // unreachable: profile names are constants
				panic(err)
			}
			train := g.Batch(40)
			_, cycles := isa.SimulateBatch(train)
			y := make([]float64, len(cycles))
			for i, c := range cycles {
				y[i] = float64(c)
			}
			d := dataset.FromRows(isa.FeatureBatch(train), y)
			d.Names = append([]string(nil), isa.FeatureNames...)
			probeFeats := isa.FeatureBatch(g.Batch(12))
			probes := linalg.NewMatrix(len(probeFeats), len(isa.FeatureNames))
			for i, row := range probeFeats {
				copy(probes.Row(i), row)
			}
			return &Case{Train: d, Probes: probes}
		},
		Fit: func(cs *Case) (*Fit, error) {
			// Penalty scales with n — see registerRidge.
			m, err := linear.FitRidge(cs.Train, 0.002*float64(cs.Train.Len()))
			if err != nil {
				return nil, err
			}
			return &Fit{Predict: into(m.PredictBatchInto), Model: m}, nil
		},
		Invariants: func(cs *Case, f *Fit) error {
			if err := CheckFinite("stress cycle scores", f.Predict(cs.Probes)); err != nil {
				return err
			}
			p := profileOf(cs.Index)
			seed := Mix(cs.stream, 211)
			g1, err := isa.NewStressGen(isa.StressConfig{Profile: p.Name}, seed)
			if err != nil {
				return err
			}
			g2, _ := isa.NewStressGen(isa.StressConfig{Profile: p.Name}, seed)
			b1, b2 := g1.Batch(6), g2.Batch(6)
			if !reflect.DeepEqual(b1, b2) {
				return fmt.Errorf("stress generation is not a pure function of seed %d", seed)
			}
			m := isa.NewMachine()
			for i, prog := range b1 {
				if dev := isa.MixDeviation(isa.RealizedMix(prog), p.Mix); dev > isa.MixTolerance {
					return fmt.Errorf("program %d realized mix deviates %.3f > %.2f from profile %s",
						i, dev, isa.MixTolerance, p.Name)
				}
				m.Run(prog)
				if cap := isa.CycleCap(prog); m.Cycles > cap {
					return fmt.Errorf("program %d ran %d cycles, over the structural cap %d", i, m.Cycles, cap)
				}
			}
			return nil
		},
		Relations: []Relation{
			Rel(RefitIdentity(), Exact),
			Rel(PermuteRows(), Approx(1e-6, 1e-6)),
			Rel(PermuteProbesAligned(), Exact),
		},
	})
}
