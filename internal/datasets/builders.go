package datasets

import (
	"fmt"
	"math/rand"

	"repro/internal/isa"
	"repro/internal/maps"
	"repro/internal/mfgtest"
)

// Options controls dataset generation scale.
type Options struct {
	Seed  int64
	Quick bool // reduced-scale export for smoke tests
}

func (o Options) scale(q, f int) int {
	if o.Quick {
		return q
	}
	return f
}

// Names lists the exportable datasets in stable order.
func Names() []string { return []string{"litho-maps", "isa-stress", "mfgtest-chips"} }

// Build dispatches to the named builder.
func Build(name string, opt Options) (*Dataset, error) {
	switch name {
	case "litho-maps":
		return BuildLithoMaps(opt)
	case "isa-stress":
		return BuildISAStress(opt)
	case "mfgtest-chips":
		return BuildMfgtestChips(opt)
	}
	return nil, fmt.Errorf("datasets: unknown dataset %q (have %v)", name, Names())
}

// splitFlags assigns 0/1 train flags to n units with a seeded shuffle.
func splitFlags(seed int64, n int, trainFrac float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	nTrain := int(trainFrac * float64(n))
	if nTrain < 1 {
		nTrain = 1
	}
	if nTrain >= n && n > 1 {
		nTrain = n - 1
	}
	flags := make([]float64, n)
	for k, idx := range perm {
		if k < nTrain {
			flags[idx] = 1
		}
	}
	return flags
}

// lithoMapsConfig is the generator config recorded in the envelope.
type lithoMapsConfig struct {
	Windows int              `json:"windows"`
	Label   maps.LabelConfig `json:"label"`
}

// BuildLithoMaps exports the spatial map-regression benchmark: windows
// of Manhattan layout tiled into a grid, mask-only tile features, and
// golden per-tile variability labels from the aerial-image model.
func BuildLithoMaps(opt Options) (*Dataset, error) {
	var label maps.LabelConfig
	label.Defaults()
	cfg := lithoMapsConfig{Windows: opt.scale(12, 48), Label: label}
	samples, err := maps.BuildSamples(opt.Seed, cfg.Windows, label)
	if err != nil {
		return nil, err
	}
	const trainFrac = 0.7
	splitSeed := opt.Seed + 1
	flags := splitFlags(splitSeed, len(samples), trainFrac)

	cols := []Column{
		{Name: "window", Desc: "window index within this export"},
		{Name: "tile_i", Desc: "tile row (y direction)"},
		{Name: "tile_j", Desc: "tile column (x direction)"},
		{Name: "split", Desc: "1 = train, 0 = test (window-level split)"},
	}
	featNames := maps.FeatureNames(label)
	featDescs := map[string]string{
		"tile_density": "drawn fraction of the tile proper",
		"halo_density": "drawn fraction of the halo ring around the tile",
		"edge_rate":    "mask 0↔1 transitions per adjacent pixel pair in the region",
	}
	for _, fn := range featNames {
		desc, ok := featDescs[fn]
		if !ok {
			desc = "local-density histogram mass (block scale and bin in the name)"
		}
		cols = append(cols, Column{Name: fn, Desc: desc})
	}
	cols = append(cols,
		Column{Name: "var_score", Desc: "golden label: mean inverse image slope over the tile's print contour (0 = no contour)"},
		Column{Name: "weak_frac", Desc: "golden label: fraction of the tile's contour pixels below the weak-slope threshold"},
	)

	g := label.Grid()
	rows := make([][]float64, 0, len(samples)*g*g)
	for wi, s := range samples {
		for i := 0; i < g; i++ {
			for j := 0; j < g; j++ {
				row := make([]float64, 0, len(cols))
				row = append(row, float64(wi), float64(i), float64(j), flags[wi])
				row = append(row, maps.TileFeatures(s.Window, i, j, label)...)
				row = append(row, s.Score.At(i, j), s.Weak.At(i, j))
				rows = append(rows, row)
			}
		}
	}
	return &Dataset{
		Name: "litho-maps",
		Desc: "Spatial map-regression benchmark over the lithography substrate: " +
			"each layout window is tiled into a grid and every tile carries mask-only " +
			"features plus golden variability labels from the first-principles aerial-image " +
			"model. The task is to predict the per-tile variability/hotspot map without " +
			"running the golden simulation (the CircuitNet-style 2D-map prediction task).",
		RowDesc: "one tile of one layout window",
		Seed:    opt.Seed,
		Quick:   opt.Quick,
		Config:  cfg,
		Split:   &Split{Unit: "window", Column: "split", TrainFrac: trainFrac, Seed: splitSeed},
		Columns: cols,
		Rows:    rows,
	}, nil
}

// isaStressConfig is the generator config recorded in the envelope.
type isaStressConfig struct {
	PerProfile int `json:"per_profile"`
	Len        int `json:"len"`
}

// BuildISAStress exports the stress-program benchmark: constrained
// stress programs from every instruction-mix profile, with static
// features, realized mixes, and simulated coverage/cycle outcomes.
func BuildISAStress(opt Options) (*Dataset, error) {
	cfg := isaStressConfig{PerProfile: opt.scale(12, 40), Len: 64}
	profiles := isa.StressProfiles()
	var progs []isa.Program
	var profIdx []int
	for pi, prof := range profiles {
		g, err := isa.NewStressGen(isa.StressConfig{Profile: prof.Name, Len: cfg.Len}, opt.Seed+int64(pi))
		if err != nil {
			return nil, err
		}
		for _, p := range g.Batch(cfg.PerProfile) {
			progs = append(progs, p)
			profIdx = append(profIdx, pi)
		}
	}
	covs, cycles := isa.SimulateBatch(progs)
	feats := isa.FeatureBatch(progs)
	const trainFrac = 0.7
	splitSeed := opt.Seed + 1
	flags := splitFlags(splitSeed, len(progs), trainFrac)

	cols := []Column{
		{Name: "program", Desc: "program index within this export"},
		{Name: "profile", Desc: "stress profile index (0=alu-heavy, 1=store-heavy, 2=hazard-dense, 3=loop-nest)"},
		{Name: "split", Desc: "1 = train, 0 = test (program-level split)"},
		{Name: "len", Desc: "instructions in the program"},
		{Name: "cycles", Desc: "simulated cycles on the reference machine"},
		{Name: "cov_bins", Desc: "distinct coverage bins the program hit (of the event×width×region cross)"},
		{Name: "mix_alu", Desc: "realized ALU instruction fraction"},
		{Name: "mix_load", Desc: "realized load fraction"},
		{Name: "mix_store", Desc: "realized store fraction"},
	}
	for _, fn := range isa.FeatureNames {
		cols = append(cols, Column{Name: "f_" + fn, Desc: "static program feature (see internal/isa FeatureNames)"})
	}

	rows := make([][]float64, len(progs))
	for i, p := range progs {
		hit := 0
		for _, c := range covs[i] {
			if c > 0 {
				hit++
			}
		}
		mix := isa.RealizedMix(p)
		row := make([]float64, 0, len(cols))
		row = append(row, float64(i), float64(profIdx[i]), flags[i],
			float64(len(p)), float64(cycles[i]), float64(hit),
			mix.ALU, mix.Load, mix.Store)
		row = append(row, feats[i]...)
		rows[i] = row
	}
	return &Dataset{
		Name: "isa-stress",
		Desc: "Stress-program benchmark over the ISA substrate: ChiBench-style " +
			"constrained programs from four instruction-mix profiles (alu-heavy, " +
			"store-heavy, hazard-dense, loop-nest), each simulated on the reference " +
			"machine. Tasks: predict coverage or cycle outcomes from static features, " +
			"or select high-novelty programs before simulation (the paper's Figure 7 loop).",
		RowDesc: "one generated stress program",
		Seed:    opt.Seed,
		Quick:   opt.Quick,
		Config:  cfg,
		Split:   &Split{Unit: "program", Column: "split", TrainFrac: trainFrac, Seed: splitSeed},
		Columns: cols,
		Rows:    rows,
	}, nil
}

// mfgtestChipsConfig is the generator config recorded in the envelope.
type mfgtestChipsConfig struct {
	Chips int `json:"chips"`
	Tests int `json:"tests"`
}

// BuildMfgtestChips exports the manufacturing-test benchmark: chips
// drawn from the correlated parametric model with latent field defects
// (the substrate behind the Figure 11 customer-returns study).
func BuildMfgtestChips(opt Options) (*Dataset, error) {
	cfg := mfgtestChipsConfig{Chips: opt.scale(150, 600), Tests: 16}
	s := mfgtest.NewReturnsScenario(cfg.Tests)
	rng := rand.New(rand.NewSource(opt.Seed))
	chips := s.Model.Sample(rng, cfg.Chips, 0, s.Defect)
	const trainFrac = 0.7
	splitSeed := opt.Seed + 1
	flags := splitFlags(splitSeed, len(chips), trainFrac)

	cols := []Column{
		{Name: "chip", Desc: "chip ID"},
		{Name: "wafer", Desc: "wafer index (chips on a wafer share a process offset)"},
		{Name: "split", Desc: "1 = train, 0 = test (chip-level split)"},
	}
	for j := 0; j < cfg.Tests; j++ {
		cols = append(cols, Column{
			Name: fmt.Sprintf("meas_%02d", j),
			Desc: fmt.Sprintf("parametric test %02d measurement", j),
		})
	}
	cols = append(cols,
		Column{Name: "pass", Desc: "1 if the chip passes all production test limits"},
		Column{Name: "latent_defect", Desc: "1 if the chip carries a latent defect (fails in the field if shipped) — the prediction target"},
	)

	rows := make([][]float64, len(chips))
	for i := range chips {
		c := &chips[i]
		row := make([]float64, 0, len(cols))
		row = append(row, float64(c.ID), float64(c.Wafer), flags[i])
		row = append(row, c.Meas...)
		pass, latent := 0.0, 0.0
		if s.Limits.Pass(c) {
			pass = 1
		}
		if c.LatentDefect {
			latent = 1
		}
		row = append(row, pass, latent)
		rows[i] = row
	}
	return &Dataset{
		Name: "mfgtest-chips",
		Desc: "Manufacturing-test benchmark over the mfgtest substrate: chips from a " +
			"correlated linear factor model of parametric tests, with wafer-level process " +
			"offsets and rare latent defects that production limits miss. Tasks: predict " +
			"latent defects from parametric measurements on passing chips (the paper's " +
			"Figure 11 customer-returns study) under extreme class imbalance.",
		RowDesc: "one tested chip",
		Seed:    opt.Seed,
		Quick:   opt.Quick,
		Config:  cfg,
		Split:   &Split{Unit: "chip", Column: "split", TrainFrac: trainFrac, Seed: splitSeed},
		Columns: cols,
		Rows:    rows,
	}, nil
}
