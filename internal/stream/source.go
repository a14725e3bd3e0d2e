package stream

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/isa"
	"repro/internal/mfgtest"
)

// Candidate is one unit offered to the loop: its position in the
// stream and the feature vector the novelty filter scores. The payload
// (the ISA program or chip behind the features) stays inside the
// source; the loop only ever simulates the candidate it just drew.
type Candidate struct {
	Seq      int // position in the stream, 0-based
	Features []float64

	payload any
}

// SimResult is what simulating a selected candidate cost and found.
type SimResult struct {
	Cycles int64 // simulation cycles spent on this candidate
	Gain   int   // coverage bins first hit (ISA) / latent defects caught (mfgtest)
}

// Source produces the candidate stream and simulates selected
// candidates. Implementations must be pure functions of their seed:
// the same seed yields the same candidate and simulation sequence.
// Next and Simulate are called serially by the loop.
type Source interface {
	Name() string
	Dim() int
	Next() Candidate
	// Simulate runs the expensive step on a candidate this source
	// produced. Only the most recently drawn candidate is simulated.
	Simulate(c Candidate) SimResult
}

// NewSource builds a named source: "isa" (constrained-random ISA
// programs, the paper's novel-test-selection scenario), "mfgtest"
// (parametric chip measurements, the customer-returns scenario), or
// "isa-stress" / "isa-stress:<profile>" (ChiBench-style stress programs
// from one instruction-mix profile, default hazard-dense).
// shiftAt > 0 plants a distribution shift at that stream position so
// drift-triggered refreshes can be exercised deterministically.
func NewSource(name string, seed int64, shiftAt int) (Source, error) {
	switch name {
	case "isa":
		return NewISASource(seed, shiftAt), nil
	case "mfgtest":
		return NewMfgSource(seed, shiftAt), nil
	}
	if name == "isa-stress" || strings.HasPrefix(name, "isa-stress:") {
		profile := strings.TrimPrefix(strings.TrimPrefix(name, "isa-stress"), ":")
		return NewISAStressSource(profile, seed, shiftAt)
	}
	return nil, fmt.Errorf("stream: unknown source %q (want isa, mfgtest, isa-stress, or isa-stress:<profile>)", name)
}

// isaSim is what both ISA program sources share: the stream position,
// its planted shift, and the reference machine with the cumulative
// coverage of every program simulated so far.
type isaSim struct {
	machine *isa.Machine
	cov     *isa.Coverage // cumulative coverage across simulated tests
	shiftAt int
	seq     int
}

func newISASim(shiftAt int) isaSim {
	return isaSim{machine: isa.NewMachine(), cov: &isa.Coverage{}, shiftAt: shiftAt}
}

// shifting reports whether the next draw is the planted shift's.
func (s *isaSim) shifting() bool { return s.shiftAt > 0 && s.seq == s.shiftAt }

// candidate wraps the program just drawn as the next candidate.
func (s *isaSim) candidate(p isa.Program) Candidate {
	c := Candidate{Seq: s.seq, Features: isa.Features(p), payload: p}
	s.seq++
	return c
}

// Dim implements Source.
func (s *isaSim) Dim() int { return len(isa.FeatureNames) }

// Simulate implements Source: run the program on the reference machine
// and merge its coverage into the cumulative map. Gain is the number of
// coverage bins this test hit first — the numerator of the paper's
// Table-1 economics.
func (s *isaSim) Simulate(c Candidate) SimResult {
	p := c.payload.(isa.Program)
	cov := s.machine.Run(p)
	before := s.cov.Count()
	s.cov.Merge(cov)
	return SimResult{
		Cycles: s.machine.Cycles,
		Gain:   s.cov.Count() - before,
	}
}

// CoverageCount returns the cumulative coverage-bin count across every
// simulated candidate.
func (s *isaSim) CoverageCount() int { return s.cov.Count() }

// ISASource streams constrained-random ISA programs: the generator half
// of the paper's Figure 7 loop. It starts from the narrow
// DefaultTemplate; at stream position ShiftAt (if positive) it switches
// to the wide "try everything" template — a planted concept shift that
// drives the decision scores of a model trained on the narrow regime
// sharply negative, which is exactly what the drift detector exists to
// catch.
type ISASource struct {
	isaSim
	gen *isa.Generator
}

// NewISASource seeds the program stream.
func NewISASource(seed int64, shiftAt int) *ISASource {
	return &ISASource{
		isaSim: newISASim(shiftAt),
		gen:    isa.NewGenerator(isa.DefaultTemplate(), seed),
	}
}

// Name implements Source.
func (s *ISASource) Name() string { return "isa" }

// Next implements Source.
func (s *ISASource) Next() Candidate {
	if s.shifting() {
		// The planted shift: same rng stream, wider template — every
		// draw after this point comes from a different distribution.
		s.gen.T = isa.WideTemplate()
	}
	return s.candidate(s.gen.Next())
}

// ISAStressSource streams stress programs from one instruction-mix
// profile (see isa.StressProfiles). At ShiftAt the stream switches to
// the store-heavy profile — a planted shift that concentrates pressure
// on a different corner of the load-store unit, so features (and the
// decision scores of a model trained on the original profile) move
// sharply.
type ISAStressSource struct {
	isaSim
	gen  *isa.StressGen
	seed int64
}

// NewISAStressSource seeds the stress stream; an empty profile selects
// the generator default (hazard-dense).
func NewISAStressSource(profile string, seed int64, shiftAt int) (*ISAStressSource, error) {
	gen, err := isa.NewStressGen(isa.StressConfig{Profile: profile}, seed)
	if err != nil {
		return nil, err
	}
	return &ISAStressSource{isaSim: newISASim(shiftAt), gen: gen, seed: seed}, nil
}

// Name implements Source.
func (s *ISAStressSource) Name() string { return "isa-stress:" + s.gen.Profile().Name }

// Next implements Source.
func (s *ISAStressSource) Next() Candidate {
	if s.shifting() && s.gen.Profile().Name != "store-heavy" {
		// The planted shift: reseed deterministically onto the
		// store-heavy profile (derived from the source seed so the whole
		// stream stays a pure function of it).
		g, err := isa.NewStressGen(isa.StressConfig{Profile: "store-heavy"}, s.seed+1)
		if err != nil { // unreachable: the profile name is a constant
			panic(err)
		}
		s.gen = g
	}
	return s.candidate(s.gen.Next())
}

// mfgCyclesPerTest is the nominal tester cost of fully characterizing
// one parametric test — the unit the mfgtest economics are counted in.
const mfgCyclesPerTest = 50

// MfgSource streams parametric chip measurements from the Figure 11
// returns scenario: each candidate is one shipped-quality chip, and
// "simulation" is the full characterization re-test that catches latent
// defects before they become customer returns. At ShiftAt the stream
// switches to the sister product line (shifted means and noise) — the
// planted shift for drift testing.
type MfgSource struct {
	sc      *mfgtest.ReturnsScenario
	rng     *rand.Rand
	shiftAt int
	seq     int
	nextID  int
	buf     []mfgtest.Chip
}

// NewMfgSource seeds the chip stream.
func NewMfgSource(seed int64, shiftAt int) *MfgSource {
	return &MfgSource{
		sc:      mfgtest.NewReturnsScenario(16),
		rng:     rand.New(rand.NewSource(seed)),
		shiftAt: shiftAt,
	}
}

// Name implements Source.
func (s *MfgSource) Name() string { return "mfgtest" }

// Dim implements Source.
func (s *MfgSource) Dim() int { return s.sc.Model.NumTests() }

// Next implements Source.
func (s *MfgSource) Next() Candidate {
	if s.shiftAt > 0 && s.seq == s.shiftAt {
		s.sc = s.sc.SisterScenario()
		s.buf = nil // remaining chips belong to the old line
	}
	if len(s.buf) == 0 {
		const lot = 32
		s.buf = s.sc.Model.Sample(s.rng, lot, s.nextID, s.sc.Defect)
		s.nextID += lot
	}
	chip := s.buf[0]
	s.buf = s.buf[1:]
	c := Candidate{Seq: s.seq, Features: chip.Meas, payload: chip}
	s.seq++
	return c
}

// Simulate implements Source: the full characterization re-test. Gain
// counts latent defects caught at the tester instead of in the field.
func (s *MfgSource) Simulate(c Candidate) SimResult {
	chip := c.payload.(mfgtest.Chip)
	gain := 0
	if chip.LatentDefect {
		gain = 1
	}
	return SimResult{
		Cycles: int64(len(chip.Meas)) * mfgCyclesPerTest,
		Gain:   gain,
	}
}
