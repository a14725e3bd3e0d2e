package testkit

import (
	"fmt"
	"math/rand"

	"repro/internal/core/colmat"
	"repro/internal/kernel"
	"repro/internal/svm"
)

func init() {
	registerColmat()
}

// registerColmat pins the columnar zero-alloc serving paths to the
// conformance contract: a batch scored through pooled arena scratch
// (DecisionBatchInto, CrossGramInto) must be bit-identical to the naive
// per-row path on every probe — in-distribution and adversarial
// (±Inf, NaN, subnormal) alike — and must stay so under pool churn,
// i.e. when the same buffers have been leased, dirtied, and returned by
// unrelated work in between. A buffer that leaked state or aliased live
// data would surface here as a bit diff.
func registerColmat() {
	Register(Conformer{
		Name:  "core/colmat",
		Pkg:   "core",
		Cases: 4,
		Gen: func(r *rand.Rand, _ int) *Case {
			d := GenClassification(r, 50, 4, 2.0)
			return &Case{Train: d, Probes: probesFor(r, d, 40)}
		},
		Fit: func(cs *Case) (*Fit, error) {
			k := GenPSDKernel(cs.Rng(kernelStream), cs.Train.Dim())
			m, err := svm.FitOneClass(cs.Train.X, k, svm.OneClassConfig{Nu: 0.2})
			if err != nil {
				return nil, err
			}
			return &Fit{Predict: into(m.DecisionBatchInto), Model: m}, nil
		},
		Invariants: colmatInvariants,
		Relations:  []Relation{Rel(RefitIdentity(), Exact)},
	})
}

func colmatInvariants(cs *Case, f *Fit) error {
	m := f.Model.(*svm.OneClass)
	probes := cs.Probes

	// Reference: the naive per-row path, no batch amortization, no pool.
	want := make([]float64, probes.Rows)
	for i := range want {
		want[i] = m.Decision(probes.Row(i))
	}

	// Round 1: pooled batch path on a cold arena.
	got := m.DecisionBatchInto(probes, make([]float64, probes.Rows))
	if err := Exact.Compare(want, got); err != nil {
		return fmt.Errorf("pooled DecisionBatchInto vs per-row Decision: %w", err)
	}

	// Churn the arena: lease the exact shapes the batch path uses,
	// dirty them with poison-adjacent garbage, and return them, so the
	// next round is served from recycled buffers.
	for i := 0; i < 3; i++ {
		g := colmat.Get(probes.Rows, m.SV.Rows)
		for j := range g.Data {
			g.Data[j] = -1e308
		}
		colmat.Put(g)
	}

	// Round 2: same batch, now on recycled buffers.
	got2 := m.DecisionBatchInto(probes, make([]float64, probes.Rows))
	if err := Exact.Compare(want, got2); err != nil {
		return fmt.Errorf("pooled DecisionBatchInto after pool churn: %w", err)
	}

	// CrossGramInto into a recycled, dirtied buffer must equal a fresh
	// CrossGram allocation cell for cell.
	fresh := kernel.CrossGram(m.K, probes, m.SV)
	pooled := colmat.Get(probes.Rows, m.SV.Rows)
	for j := range pooled.Data {
		pooled.Data[j] = 1e307
	}
	kernel.CrossGramInto(m.K, probes, m.SV, pooled)
	if err := Exact.Compare(fresh.Data, pooled.Data); err != nil {
		colmat.Put(pooled)
		return fmt.Errorf("CrossGramInto into recycled buffer vs fresh CrossGram: %w", err)
	}
	colmat.Put(pooled)
	return nil
}
