package testkit

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/linalg"
)

// The conformance registry. Every learner package in the repo registers
// exactly one (or more) Conformer here; the root conformance_test.go
// sweeps the registry and a completeness test fails when a learner
// package exists without a registration. Registration lives in
// conformers.go (this package) rather than in the learner packages so
// the dependency arrow points one way: testkit imports learners, never
// the reverse.

// Fit is one fitted model: a prediction function over a probe matrix
// (transductive learners ignore the probes and report per-training-row
// outputs) plus, when the model is persistable, the model value itself
// for the differential driver.
type Fit struct {
	// Predict scores the probe matrix. For transductive conformers
	// (label propagation, clustering) the probe argument is ignored and
	// the output is indexed by training row.
	Predict func(x *linalg.Matrix) []float64
	// Model is the persistable fitted model (one of the model.Encode
	// kinds), or nil for learners without an artifact form.
	Model any
}

// into adapts a model's batch scorer, the form that writes into a
// caller's slice and the one serving runs, to Fit.Predict.
func into(score func(x *linalg.Matrix, out []float64) []float64) func(x *linalg.Matrix) []float64 {
	return func(x *linalg.Matrix) []float64 { return score(x, make([]float64, x.Rows)) }
}

// Conformer is one learner's entry in the conformance registry.
type Conformer struct {
	// Name is the unique registry key, e.g. "svm/svc".
	Name string
	// Pkg is the internal package the learner lives in, e.g. "svm" —
	// the completeness test matches registrations to packages by it.
	Pkg string
	// Cases is the sweep size at default scale; the slowconformance
	// build multiplies it.
	Cases int
	// Gen builds the case body (Train/Probes/YMat) from the case's
	// private deterministic stream.
	Gen func(r *rand.Rand, idx int) *Case
	// Fit trains on the case. A fit error is a conformance failure —
	// generated cases are constructed to be fittable.
	Fit func(c *Case) (*Fit, error)
	// Invariants checks the learner's mathematical invariants against
	// the fitted model; nil when the relations cover everything.
	Invariants func(c *Case, f *Fit) error
	// Relations are the metamorphic relations the learner must satisfy.
	Relations []Relation
	// Persisted marks models that must also pass the differential
	// scoring-path driver (DiffPaths).
	Persisted bool
}

var registry = map[string]Conformer{}

// Register adds a conformer; duplicate names are a programming error.
func Register(c Conformer) {
	if c.Name == "" || c.Pkg == "" {
		panic("testkit: conformer needs Name and Pkg")
	}
	if _, dup := registry[c.Name]; dup {
		panic("testkit: duplicate conformer " + c.Name)
	}
	if c.Cases <= 0 {
		c.Cases = 4
	}
	registry[c.Name] = c
}

// All returns the registered conformers sorted by name.
func All() []Conformer {
	out := make([]Conformer, 0, len(registry))
	for _, c := range registry {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup finds a conformer by registry name.
func Lookup(name string) (Conformer, bool) {
	c, ok := registry[name]
	return c, ok
}

// Case derives the conformer's case for (seed, idx). The derivation
// mixes the conformer name and the index into the seed, so every
// conformer and every index draws from an independent stream, and the
// whole case is a pure function of (seed, name, idx) — the complete
// reproduction recipe a failure report prints.
func (c Conformer) Case(seed int64, idx int) *Case {
	stream := Mix(MixString(seed, c.Name), int64(idx))
	cs := c.Gen(rand.New(rand.NewSource(stream)), idx)
	cs.Seed = seed
	cs.Index = idx
	cs.stream = stream
	return cs
}

// Check runs the full conformance contract on one case: fit, the
// learner's invariants, every metamorphic relation, and (for persisted
// kinds) the differential scoring-path driver. The first violation is
// returned.
func (c Conformer) Check(cs *Case) error {
	f, err := c.Fit(cs)
	if err != nil {
		return fmt.Errorf("fit: %w", err)
	}
	base := f.Predict(cs.Probes)
	if c.Invariants != nil {
		if err := c.Invariants(cs, f); err != nil {
			return fmt.Errorf("invariant: %w", err)
		}
	}
	for _, rel := range c.Relations {
		r := rand.New(rand.NewSource(MixString(Mix(cs.Seed, int64(cs.Index)), rel.Transform.Name)))
		cs2, oracle := rel.Transform.Apply(r, cs)
		f2, err := c.Fit(cs2)
		if err != nil {
			return fmt.Errorf("relation %s: refit: %w", rel.Transform.Name, err)
		}
		got := f2.Predict(cs2.Probes)
		if err := rel.Tol.Compare(oracle(base), got); err != nil {
			return fmt.Errorf("relation %s: %w", rel.Transform.Name, err)
		}
	}
	if c.Persisted && f.Model != nil {
		if err := DiffPaths(f.Model, cs.Probes); err != nil {
			return fmt.Errorf("differential: %w", err)
		}
	}
	return nil
}

// Failure is one conformance violation, carrying everything needed to
// reproduce and debug it: the replay recipe, the error, and the size of
// the shrunk training set that still fails.
type Failure struct {
	Conformer string
	Seed      int64
	Index     int
	Err       error
	// MinimalRows is the training-set size after shrinking (0 when
	// shrinking could not reduce the case).
	MinimalRows int
	// Hint is the copy-pasteable replay one-liner.
	Hint string
}

func (f Failure) String() string {
	return fmt.Sprintf("%s case %d (seed %d): %v\n  shrunk to %d training rows; replay with %s",
		f.Conformer, f.Index, f.Seed, f.Err, f.MinimalRows, f.Hint)
}

// Run sweeps n cases from the seed and returns every failure, each
// already shrunk to a minimal training subset.
func (c Conformer) Run(seed int64, n int) []Failure {
	var fails []Failure
	for idx := 0; idx < n; idx++ {
		cs := c.Case(seed, idx)
		err := c.Check(cs)
		if err == nil {
			continue
		}
		minimal := ShrinkRows(cs, func(cand *Case) bool { return c.Check(cand) != nil })
		fails = append(fails, Failure{
			Conformer:   c.Name,
			Seed:        seed,
			Index:       idx,
			Err:         err,
			MinimalRows: minimal.Train.Len(),
			Hint:        ReplayHint(seed, c.Name, idx),
		})
	}
	return fails
}

// Replay re-derives the case for (seed, name, index) and re-runs the
// full conformance check — the one-liner a failure report prints.
func Replay(seed int64, name string, index int) error {
	c, ok := Lookup(name)
	if !ok {
		return fmt.Errorf("testkit: no conformer %q", name)
	}
	return c.Check(c.Case(seed, index))
}

// ReplayHint formats the replay call for a failure report.
func ReplayHint(seed int64, name string, index int) string {
	return fmt.Sprintf("testkit.Replay(%d, %q, %d)", seed, name, index)
}
