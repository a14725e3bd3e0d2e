// Package rules implements rule learning: the CN2-SD subgroup-discovery
// algorithm ([9]) used by the paper's template-refinement (Table 1) and
// speed-path-diagnosis (Figure 10) applications, and Apriori association
// rule mining ([26]). A learned rule such as
//
//	if via45 > 18 and via56 > 15 then slow
//
// is exactly the interpretable, actionable knowledge the paper's Section 5
// calls the purpose of knowledge discovery.
package rules

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/parallel"
)

// Op is a comparison operator in a rule condition.
type Op int

// Supported operators.
const (
	LE Op = iota // feature <= threshold
	GT           // feature >  threshold
)

// Condition is one conjunct of a rule.
type Condition struct {
	Feature   int
	Op        Op
	Threshold float64
	Name      string // feature name for rendering
}

// Matches reports whether sample x satisfies the condition.
func (c Condition) Matches(x []float64) bool {
	if c.Op == LE {
		return x[c.Feature] <= c.Threshold
	}
	return x[c.Feature] > c.Threshold
}

// String renders the condition.
func (c Condition) String() string {
	name := c.Name
	if name == "" {
		name = fmt.Sprintf("f%d", c.Feature)
	}
	op := "<="
	if c.Op == GT {
		op = ">"
	}
	return fmt.Sprintf("%s %s %.4g", name, op, c.Threshold)
}

// Rule is a conjunction of conditions predicting a target class.
type Rule struct {
	Conditions []Condition
	Class      int
	WRAcc      float64 // weighted relative accuracy at selection time
	Coverage   int     // samples covered in the training set
	Positives  int     // covered samples of the target class
}

// Matches reports whether the rule fires on x.
func (r *Rule) Matches(x []float64) bool {
	for _, c := range r.Conditions {
		if !c.Matches(x) {
			return false
		}
	}
	return true
}

// Precision returns Positives/Coverage.
func (r *Rule) Precision() float64 {
	if r.Coverage == 0 {
		return 0
	}
	return float64(r.Positives) / float64(r.Coverage)
}

// String renders the rule.
func (r *Rule) String() string {
	if len(r.Conditions) == 0 {
		return fmt.Sprintf("if true then class=%d", r.Class)
	}
	parts := make([]string, len(r.Conditions))
	for i, c := range r.Conditions {
		parts[i] = c.String()
	}
	return fmt.Sprintf("if %s then class=%d (cov=%d prec=%.2f wracc=%.4f)",
		strings.Join(parts, " and "), r.Class, r.Coverage, r.Precision(), r.WRAcc)
}

// CN2SDConfig controls subgroup discovery.
type CN2SDConfig struct {
	MaxRules      int     // rules to extract, default 5
	MaxConditions int     // conjuncts per rule, default 3
	BeamWidth     int     // beam search width, default 5
	MinCoverage   int     // minimum covered samples, default 2
	Gamma         float64 // multiplicative covering weight in (0,1), default 0.5
	Thresholds    int     // candidate thresholds per feature, default 8
}

// CN2SD runs the CN2-SD weighted-covering subgroup discovery for the given
// target class. Unlike classical CN2, covered examples are down-weighted
// (not removed), so later rules may describe overlapping subgroups; rule
// quality is weighted relative accuracy (WRAcc).
func CN2SD(d *dataset.Dataset, target int, cfg CN2SDConfig) ([]*Rule, error) {
	if d.Len() == 0 {
		return nil, errors.New("rules: empty dataset")
	}
	if cfg.MaxRules <= 0 {
		cfg.MaxRules = 5
	}
	if cfg.MaxConditions <= 0 {
		cfg.MaxConditions = 3
	}
	if cfg.BeamWidth <= 0 {
		cfg.BeamWidth = 5
	}
	if cfg.MinCoverage <= 0 {
		cfg.MinCoverage = 2
	}
	if cfg.Gamma <= 0 || cfg.Gamma >= 1 {
		cfg.Gamma = 0.5
	}
	if cfg.Thresholds <= 0 {
		cfg.Thresholds = 8
	}

	n := d.Len()
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	pos := make([]bool, n)
	anyPos := false
	for i, y := range d.Y {
		if int(y) == target {
			pos[i] = true
			anyPos = true
		}
	}
	if !anyPos {
		return nil, fmt.Errorf("rules: no samples of class %d", target)
	}

	cands := candidateConditions(d, cfg.Thresholds)
	var out []*Rule
	for len(out) < cfg.MaxRules {
		r := beamSearch(d, pos, w, target, cands, cfg)
		if r == nil || r.WRAcc <= 1e-9 {
			break
		}
		out = append(out, r)
		// Down-weight covered positives (weighted covering).
		for i := 0; i < n; i++ {
			if pos[i] && r.Matches(d.Row(i)) {
				w[i] *= cfg.Gamma
			}
		}
	}
	if len(out) == 0 {
		return nil, errors.New("rules: no rule exceeded baseline quality")
	}
	return out, nil
}

// candidateConditions builds threshold candidates from feature quantiles.
func candidateConditions(d *dataset.Dataset, nThr int) []Condition {
	var out []Condition
	sorted := make([]float64, d.Len())
	for j := 0; j < d.Dim(); j++ {
		d.X.ColInto(j, sorted)
		sort.Float64s(sorted)
		seen := map[float64]bool{}
		for t := 1; t <= nThr; t++ {
			q := float64(t) / float64(nThr+1)
			v := sorted[int(q*float64(len(sorted)-1))]
			if seen[v] {
				continue
			}
			seen[v] = true
			name := d.FeatureName(j)
			out = append(out,
				Condition{Feature: j, Op: LE, Threshold: v, Name: name},
				Condition{Feature: j, Op: GT, Threshold: v, Name: name})
		}
	}
	return out
}

// wracc computes the weighted relative accuracy of a condition set:
// (cov/N) * (p(pos|cov) − p(pos)).
func wracc(d *dataset.Dataset, pos []bool, w []float64, conds []Condition) (q float64, cov, covPos int) {
	var wTotal, wPos, wCov, wCovPos float64
	for i := 0; i < d.Len(); i++ {
		wTotal += w[i]
		if pos[i] {
			wPos += w[i]
		}
		matched := true
		for _, c := range conds {
			if !c.Matches(d.Row(i)) {
				matched = false
				break
			}
		}
		if matched {
			wCov += w[i]
			cov++
			if pos[i] {
				wCovPos += w[i]
				covPos++
			}
		}
	}
	if wCov == 0 || wTotal == 0 {
		return 0, cov, covPos
	}
	return (wCov / wTotal) * (wCovPos/wCov - wPos/wTotal), cov, covPos
}

type beamEntry struct {
	conds []Condition
	q     float64
	cov   int
	pos   int
}

func beamSearch(d *dataset.Dataset, pos []bool, w []float64, target int,
	cands []Condition, cfg CN2SDConfig) *Rule {

	beam := []beamEntry{{}}
	var best beamEntry
	best.q = math.Inf(-1)

	for depth := 0; depth < cfg.MaxConditions; depth++ {
		var next []beamEntry
		for _, b := range beam {
			for _, c := range cands {
				if usesFeatureOp(b.conds, c) {
					continue
				}
				conds := append(append([]Condition(nil), b.conds...), c)
				q, cov, cp := wracc(d, pos, w, conds)
				if cov < cfg.MinCoverage {
					continue
				}
				next = append(next, beamEntry{conds, q, cov, cp})
			}
		}
		if len(next) == 0 {
			break
		}
		sort.Slice(next, func(i, j int) bool { return next[i].q > next[j].q })
		if len(next) > cfg.BeamWidth {
			next = next[:cfg.BeamWidth]
		}
		beam = next
		if beam[0].q > best.q {
			best = beam[0]
		}
	}
	if len(best.conds) == 0 {
		return nil
	}
	return &Rule{Conditions: best.conds, Class: target,
		WRAcc: best.q, Coverage: best.cov, Positives: best.pos}
}

// usesFeatureOp avoids stacking a duplicate (feature, op) conjunct.
func usesFeatureOp(conds []Condition, c Condition) bool {
	for _, e := range conds {
		if e.Feature == c.Feature && e.Op == c.Op {
			return true
		}
	}
	return false
}

// CN2Classic runs classical CN2 covering for comparison with CN2-SD: after
// each rule is selected, the covered examples are REMOVED rather than
// down-weighted. The ablation shows why the paper's applications use the
// subgroup-discovery variant: removal fragments overlapping subgroups and
// later rules see ever-thinner data.
func CN2Classic(d *dataset.Dataset, target int, cfg CN2SDConfig) ([]*Rule, error) {
	if d.Len() == 0 {
		return nil, errors.New("rules: empty dataset")
	}
	if cfg.MaxRules <= 0 {
		cfg.MaxRules = 5
	}
	if cfg.MaxConditions <= 0 {
		cfg.MaxConditions = 3
	}
	if cfg.BeamWidth <= 0 {
		cfg.BeamWidth = 5
	}
	if cfg.MinCoverage <= 0 {
		cfg.MinCoverage = 2
	}
	if cfg.Thresholds <= 0 {
		cfg.Thresholds = 8
	}

	remaining := make([]int, d.Len())
	for i := range remaining {
		remaining[i] = i
	}
	var out []*Rule
	for len(out) < cfg.MaxRules && len(remaining) > cfg.MinCoverage {
		sub := d.Subset(remaining)
		pos := make([]bool, sub.Len())
		anyPos := false
		for i, y := range sub.Y {
			if int(y) == target {
				pos[i] = true
				anyPos = true
			}
		}
		if !anyPos {
			break
		}
		w := make([]float64, sub.Len())
		for i := range w {
			w[i] = 1
		}
		cands := candidateConditions(sub, cfg.Thresholds)
		r := beamSearch(sub, pos, w, target, cands, cfg)
		if r == nil || r.WRAcc <= 1e-9 {
			break
		}
		out = append(out, r)
		// Remove everything the rule covers.
		var keep []int
		for i, gi := range remaining {
			if !r.Matches(sub.Row(i)) {
				keep = append(keep, gi)
			}
		}
		remaining = keep
	}
	if len(out) == 0 {
		return nil, errors.New("rules: no rule exceeded baseline quality")
	}
	return out, nil
}

// RuleSet bundles rules for prediction: a sample is classified as the
// target class when any rule fires (paper-style usage: rules feed back to
// an engineer, prediction is secondary).
type RuleSet struct {
	Rules   []*Rule
	Target  int
	Default int
}

// Predict returns Target if any rule fires, Default otherwise.
func (rs *RuleSet) Predict(x []float64) float64 {
	for _, r := range rs.Rules {
		if r.Matches(x) {
			return float64(rs.Target)
		}
	}
	return float64(rs.Default)
}

// Validate checks the structural invariants of a fitted (or decoded)
// rule set for inputs of the given width: every condition uses a known
// operator, a finite threshold, and a feature index inside [0, dim), and
// every rule's bookkeeping satisfies 0 ≤ Positives ≤ Coverage with a
// finite WRAcc. A valid rule set classifies any dim-wide input (some
// rule fires, or the default class applies) — the coverage invariant the
// conformance suite asserts on every generated fit and decoded artifact.
func (rs *RuleSet) Validate(dim int) error {
	for ri, r := range rs.Rules {
		if r.Coverage < 0 || r.Positives < 0 || r.Positives > r.Coverage {
			return fmt.Errorf("rules: rule %d has positives=%d coverage=%d", ri, r.Positives, r.Coverage)
		}
		if math.IsNaN(r.WRAcc) || math.IsInf(r.WRAcc, 0) {
			return fmt.Errorf("rules: rule %d has non-finite wracc %v", ri, r.WRAcc)
		}
		for ci, c := range r.Conditions {
			if c.Op != LE && c.Op != GT {
				return fmt.Errorf("rules: rule %d condition %d has unknown op %d", ri, ci, c.Op)
			}
			if c.Feature < 0 || c.Feature >= dim {
				return fmt.Errorf("rules: rule %d condition %d uses feature %d outside [0,%d)",
					ri, ci, c.Feature, dim)
			}
			if math.IsNaN(c.Threshold) {
				return fmt.Errorf("rules: rule %d condition %d has NaN threshold", ri, ci)
			}
		}
	}
	return nil
}

// PredictAll predicts every row of d.
func (rs *RuleSet) PredictAll(d *dataset.Dataset) []float64 {
	out := make([]float64, d.Len())
	for i := range out {
		out[i] = rs.Predict(d.Row(i))
	}
	return out
}

// PredictBatchInto writes Predict for every row of x into out (length
// x.Rows), striping rows across the worker pool. Rule matching is
// read-only on the fitted set, so the result is bit-identical at any
// worker count. The serial path calls the matching loop directly — no
// closure, no goroutines — so a steady-state batch allocates nothing
// (alloc_test.go pins this at 0 allocs/op).
func (rs *RuleSet) PredictBatchInto(x *linalg.Matrix, out []float64) []float64 {
	if len(out) != x.Rows {
		panic("rules: PredictBatchInto output length mismatch")
	}
	if parallel.Workers() <= 1 || x.Rows < batchCutover {
		rs.predictRange(x, out, 0, x.Rows)
	} else {
		parallel.ForN(x.Rows, batchCutover, func(lo, hi int) {
			rs.predictRange(x, out, lo, hi)
		})
	}
	return out
}

// batchCutover keeps small prediction batches serial: matching a few
// hundred rows is too cheap to amortize goroutine startup.
const batchCutover = 256

func (rs *RuleSet) predictRange(x *linalg.Matrix, out []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = rs.Predict(x.Row(i))
	}
}
