// Package tree implements CART-style decision trees ([7] in the paper) for
// classification and regression, plus bagged random forests ([8]). Trees
// are one of the model-based learners of Section 2.1 whose "model" is a
// tree rather than an equation; forests illustrate ensemble regularization.
package tree

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/parallel"
)

// Node is one node of a fitted tree.
type Node struct {
	// Internal nodes.
	Feature   int
	Threshold float64
	Left      *Node
	Right     *Node
	// Leaves.
	Leaf  bool
	Value float64 // majority class (classification) or mean (regression)
	N     int     // training samples reaching the node
}

// Config controls tree induction.
type Config struct {
	MaxDepth    int  // default 10
	MinLeaf     int  // minimum samples per leaf, default 1
	Regression  bool // variance reduction instead of Gini
	MaxFeatures int  // consider only this many random features per split (0 = all); used by forests
	seedFeats   func(n int) []int
}

// Tree is a fitted decision tree.
type Tree struct {
	Root   *Node
	Config Config
}

// Fit grows a tree on d.
func Fit(d *dataset.Dataset, cfg Config) (*Tree, error) {
	if d.Len() == 0 {
		return nil, errors.New("tree: empty dataset")
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 10
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 1
	}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	t := &Tree{Config: cfg}
	t.Root = t.grow(d, idx, 0)
	return t, nil
}

func (t *Tree) leafValue(d *dataset.Dataset, idx []int) float64 {
	if t.Config.Regression {
		s := 0.0
		for _, i := range idx {
			s += d.Y[i]
		}
		return s / float64(len(idx))
	}
	counts := map[int]int{}
	for _, i := range idx {
		counts[int(d.Y[i])]++
	}
	best, bestN := 0, -1
	for c, n := range counts {
		if n > bestN || (n == bestN && c < best) {
			best, bestN = c, n
		}
	}
	return float64(best)
}

func (t *Tree) impurity(d *dataset.Dataset, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	if t.Config.Regression {
		mean := 0.0
		for _, i := range idx {
			mean += d.Y[i]
		}
		mean /= float64(len(idx))
		s := 0.0
		for _, i := range idx {
			dd := d.Y[i] - mean
			s += dd * dd
		}
		return s / float64(len(idx))
	}
	counts := map[int]int{}
	for _, i := range idx {
		counts[int(d.Y[i])]++
	}
	g := 1.0
	n := float64(len(idx))
	for _, c := range counts {
		p := float64(c) / n
		g -= p * p
	}
	return g
}

func (t *Tree) grow(d *dataset.Dataset, idx []int, depth int) *Node {
	node := &Node{N: len(idx)}
	imp := t.impurity(d, idx)
	if depth >= t.Config.MaxDepth || len(idx) < 2*t.Config.MinLeaf || imp < 1e-12 {
		node.Leaf = true
		node.Value = t.leafValue(d, idx)
		return node
	}

	feats := t.candidateFeatures(d.Dim())
	bestFeat, bestThr, bestGain := -1, 0.0, 0.0
	var bestLeft, bestRight []int
	for _, f := range feats {
		thr, gain, left, right := t.bestSplitOnFeature(d, idx, f, imp)
		if gain > bestGain {
			bestFeat, bestThr, bestGain = f, thr, gain
			bestLeft, bestRight = left, right
		}
	}
	if bestFeat < 0 {
		node.Leaf = true
		node.Value = t.leafValue(d, idx)
		return node
	}
	node.Feature = bestFeat
	node.Threshold = bestThr
	node.Left = t.grow(d, bestLeft, depth+1)
	node.Right = t.grow(d, bestRight, depth+1)
	return node
}

func (t *Tree) candidateFeatures(dim int) []int {
	if t.Config.MaxFeatures <= 0 || t.Config.MaxFeatures >= dim || t.Config.seedFeats == nil {
		all := make([]int, dim)
		for i := range all {
			all[i] = i
		}
		return all
	}
	perm := t.Config.seedFeats(dim)
	return perm[:t.Config.MaxFeatures]
}

// bestSplitOnFeature scans thresholds between consecutive sorted values,
// maintaining split statistics incrementally so the sweep is O(n log n).
func (t *Tree) bestSplitOnFeature(d *dataset.Dataset, idx []int, f int, parentImp float64) (thr, gain float64, left, right []int) {
	type pv struct {
		v float64
		i int
	}
	vals := make([]pv, len(idx))
	for k, i := range idx {
		vals[k] = pv{d.X.At(i, f), i}
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
	n := len(vals)

	bestGain := 0.0
	bestCut := -1
	if t.Config.Regression {
		// Prefix sums for O(1) variance on both sides.
		var lSum, lSq float64
		var rSum, rSq float64
		for _, p := range vals {
			y := d.Y[p.i]
			rSum += y
			rSq += y * y
		}
		for c := 1; c < n; c++ {
			y := d.Y[vals[c-1].i]
			lSum += y
			lSq += y * y
			rSum -= y
			rSq -= y * y
			if c < t.Config.MinLeaf || n-c < t.Config.MinLeaf || vals[c].v == vals[c-1].v {
				continue
			}
			ln, rn := float64(c), float64(n-c)
			lVar := lSq/ln - (lSum/ln)*(lSum/ln)
			rVar := rSq/rn - (rSum/rn)*(rSum/rn)
			g := parentImp - (ln*lVar+rn*rVar)/float64(n)
			if g > bestGain {
				bestGain, bestCut = g, c
			}
		}
	} else {
		// Compact class indexing, then incremental Gini via Σcount².
		classOf := map[int]int{}
		for _, p := range vals {
			c := int(d.Y[p.i])
			if _, ok := classOf[c]; !ok {
				classOf[c] = len(classOf)
			}
		}
		lCnt := make([]float64, len(classOf))
		rCnt := make([]float64, len(classOf))
		var lSq, rSq float64 // Σ count²
		for _, p := range vals {
			ci := classOf[int(d.Y[p.i])]
			rSq += 2*rCnt[ci] + 1
			rCnt[ci]++
		}
		for c := 1; c < n; c++ {
			ci := classOf[int(d.Y[vals[c-1].i])]
			lSq += 2*lCnt[ci] + 1
			lCnt[ci]++
			rSq -= 2*rCnt[ci] - 1
			rCnt[ci]--
			if c < t.Config.MinLeaf || n-c < t.Config.MinLeaf || vals[c].v == vals[c-1].v {
				continue
			}
			ln, rn := float64(c), float64(n-c)
			lGini := 1 - lSq/(ln*ln)
			rGini := 1 - rSq/(rn*rn)
			g := parentImp - (ln*lGini+rn*rGini)/float64(n)
			if g > bestGain {
				bestGain, bestCut = g, c
			}
		}
	}
	if bestCut < 0 || bestGain <= 1e-12 {
		return 0, 0, nil, nil
	}
	thr = (vals[bestCut-1].v + vals[bestCut].v) / 2
	left = make([]int, bestCut)
	right = make([]int, n-bestCut)
	for k := 0; k < bestCut; k++ {
		left[k] = vals[k].i
	}
	for k := bestCut; k < n; k++ {
		right[k-bestCut] = vals[k].i
	}
	return thr, bestGain, left, right
}

// Predict routes x to a leaf and returns its value.
func (t *Tree) Predict(x []float64) float64 {
	n := t.Root
	for !n.Leaf {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Value
}

// PredictAll predicts every row of d.
func (t *Tree) PredictAll(d *dataset.Dataset) []float64 {
	out := make([]float64, d.Len())
	for i := range out {
		out[i] = t.Predict(d.Row(i))
	}
	return out
}

// PredictBatchInto writes Predict for every row of x into out (length
// x.Rows), striping rows across the worker pool. Routing is read-only
// on the fitted tree, so the result is bit-identical at any worker
// count. The serial path calls the routing loop directly — no closure,
// no goroutines — so a steady-state batch allocates nothing
// (alloc_test.go pins this at 0 allocs/op).
func (t *Tree) PredictBatchInto(x *linalg.Matrix, out []float64) []float64 {
	if len(out) != x.Rows {
		panic("tree: PredictBatchInto output length mismatch")
	}
	if parallel.Workers() <= 1 || x.Rows < batchCutover {
		t.predictRange(x, out, 0, x.Rows)
	} else {
		parallel.ForN(x.Rows, batchCutover, func(lo, hi int) {
			t.predictRange(x, out, lo, hi)
		})
	}
	return out
}

// batchCutover keeps small prediction batches serial: routing a few
// hundred rows is too cheap to amortize goroutine startup.
const batchCutover = 256

func (t *Tree) predictRange(x *linalg.Matrix, out []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] = t.Predict(x.Row(i))
	}
}

// Validate checks the structural partition invariant of a fitted (or
// decoded) tree for inputs of the given width: every internal node has
// both children, a finite threshold, and a feature index inside [0, dim);
// every leaf carries at least one training sample; and each internal
// node's sample count equals the sum of its children's. Together these
// guarantee that any dim-wide input is routed to exactly one leaf — the
// partition-coverage invariant the conformance suite asserts on every
// generated fit and every decoded artifact.
func (t *Tree) Validate(dim int) error {
	if t.Root == nil {
		return errors.New("tree: nil root")
	}
	var rec func(n *Node, path string) error
	rec = func(n *Node, path string) error {
		if n.Leaf {
			if n.N < 1 {
				return fmt.Errorf("tree: leaf at %q has n=%d < 1", path, n.N)
			}
			if math.IsNaN(n.Value) || math.IsInf(n.Value, 0) {
				return fmt.Errorf("tree: leaf at %q has non-finite value %v", path, n.Value)
			}
			return nil
		}
		if n.Left == nil || n.Right == nil {
			return fmt.Errorf("tree: internal node at %q is missing a child", path)
		}
		if n.Feature < 0 || n.Feature >= dim {
			return fmt.Errorf("tree: internal node at %q splits on feature %d outside [0,%d)", path, n.Feature, dim)
		}
		if math.IsNaN(n.Threshold) || math.IsInf(n.Threshold, 0) {
			return fmt.Errorf("tree: internal node at %q has non-finite threshold %v", path, n.Threshold)
		}
		if n.N != 0 && n.Left.N+n.Right.N != n.N {
			return fmt.Errorf("tree: node at %q has n=%d but children sum to %d",
				path, n.N, n.Left.N+n.Right.N)
		}
		if err := rec(n.Left, path+"L"); err != nil {
			return err
		}
		return rec(n.Right, path+"R")
	}
	return rec(t.Root, "/")
}

// Depth returns the depth of the fitted tree (leaf-only tree has depth 0).
func (t *Tree) Depth() int { return depth(t.Root) }

func depth(n *Node) int {
	if n == nil || n.Leaf {
		return 0
	}
	l, r := depth(n.Left), depth(n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Leaves returns the number of leaves.
func (t *Tree) Leaves() int { return leaves(t.Root) }

func leaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.Leaf {
		return 1
	}
	return leaves(n.Left) + leaves(n.Right)
}

// Dump renders the tree as indented text with feature names from d.
func (t *Tree) Dump(names func(int) string) string {
	var b []byte
	var rec func(n *Node, indent string)
	rec = func(n *Node, indent string) {
		if n.Leaf {
			b = append(b, fmt.Sprintf("%sleaf value=%.4g n=%d\n", indent, n.Value, n.N)...)
			return
		}
		name := fmt.Sprintf("f%d", n.Feature)
		if names != nil {
			name = names(n.Feature)
		}
		b = append(b, fmt.Sprintf("%sif %s <= %.4g (n=%d)\n", indent, name, n.Threshold, n.N)...)
		rec(n.Left, indent+"  ")
		rec(n.Right, indent+"  ")
	}
	rec(t.Root, "")
	return string(b)
}

// FeatureImportance accumulates, per feature, the number of training
// samples split on it — a cheap importance proxy.
func (t *Tree) FeatureImportance(dim int) []float64 {
	imp := make([]float64, dim)
	var rec func(n *Node)
	rec = func(n *Node) {
		if n == nil || n.Leaf {
			return
		}
		imp[n.Feature] += float64(n.N)
		rec(n.Left)
		rec(n.Right)
	}
	rec(t.Root)
	total := 0.0
	for _, v := range imp {
		total += v
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}
