package model

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gp"
	"repro/internal/kernel"
	"repro/internal/kernel/approx"
	"repro/internal/linalg"
	"repro/internal/linear"
	"repro/internal/rules"
	"repro/internal/svm"
	"repro/internal/tree"
)

// floatPaths lists the float fields of a payload type by JSON path, as
// "sv.data" or "rules.conditions.threshold": slices, arrays and
// pointers are transparent, and a struct type that recurs (a tree
// node's children) is listed once, under its first path.
func floatPaths(t reflect.Type, prefix string, seen map[reflect.Type]bool) []string {
	switch t.Kind() {
	case reflect.Float64:
		return []string{prefix}
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return floatPaths(t.Elem(), prefix, seen)
	case reflect.Struct:
		if seen[t] {
			return nil
		}
		seen[t] = true
		var out []string
		for i := range t.NumField() {
			f := t.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if !f.IsExported() || name == "-" {
				continue
			}
			if prefix != "" {
				name = prefix + "." + name
			}
			out = append(out, floatPaths(f.Type, name, seen)...)
		}
		return out
	}
	return nil
}

// poisonSite is a model whose payload carries v at one float path, and
// finite values everywhere else.
type poisonSite struct {
	payload any // the kind's payload struct, zero
	path    string
	model   func(v float64) any
}

// poisonSites covers every float path of every payload struct: each
// model kind and the compiled approx-linear form, through both feature
// maps.
func poisonSites(t *testing.T) []poisonSite {
	k := kernel.RBF{Gamma: 0.5}
	m22 := func(v float64) *linalg.Matrix {
		return &linalg.Matrix{Rows: 2, Cols: 2, Data: []float64{1, v, 0, 1}}
	}
	vec := func(v float64) []float64 { return []float64{0.5, v} }
	// An argument of NaN marks the float that takes the site's value.
	pick := func(x, v float64) float64 {
		if math.IsNaN(x) {
			return v
		}
		return x
	}
	svc := func(sv, alpha, b, cls float64) func(float64) any {
		return func(v float64) any {
			return svm.RestoreSVC(k, m22(pick(sv, v)), vec(pick(alpha, v)), pick(b, v), [2]float64{-1, pick(cls, v)})
		}
	}
	oneClass := func(set func(m *svm.OneClass, v float64)) func(float64) any {
		return func(v float64) any {
			m := &svm.OneClass{K: k, SV: m22(0), Alpha: vec(0.5), Rho: 0.2, Nu: 0.5}
			set(m, v)
			return m
		}
	}
	gpModel := func(x, alpha, chol, mean, noise float64) func(float64) any {
		return func(v float64) any {
			return gp.Restore(k, m22(pick(x, v)), vec(pick(alpha, v)), m22(pick(chol, v)), pick(mean, v), pick(noise, v))
		}
	}
	leaf := func(v float64) *tree.Node { return &tree.Node{Leaf: true, Value: v} }
	ruleSet := func(threshold, wracc float64) func(float64) any {
		return func(v float64) any {
			return &rules.RuleSet{Rules: []*rules.Rule{{
				Conditions: []rules.Condition{{Feature: 0, Op: rules.LE, Threshold: pick(threshold, v)}},
				Class:      1, WRAcc: pick(wracc, v),
			}}, Target: 1}
		}
	}
	// compiled wraps a feature map in an SVC-sourced approx-linear model
	// and lets set poison one of its floats.
	compiled := func(nystrom bool, set func(m *ApproxModel, v float64)) func(float64) any {
		return func(v float64) any {
			var fm approx.FeatureMap
			var err error
			if nystrom {
				fm, err = approx.RestoreNystrom(k, m22(0), m22(0))
			} else {
				fm, err = approx.RestoreRFF(m22(0), vec(0))
			}
			if err != nil {
				t.Fatal(err)
			}
			m := &ApproxModel{
				SourceKind: KindSVC,
				Spec:       ApproxSpec{Method: ApproxRFF, Dim: 2, Seed: 1},
				Kernel:     rbfSpec(),
				Lin:        &approx.Linear{Map: fm, W: vec(1), Bias: 0.1},
				Classes:    [2]float64{-1, 1},
			}
			if nystrom {
				m.Spec.Method = ApproxNystrom
			}
			set(m, v)
			return m
		}
	}
	nan := math.NaN()
	return []poisonSite{
		{svcPayload{}, "sv.data", svc(nan, 1, 0.1, 1)},
		{svcPayload{}, "alpha", svc(0, nan, 0.1, 1)},
		{svcPayload{}, "b", svc(0, 1, nan, 1)},
		{svcPayload{}, "classes", svc(0, 1, 0.1, nan)},
		{oneClassPayload{}, "sv.data", oneClass(func(m *svm.OneClass, v float64) { m.SV.Data[1] = v })},
		{oneClassPayload{}, "alpha", oneClass(func(m *svm.OneClass, v float64) { m.Alpha[1] = v })},
		{oneClassPayload{}, "rho", oneClass(func(m *svm.OneClass, v float64) { m.Rho = v })},
		{oneClassPayload{}, "nu", oneClass(func(m *svm.OneClass, v float64) { m.Nu = v })},
		{ridgePayload{}, "w", func(v float64) any { return &linear.Regression{W: vec(v), B: 0.5} }},
		{ridgePayload{}, "b", func(v float64) any { return &linear.Regression{W: vec(1), B: v} }},
		{gpPayload{}, "x.data", gpModel(nan, 1, 1, 0.1, 0.01)},
		{gpPayload{}, "alpha", gpModel(0, nan, 1, 0.1, 0.01)},
		{gpPayload{}, "chol.data", gpModel(0, 1, nan, 0.1, 0.01)},
		{gpPayload{}, "mean", gpModel(0, 1, 1, nan, 0.01)},
		{gpPayload{}, "noise", gpModel(0, 1, 1, 0.1, nan)},
		{treePayload{}, "root.threshold", func(v float64) any {
			return &tree.Tree{Root: &tree.Node{Feature: 0, Threshold: v, Left: leaf(0), Right: leaf(1)}}
		}},
		{treePayload{}, "root.value", func(v float64) any { return &tree.Tree{Root: leaf(v)} }},
		{ruleSetPayload{}, "rules.conditions.threshold", ruleSet(nan, 0.1)},
		{ruleSetPayload{}, "rules.wracc", ruleSet(0.5, nan)},
		{approxLinearPayload{}, "proj.data", compiled(false, func(m *ApproxModel, v float64) {
			m.Lin.Map.(*approx.RFF).Omega.Data[1] = v
		})},
		{approxLinearPayload{}, "phase", compiled(false, func(m *ApproxModel, v float64) {
			m.Lin.Map.(*approx.RFF).Phase[1] = v
		})},
		{approxLinearPayload{}, "whiten.data", compiled(true, func(m *ApproxModel, v float64) {
			m.Lin.Map.(*approx.Nystrom).Whiten.Data[1] = v
		})},
		{approxLinearPayload{}, "w", compiled(true, func(m *ApproxModel, v float64) { m.Lin.W[1] = v })},
		{approxLinearPayload{}, "bias", compiled(false, func(m *ApproxModel, v float64) { m.Lin.Bias = v })},
		{approxLinearPayload{}, "classes", compiled(false, func(m *ApproxModel, v float64) { m.Classes[1] = v })},
	}
}

// TestEncodeRefusesNonFinite: for every kind, a model with NaN, +Inf or
// −Inf in any float its payload carries is refused by Encode itself,
// with the error json.Marshal gives, and not left for the first Marshal
// to find. The same model with a finite value there encodes and
// marshals.
func TestEncodeRefusesNonFinite(t *testing.T) {
	sites := poisonSites(t)
	covered := map[reflect.Type]map[string]bool{}
	for _, s := range sites {
		typ := reflect.TypeOf(s.payload)
		if covered[typ] == nil {
			covered[typ] = map[string]bool{}
		}
		covered[typ][s.path] = true
	}
	if len(covered) != len(Kinds())+1 {
		t.Errorf("sites cover %d payload structs, want one per kind and approx-linear's (%d)", len(covered), len(Kinds())+1)
	}
	for typ, paths := range covered {
		for _, p := range floatPaths(typ, "", map[reflect.Type]bool{}) {
			if !paths[p] {
				t.Errorf("%s carries float %s, but no site poisons it", typ.Name(), p)
			}
		}
	}
	for _, s := range sites {
		name := reflect.TypeOf(s.payload).Name() + "." + s.path
		a, err := Encode(s.model(0.25), Meta{Name: "m"})
		if err != nil {
			t.Fatalf("%s = 0.25: Encode: %v", name, err)
		}
		if _, err := a.Marshal(); err != nil {
			t.Fatalf("%s = 0.25: Marshal: %v", name, err)
		}
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			_, want := json.Marshal(v)
			a, err := Encode(s.model(v), Meta{Name: "m"})
			var uv *json.UnsupportedValueError
			if a != nil || !errors.As(err, &uv) || !strings.HasSuffix(err.Error(), want.Error()) {
				t.Errorf("%s = %v: Encode = %v, %v; want %v", name, v, a, err, want)
			}
		}
	}
}
