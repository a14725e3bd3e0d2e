package model

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"runtime/debug"
	"testing"
)

// edgeFloats sit on encoding/json's format boundaries: zeros, the
// 1e-6 and 1e21 cut-offs, one- and three-digit exponents, subnormals
// and the extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789.125, -2.5e-3,
	1e-6, 9.999999999999999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 1e-100, 1e-308,
	5e-324, -5e-324, 2.2250738585072014e-308, 9.99999999999999e20, 1e21,
	-1e21, 1.7976931348623157e308, 1e300, 12345678901234567890,
}

// TestMarshalPayloadMatchesJSON: marshalPayload writes every payload
// struct exactly as json.Marshal does, omitempty fields present and
// absent, with floats on every format boundary.
func TestMarshalPayloadMatchesJSON(t *testing.T) {
	m := matrixJSON{Rows: 5, Cols: 5, Data: edgeFloats}
	empty := matrixJSON{}
	leaf := &treeNodeJSON{Leaf: true, Value: -1e-7, N: 3}
	cls := [2]float64{-1, 1}
	cases := map[string]any{
		"svc":      svcPayload{SV: m, Alpha: edgeFloats, B: 1e21, Classes: cls},
		"svc-nil":  svcPayload{},
		"oneclass": oneClassPayload{SV: m, Alpha: edgeFloats[:3], Rho: 5e-324, Nu: 0.25},
		"ridge":    ridgePayload{W: []float64{}, B: math.Copysign(0, -1)},
		"gp":       gpPayload{X: m, Alpha: edgeFloats, Chol: empty, Mean: 1e-6, Noise: 1e-10},
		"tree": treePayload{MaxDepth: 4, MinLeaf: 1, Regression: true, Root: &treeNodeJSON{
			Feature: 2, Threshold: 0.5, Left: leaf, Right: &treeNodeJSON{Threshold: -3, Left: leaf, Right: leaf},
		}},
		"tree-nil": treePayload{},
		"rules": ruleSetPayload{Target: 1, Default: -1, Rules: []ruleJSON{
			{Conditions: []conditionJSON{{Feature: 1, Threshold: 2.5, Name: `<a & "b">` + "\u2028é\x01"}, {Op: 1}},
				Class: 1, WRAcc: 0.0625, Coverage: 9, Positives: 7},
			{},
		}},
		"rules-nil":   ruleSetPayload{},
		"approx-rff":  approxLinearPayload{Proj: m, Phase: edgeFloats[:4], W: edgeFloats, Bias: 1e-7, Classes: &cls},
		"approx-nys":  approxLinearPayload{Proj: m, Phase: []float64{}, Whiten: &m, W: []float64{1}},
		"approx-zero": approxLinearPayload{},
	}
	for name, v := range cases {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: json.Marshal: %v", name, err)
		}
		got, err := marshalPayload(v)
		if err != nil {
			t.Fatalf("%s: marshalPayload: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
}

// TestMarshalPayloadFloats: random bit patterns and random magnitudes
// encode as json.Marshal encodes them.
func TestMarshalPayloadFloats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := make([]float64, 0, 200000)
	for len(v) < cap(v)/2 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			v = append(v, f)
		}
	}
	for len(v) < cap(v) {
		v = append(v, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	want, err := json.Marshal(ridgePayload{W: v})
	if err != nil {
		t.Fatal(err)
	}
	got, err := marshalPayload(ridgePayload{W: v})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%d random floats encode differently from json.Marshal", len(v))
	}
}

// TestMarshalPayloadErrors: a non-finite float is json.Marshal's own
// error, and a type the encoder does not cover is an error, not output.
func TestMarshalPayloadErrors(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v := oneClassPayload{Alpha: []float64{1, f}}
		_, want := json.Marshal(v)
		_, got := marshalPayload(v)
		var uv *json.UnsupportedValueError
		if !errors.As(got, &uv) || got.Error() != want.Error() {
			t.Errorf("%v: error %v, want %v", f, got, want)
		}
	}
	type embedded struct{ ridgePayload }
	for _, v := range []any{
		map[string]float64{"a": 1},
		struct {
			N uint `json:"n"`
		}{},
		struct {
			B []byte `json:"b"`
		}{},
		struct {
			F float64 `json:"f,string"`
		}{},
		struct {
			F float64 `json:"f-g"`
		}{},
		embedded{},
	} {
		if b, err := marshalPayload(v); err == nil {
			t.Errorf("%T: encoded as %s, want an error", v, b)
		}
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestMarshalPayloadReusesScratch: after the first call, encoding a
// payload allocates only the returned copy; the scratch it was built in
// is reused.
func TestMarshalPayloadReusesScratch(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	p := oneClassPayload{SV: matrixJSON{Rows: 64, Cols: 16, Data: make([]float64, 64*16)}, Alpha: edgeFloats}
	for i := range p.SV.Data {
		p.SV.Data[i] = float64(i) / 7
	}
	var v any = p // boxed once, outside the count
	if _, err := marshalPayload(v); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { marshalPayload(v) }); n > 1 {
		t.Fatalf("marshalPayload allocates %v times per call, want 1 (the returned copy)", n)
	}
}

// TestGoldenPayloadsReencode: decoding each committed v1 artifact and
// encoding its model again reproduces the payload's checksum.
func TestGoldenPayloadsReencode(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "golden_v1_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, p := range paths {
		if filepath.Base(p) == "golden_v1_expect.json" {
			continue
		}
		art, err := Load(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		again, err := Encode(art.Model, Meta{})
		if err != nil {
			t.Fatalf("%s: encode: %v", p, err)
		}
		if again.Checksum() != art.Checksum() {
			t.Errorf("%s: re-encoded checksum %s, file %s", p, again.Checksum(), art.Checksum())
		}
		n++
	}
	if n != len(Kinds()) {
		t.Fatalf("re-encoded %d golden artifacts, want one per kind (%d)", n, len(Kinds()))
	}
}

// BenchmarkMarshalPayload encodes a one-class payload of 1024 support
// vectors in 12 dimensions, the size of loop-isa's refreshed models,
// with json.Marshal and with marshalPayload.
func BenchmarkMarshalPayload(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sv := matrixJSON{Rows: 1024, Cols: 12, Data: make([]float64, 1024*12)}
	for i := range sv.Data {
		sv.Data[i] = rng.NormFloat64()
	}
	alpha := make([]float64, 1024)
	for i := range alpha {
		alpha[i] = rng.Float64() / 256
	}
	p := oneClassPayload{SV: sv, Alpha: alpha, Rho: 0.5, Nu: 0.25}
	for _, enc := range []struct {
		name string
		fn   func(any) ([]byte, error)
	}{{"json", json.Marshal}, {"payload", marshalPayload}} {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := enc.fn(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
