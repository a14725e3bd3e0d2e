package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// simdModes runs fn as a subtest with the assembly bodies on, where this
// machine passed their init check, and again with them forced off.
func simdModes(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	defer func(prev bool) { useSIMD = prev }(useSIMD)
	on := useSIMD
	for _, mode := range []struct {
		name string
		on   bool
	}{{"simd", true}, {"go", false}} {
		if mode.on && !on {
			t.Logf("the SIMD bodies are off on this machine; %s runs the Go code", mode.name)
		}
		useSIMD = mode.on && on
		t.Run(mode.name, fn)
	}
}

// checkExpScaled runs ExpScaled(v, c) and compares every value with
// math.Exp(c·v[j]), bit for bit (any NaN matches any NaN).
func checkExpScaled(t *testing.T, v []float64, c float64) {
	t.Helper()
	want := make([]float64, len(v))
	for j, x := range v {
		want[j] = math.Exp(c * x)
	}
	in := append([]float64(nil), v...)
	ExpScaled(v, c)
	for j := range v {
		if !bitsEqual(v[j], want[j]) {
			t.Fatalf("ExpScaled(c=%v) value %d of %d: exp(%v) = %x, math.Exp %x",
				c, j, len(v), c*in[j], math.Float64bits(v[j]), math.Float64bits(want[j]))
		}
	}
}

// expArgs fills v with c·v[j] drawn uniformly from [-746, 710]: every
// finite result of math.Exp, from a zero through subnormals to
// MaxFloat64, and just past both ends.
func expArgs(r *rand.Rand, v []float64, c float64) {
	for j := range v {
		v[j] = (-746 + 1456*r.Float64()) / c
	}
}

// TestExpScaledMatchesExp is ExpScaled's oracle: over 10 M values it
// equals math.Exp bit for bit, at scales c that RBF kernels use.
func TestExpScaledMatchesExp(t *testing.T) {
	simdModes(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(22))
		total := 10_000_000
		if testing.Short() {
			total /= 10
		}
		scales := []float64{1, -1, -0.5, -1.0 / 12, -0.0625, -0.37}
		v := make([]float64, 4099)
		for done := 0; done < total; done += len(v) {
			c := scales[r.Intn(len(scales))]
			expArgs(r, v, c)
			checkExpScaled(t, v, c)
		}
	})
}

// expEdges are the arguments where math.Exp leaves its normal-result
// path or rounds at a boundary: ±0, the smallest normal result
// (−708.39…), the last subnormal one (−745.13…), subnormal results,
// overflow (709.78…), NaN, ±Inf, and values below −2³¹/log2e, whose
// exponent does not fit in 32 bits.
var expEdges = []float64{
	0, math.Copysign(0, -1),
	-708.3964185322641, math.Nextafter(-708.3964185322641, 0), math.Nextafter(-708.3964185322641, -1000),
	-708.75, -709.08956571282405, -709.1, -709.43, -709.44,
	-720, -740, -745.1332191019411, math.Nextafter(-745.1332191019411, 0), -745.1332191019412, -746, -800,
	709.78, 709.782712893384, math.Nextafter(709.782712893384, 1000), 709.79, 710, 1e300,
	math.NaN(), math.Inf(1), math.Inf(-1),
	-math.Exp2(31) / math.Log2E, -1.0000001 * math.Exp2(31) / math.Log2E, -1e10, -1e300,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	1e-300, -1e-300, 1, -1,
}

// TestExpScaledEdges puts every edge argument in every lane of a group
// of four between in-range groups, then fills whole groups with edges,
// and checks each value against math.Exp.
func TestExpScaledEdges(t *testing.T) {
	simdModes(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(23))
		v := make([]float64, 12)
		for _, e := range expEdges {
			for lane := 0; lane < 4; lane++ {
				for j := range v {
					v[j] = -700 + 1400*r.Float64()
				}
				v[4+lane] = e
				checkExpScaled(t, v, 1)
			}
		}
		edges := append([]float64(nil), expEdges...)
		for trial := 0; trial < 200; trial++ {
			r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
			checkExpScaled(t, append([]float64(nil), edges...), 1)
		}
	})
}

// TestExpScaledLengths covers every length 0–19, so every count of
// whole groups and every tail, with an edge argument in a random lane.
func TestExpScaledLengths(t *testing.T) {
	simdModes(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(24))
		for n := 0; n <= 19; n++ {
			for trial := 0; trial < 50; trial++ {
				v := make([]float64, n)
				expArgs(r, v, -0.5)
				if n > 0 && trial%2 == 1 {
					v[r.Intn(n)] = expEdges[r.Intn(len(expEdges))]
				}
				checkExpScaled(t, v, -0.5)
			}
		}
	})
}

// TestAVX2OffLastSettingWins: the last cpu.avx2 or cpu.all setting
// whose value is on or off decides, as the runtime reads GODEBUG.
func TestAVX2OffLastSettingWins(t *testing.T) {
	for godebug, want := range map[string]bool{
		"":                                  false,
		"cpu.avx2=off":                      true,
		"cpu.all=off":                       true,
		"cpu.fma=off":                       false,
		"gctrace=1,cpu.avx2=off,panicnil=1": true,
		"cpu.avx2=off,cpu.avx2=on":          false,
		"cpu.all=off,cpu.avx2=on":           false,
		"cpu.avx2=off,cpu.all=on":           false,
		"cpu.avx2=on,cpu.all=off":           true,
		"cpu.avx2=off,cpu.avx2=no":          true,
	} {
		if got := avx2Off(godebug); got != want {
			t.Errorf("GODEBUG=%q: avx2Off = %v, want %v", godebug, got, want)
		}
	}
}

func BenchmarkExpScaled(b *testing.B) {
	r := rand.New(rand.NewSource(25))
	src := make([]float64, 1024)
	for j := range src {
		src[j] = 40 * r.Float64()
	}
	v := make([]float64, len(src))
	b.SetBytes(int64(8 * len(v)))
	for i := 0; i < b.N; i++ {
		copy(v, src)
		ExpScaled(v, -1.0/12)
	}
}
