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
// the k at which its underflow branch starts and ends (k = −1023 near
// −709.09, k = −1074 near −744.44, k = −1075 near −745.13, and the
// half-way points between k's), overflow (709.78…), NaN, ±Inf, and
// values below −2³¹/log2e, whose exponent does not fit in 32 bits.
var expEdges = append([]float64{
	0, math.Copysign(0, -1),
	-708.3964185322641, math.Nextafter(-708.3964185322641, 0), math.Nextafter(-708.3964185322641, -1000),
	-708.75, -709.08956571282405, -709.1, -709.43, -709.44,
	-720, -740, -745.1332191019411, math.Nextafter(-745.1332191019411, 0), -745.1332191019412, -746, -800,
	709.78, 709.782712893384, math.Nextafter(709.782712893384, 1000), 709.79, 710, 1e300,
	math.NaN(), math.Inf(1), math.Inf(-1),
	-math.Exp2(31) / math.Log2E, -1.0000001 * math.Exp2(31) / math.Log2E, -1e10, -1e300,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	1e-300, -1e-300, 1, -1,
}, withNeighbours(
	-708.40, -709.09, -744.44, -745.13, -745.1332191019412,
	-1022.5*math.Ln2, -1023.5*math.Ln2, -1074.5*math.Ln2, -1075.5*math.Ln2, -1076.5*math.Ln2,
)...)

// withNeighbours returns each value with the floats just above and below
// it.
func withNeighbours(vs ...float64) []float64 {
	var out []float64
	for _, v := range vs {
		out = append(out, math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1)))
	}
	return out
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

// TestExpScaledUnderflowInLanes pins which groups the assembly writes
// itself: every group whose arguments lie in [−745.2, −708.4] (math.Exp's
// underflow branch, subnormal and zero results), lie below −746, or are
// −Inf, mixed with in-range arguments, so that none of them falls back
// to math.Exp. It still stops before a group holding NaN, +Inf, or an
// argument whose k is 1024 or that overflows.
func TestExpScaledUnderflowInLanes(t *testing.T) {
	if !useSIMD {
		t.Skip("the SIMD bodies are off on this machine")
	}
	r := rand.New(rand.NewSource(27))
	under := []func() float64{
		func() float64 { return -745.2 + (745.2-708.4)*r.Float64() },
		func() float64 { return -746 - math.Exp(40*r.Float64()) },
		func() float64 { return math.Inf(-1) },
	}
	const c = -0.5
	v := make([]float64, 4*256)
	for j := range v {
		if r.Intn(3) == 0 {
			v[j] = -700 + 1400*r.Float64()
		} else {
			v[j] = under[r.Intn(len(under))]()
		}
	}
	for g := 0; g < len(v); g += 4 {
		v[g+r.Intn(4)] = under[r.Intn(len(under))]() // every group underflows
	}
	want := make([]float64, len(v))
	for j := range v {
		want[j] = math.Exp(v[j])
		v[j] /= c
	}
	if n := expScaled4(v, c); n != len(v) {
		t.Fatalf("expScaled4 wrote %d of %d values, all of them underflow or in range", n, len(v))
	}
	for j := range v {
		if !bitsEqual(v[j], want[j]) {
			t.Fatalf("value %d: %x, math.Exp %x", j, math.Float64bits(v[j]), math.Float64bits(want[j]))
		}
	}

	// k = 1024 from 709.44 up; 709.6 is still below the overflow
	// threshold, which math.Exp handles apart.
	for _, stop := range []float64{math.NaN(), math.Inf(1), 709.44, 709.6, 709.79, 1e10} {
		for lane := 0; lane < 4; lane++ {
			v := make([]float64, 12)
			for j := range v {
				v[j] = under[r.Intn(len(under))]() / c
			}
			v[4+lane] = stop / c
			in := append([]float64(nil), v...)
			if n := expScaled4(v, c); n != 4 {
				t.Fatalf("%v in lane %d: expScaled4 wrote %d values, want the 4 before its group", stop, lane, n)
			}
			for j := 4; j < len(v); j++ {
				if !bitsEqual(v[j], in[j]) {
					t.Fatalf("%v in lane %d: value %d changed after the stop", stop, lane, j)
				}
			}
		}
	}
}

// TestAXPY4MatchesAXPY: AXPY4 equals four AXPY calls in turn, bit for
// bit, at every length 0–19 (every count of whole groups and every
// tail) and at 1024, with zeros of both signs among the values.
func TestAXPY4MatchesAXPY(t *testing.T) {
	simdModes(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(28))
		value := func() float64 {
			switch r.Intn(8) {
			case 0:
				return 0
			case 1:
				return math.Copysign(0, -1)
			}
			return r.NormFloat64() * math.Exp(8*r.NormFloat64())
		}
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 1024} {
			for trial := 0; trial < 20; trial++ {
				var a [4]float64
				var x [4][]float64
				for q := range x {
					a[q] = value()
					x[q] = make([]float64, n)
					for i := range x[q] {
						x[q][i] = value()
					}
				}
				y := make([]float64, n)
				for i := range y {
					y[i] = value()
				}
				want := append([]float64(nil), y...)
				for q := range x {
					AXPY(a[q], x[q], want)
				}
				AXPY4(a, x, y)
				for i := range y {
					if !bitsEqual(y[i], want[i]) {
						t.Fatalf("n=%d value %d: AXPY4 %x, four AXPYs %x", n, i, math.Float64bits(y[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	})
}

// refStepScan is StepScan as two passes, the update and then a scan
// for the first minimum and maximum.
func refStepScan(y []float64, t float64, u, w, a []float64, below, above float64) Extremes {
	for r := range y {
		y[r] += t * (u[r] - w[r])
	}
	e := Extremes{IMin: -1, IMax: -1, Min: math.Inf(1), Max: math.Inf(-1)}
	for r, v := range y {
		if a[r] < below && v < e.Min {
			e.IMin, e.Min = r, v
		}
		if a[r] > above && v > e.Max {
			e.IMax, e.Max = r, v
		}
	}
	return e
}

// TestStepScanMatchesTwoPasses: StepScan's update and selection equal
// refStepScan's at every length 0–19 and at 63–65 and 1024. The values
// come from a set of six, so ties are frequent, both within a lane and
// across lanes and the tail; a sits at, just inside and just outside
// both limits; and NaN and ±Inf appear among the values.
func TestStepScanMatchesTwoPasses(t *testing.T) {
	simdModes(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(29))
		const below, above = 0.75, 1e-12
		values := []float64{-1, 0.5, 2, math.Inf(1), math.Inf(-1), math.NaN()}
		limits := []float64{0, above, math.Nextafter(above, 1), below, math.Nextafter(below, 0), 0.3, 1}
		lengths := []int{63, 64, 65, 1024}
		for n := 0; n <= 19; n++ {
			lengths = append(lengths, n)
		}
		for _, n := range lengths {
			for trial := 0; trial < 50; trial++ {
				y, u, w, a := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
				for i := range y {
					y[i] = values[r.Intn(3)]
					if r.Intn(20) == 0 {
						y[i] = values[r.Intn(len(values))]
					}
					u[i], w[i] = float64(r.Intn(3)), float64(r.Intn(3))
					a[i] = limits[r.Intn(len(limits))]
				}
				step := []float64{0, 0.25, -3}[trial%3]
				want := append([]float64(nil), y...)
				we := refStepScan(want, step, u, w, a, below, above)
				got := StepScan(y, step, u, w, a, below, above)
				for i := range y {
					if !bitsEqual(y[i], want[i]) {
						t.Fatalf("n=%d t=%v value %d: %v, reference %v", n, step, i, y[i], want[i])
					}
				}
				if got != we {
					t.Fatalf("n=%d t=%v: StepScan %+v, reference %+v", n, step, got, we)
				}
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

// BenchmarkExpScaled times 1024 exps of an RBF row at c = −1/12. In
// "in-range" every result is normal; in "underflow" every argument lies
// in [−800, −709], so every result is subnormal or zero; "cross-shift"
// mixes the two in runs of 1–8 values, 60% of them underflowing, as the
// kernel rows between two regimes of a shifted stream do. Each case
// reports the share of four-lane groups that hold an underflowing lane.
func BenchmarkExpScaled(b *testing.B) {
	r := rand.New(rand.NewSource(25))
	normal := func() float64 { return 40 * r.Float64() }
	under := func() float64 { return 12 * (709 + 91*r.Float64()) }
	cases := []struct {
		name string
		fill func(src []float64)
	}{
		{"in-range", func(src []float64) {
			for j := range src {
				src[j] = normal()
			}
		}},
		{"underflow", func(src []float64) {
			for j := range src {
				src[j] = under()
			}
		}},
		{"cross-shift", func(src []float64) {
			for j := 0; j < len(src); {
				draw := normal
				if r.Float64() < 0.6 {
					draw = under
				}
				for end := min(len(src), j+1+r.Intn(8)); j < end; j++ {
					src[j] = draw()
				}
			}
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			src := make([]float64, 1024)
			tc.fill(src)
			groups := 0
			for g := 0; g < len(src); g += 4 {
				for _, x := range src[g : g+4] {
					if x/12 > 708.39 {
						groups++
						break
					}
				}
			}
			v := make([]float64, len(src))
			b.SetBytes(int64(8 * len(v)))
			for i := 0; i < b.N; i++ {
				copy(v, src)
				ExpScaled(v, -1.0/12)
			}
			b.ReportMetric(float64(groups)/float64(len(src)/4), "underflow-groups")
		})
	}
}
