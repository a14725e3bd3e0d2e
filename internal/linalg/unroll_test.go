package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// refDot/refDist2/refMinSum are the pre-unroll plain loops; the unrolled
// kernels must match them bit for bit on every length (the repo-wide
// bit-identity contract) including the remainder tails and adversarial
// values.
func refDot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func refDist2(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

func refMinSum(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		if a[i] < b[i] {
			s += a[i]
		} else {
			s += b[i]
		}
	}
	return s
}

// adversarialPair builds length-n vectors salted with the values the
// conformance generators use to stress numeric paths: ±Inf, NaN,
// subnormals, zeros, and huge magnitudes.
func adversarialPair(r *rand.Rand, n int) (a, b []float64) {
	specials := []float64{
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0, math.Copysign(0, -1), 1e308, -1e308,
	}
	a = make([]float64, n)
	b = make([]float64, n)
	for i := range a {
		if r.Intn(4) == 0 {
			a[i] = specials[r.Intn(len(specials))]
		} else {
			a[i] = r.NormFloat64() * 10
		}
		if r.Intn(4) == 0 {
			b[i] = specials[r.Intn(len(specials))]
		} else {
			b[i] = r.NormFloat64() * 10
		}
	}
	return a, b
}

// bitsEqual compares exact bit patterns, except that any NaN matches
// any NaN: IEEE-754 does not specify NaN payload propagation and the
// compiler's register allocation legitimately flips which operand's
// payload survives `NaN + NaN`, even between two compilations of the
// same source loop. The repo's bit-identity contract is about scoring
// *paths inside one binary* agreeing — they all share these kernels —
// not about NaN payload stability across code shapes.
func bitsEqual(x, y float64) bool {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.IsNaN(x) && math.IsNaN(y)
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

func TestUnrolledKernelsBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for n := 0; n <= 67; n++ {
		for rep := 0; rep < 8; rep++ {
			a, b := adversarialPair(r, n)
			if got, want := dotUnrolled(a, b), refDot(a, b); !bitsEqual(got, want) {
				t.Fatalf("dot n=%d: got %x want %x", n, math.Float64bits(got), math.Float64bits(want))
			}
			if got, want := dist2Unrolled(a, b), refDist2(a, b); !bitsEqual(got, want) {
				t.Fatalf("dist2 n=%d: got %x want %x", n, math.Float64bits(got), math.Float64bits(want))
			}
			if got, want := minSumUnrolled(a, b), refMinSum(a, b); !bitsEqual(got, want) {
				t.Fatalf("minsum n=%d: got %x want %x", n, math.Float64bits(got), math.Float64bits(want))
			}
			y1 := append([]float64(nil), b...)
			y2 := append([]float64(nil), b...)
			alpha := r.NormFloat64()
			addScaled(y1, a, alpha)
			for i, v := range a {
				y2[i] += alpha * v
			}
			for i := range y1 {
				if !bitsEqual(y1[i], y2[i]) {
					t.Fatalf("addScaled n=%d elem %d: got %x want %x",
						n, i, math.Float64bits(y1[i]), math.Float64bits(y2[i]))
				}
			}
		}
	}
}

// TestIntoVariantsMatchAllocating pins MulInto/MulVecInto to their
// allocating twins, including reuse of a dirty destination.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, shape := range [][3]int{{3, 4, 5}, {16, 16, 16}, {33, 7, 9}, {1, 1, 1}} {
		m := NewMatrix(shape[0], shape[1])
		b := NewMatrix(shape[1], shape[2])
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = r.NormFloat64()
		}
		want := m.Mul(b)
		out := NewMatrix(shape[0], shape[2])
		for i := range out.Data {
			out.Data[i] = math.NaN() // dirty destination must be overwritten
		}
		m.MulInto(b, out)
		for i := range want.Data {
			if !bitsEqual(out.Data[i], want.Data[i]) {
				t.Fatalf("MulInto %v differs at %d", shape, i)
			}
		}
		v := make([]float64, shape[1])
		for i := range v {
			v[i] = r.NormFloat64()
		}
		wantV := m.MulVec(v)
		outV := make([]float64, shape[0])
		for i := range outV {
			outV[i] = math.NaN()
		}
		m.MulVecInto(v, outV)
		for i := range wantV {
			if !bitsEqual(outV[i], wantV[i]) {
				t.Fatalf("MulVecInto %v differs at %d", shape, i)
			}
		}
	}
}

// dist2RowsValue draws one input for TestDist2RowsMatchesDist2: mostly
// unit-scale normals, salted with ±0, subnormals and magnitudes near
// 1e±150, whose squares sit at the ends of the float64 range, so that
// summing a row's terms in any order but index order changes bits.
func dist2RowsValue(r *rand.Rand) float64 {
	switch r.Intn(8) {
	case 0:
		return []float64{0, math.Copysign(0, -1)}[r.Intn(2)]
	case 1:
		return math.SmallestNonzeroFloat64 * float64(1+r.Intn(1<<20)) * float64(1-2*r.Intn(2))
	case 2:
		return r.NormFloat64() * 1e150
	case 3:
		return r.NormFloat64() * 1e-150
	default:
		return r.NormFloat64()
	}
}

// TestDist2RowsMatchesDist2 is Dist2Rows' oracle: every output equals
// Dist2 against its row bit for bit, at every width 1–64, across the
// sixteen-row blocks of the SIMD body, the four-row blocks and the
// one-to-three-row tails (0–40 rows, and 1023–1025), with the SIMD body
// on and off.
func TestDist2RowsMatchesDist2(t *testing.T) {
	counts := []int{1023, 1024, 1025}
	for n := 0; n <= 40; n++ {
		counts = append(counts, n)
	}
	simdModes(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(2026))
		for d := 1; d <= 64; d++ {
			for _, n := range counts {
				x := make([]float64, d)
				rows := make([]float64, n*d)
				for i := range x {
					x[i] = dist2RowsValue(r)
				}
				for i := range rows {
					rows[i] = dist2RowsValue(r)
				}
				out := make([]float64, n)
				Dist2Rows(x, rows, out)
				for j, got := range out {
					if want := Dist2(x, rows[j*d:(j+1)*d]); !bitsEqual(got, want) {
						t.Fatalf("d=%d n=%d row %d: got %x want %x", d, n, j, math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
		}
	})
}

// TestDist2RowsPanicsOnWidthMismatch: rows that are not a whole number
// of len(x)-wide rows for len(out) outputs must panic, not misalign.
func TestDist2RowsPanicsOnWidthMismatch(t *testing.T) {
	for _, c := range []struct{ d, vals, n int }{{3, 8, 2}, {4, 8, 3}, {0, 1, 1}, {2, 0, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("d=%d with %d values for %d rows did not panic", c.d, c.vals, c.n)
				}
			}()
			Dist2Rows(make([]float64, c.d), make([]float64, c.vals), make([]float64, c.n))
		}()
	}
}
