package linalg

import "fmt"

// Unrolled flat-loop primitives for the numeric hot paths (ROADMAP
// item 1). Every kernel here preserves the exact operation sequence of
// the plain range loop it replaces — reductions keep a single
// accumulator chain, element-wise updates apply the same one expression
// per element — so converted callers stay bit-identical to the
// pre-refactor code. What the unrolling buys is bounds-check
// elimination and wider instruction-level scheduling: the Go compiler
// keeps four (reduction) or eight (element-wise) lanes of flat
// row-major data in flight instead of re-checking slice bounds per
// element.
//
// The reduction kernels (dotUnrolled, dist2Unrolled) deliberately use
// one accumulator, not four: four partial sums would reassociate the
// IEEE-754 addition order and break the repo-wide bit-identity
// contract (testkit's DiffPaths oracle compares paths bit for bit).
//
// Dist2Rows is not a reduction split four ways. It interleaves four
// outputs — four rows against one x — and each output keeps its own
// single chain, summing its terms in index order exactly as Dist2
// does. The adds of one row still wait on each other, but the CPU
// overlaps the four chains, and no value changes.

// dotUnrolled returns Σ a[i]·b[i] with the same single-accumulator
// order as a plain loop. len(b) must be ≥ len(a); the explicit reslice
// lets the compiler drop bounds checks in the 4-wide body.
func dotUnrolled(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	s := 0.0
	i := 0
	for ; i+4 <= n; i += 4 {
		s += a[i] * b[i]
		s += a[i+1] * b[i+1]
		s += a[i+2] * b[i+2]
		s += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// dist2Unrolled returns Σ (a[i]−b[i])² in plain-loop order.
func dist2Unrolled(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	s := 0.0
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := a[i] - b[i]
		s += d0 * d0
		d1 := a[i+1] - b[i+1]
		s += d1 * d1
		d2 := a[i+2] - b[i+2]
		s += d2 * d2
		d3 := a[i+3] - b[i+3]
		s += d3 * d3
	}
	for ; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Dist2Rows writes out[j] = Dist2(x, row j) for the row-major rows,
// len(x) wide, that rows holds; it panics unless len(rows) ==
// len(out)·len(x), so a width mismatch can never misalign the rows.
// Rows go four at a time, each with its own accumulator summing in
// index order (see the header), so every value is bit-identical to
// Dist2; fewer than four trailing rows go through dist2Unrolled.
func Dist2Rows(x, rows, out []float64) {
	d := len(x)
	if len(rows) != len(out)*d {
		panic(fmt.Sprintf("linalg: Dist2Rows has %d values for %d rows of width %d", len(rows), len(out), d))
	}
	j := 0
	for ; j+4 <= len(out); j += 4 {
		r := rows[j*d:]
		r0, r1, r2, r3 := r[:d], r[d:][:d], r[2*d:][:d], r[3*d:][:d]
		var s0, s1, s2, s3 float64
		for i, v := range x {
			d0 := v - r0[i]
			s0 += d0 * d0
			d1 := v - r1[i]
			s1 += d1 * d1
			d2 := v - r2[i]
			s2 += d2 * d2
			d3 := v - r3[i]
			s3 += d3 * d3
		}
		o := out[j : j+4]
		o[0], o[1], o[2], o[3] = s0, s1, s2, s3
	}
	for ; j < len(out); j++ {
		out[j] = dist2Unrolled(x, rows[j*d:(j+1)*d])
	}
}

// addScaled computes dst[i] += a·src[i] for every i. Each element
// receives exactly one fused update in either form, so the 8-wide body
// is bit-identical to the plain loop; it is the inner kernel of the
// row-accumulator and cache-blocked matmuls.
func addScaled(dst, src []float64, a float64) {
	n := len(dst)
	src = src[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		dst[i] += a * src[i]
		dst[i+1] += a * src[i+1]
		dst[i+2] += a * src[i+2]
		dst[i+3] += a * src[i+3]
		dst[i+4] += a * src[i+4]
		dst[i+5] += a * src[i+5]
		dst[i+6] += a * src[i+6]
		dst[i+7] += a * src[i+7]
	}
	for ; i < n; i++ {
		dst[i] += a * src[i]
	}
}

// minSumUnrolled returns Σ min(a[i], b[i]) in plain-loop order — the
// histogram-intersection kernel's inner sweep.
func minSumUnrolled(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	s := 0.0
	i := 0
	for ; i+4 <= n; i += 4 {
		s += minOf(a[i], b[i])
		s += minOf(a[i+1], b[i+1])
		s += minOf(a[i+2], b[i+2])
		s += minOf(a[i+3], b[i+3])
	}
	for ; i < n; i++ {
		s += minOf(a[i], b[i])
	}
	return s
}

// minOf mirrors the branch the original histogram-intersection loop
// used (`if a < b { s += a } else { s += b }`): b wins ties and NaN in
// a propagates exactly as before. The builtin min() differs on NaN
// placement, so it is not a drop-in.
func minOf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// MinSum returns Σ min(a[i], b[i]); panics on length mismatch.
func MinSum(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: MinSum length mismatch")
	}
	return minSumUnrolled(a, b)
}
