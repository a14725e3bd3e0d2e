package linalg

import "math"

// cpuid and xgetbv read the processor's and the OS's feature bits.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)

// dist2Rows16 writes Dist2(x, row j) for the first len(out)&^15 rows;
// len(x) must be a positive multiple of 4.
//
//go:noescape
func dist2Rows16(x, rows, out []float64)

// expScaled4 sets v[j] = math.Exp(c·v[j]) a group of four at a time and
// returns how many values it wrote; it stops before the first group
// with a lane outside math.Exp's normal-result range.
//
//go:noescape
func expScaled4(v []float64, c float64) int

// simdAvailable reports whether the AVX2 bodies may run: the processor
// has AVX2 and FMA, the OS saves the YMM registers, and the bodies
// reproduce Dist2 and math.Exp bit for bit on a fixed probe set.
func simdAvailable() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 { // XMM and YMM state
		return false
	}
	if _, ebx, _, _ := cpuid(7, 0); ebx&(1<<5) == 0 { // AVX2
		return false
	}
	return simdSelfCheck()
}

// simdSelfCheck runs both bodies on fixed probes and compares every
// value with the Go code they stand in for. math.Exp takes its non-FMA
// branch under GODEBUG=cpu.fma=off, and a build that fused Dist2's
// multiply-add would round differently; either way the probes differ
// and the Go code keeps running.
func simdSelfCheck() bool {
	// Exp: 1024 arguments spread over [-746, 710], then groups of four
	// that put each end of the normal-result range (k = -1022 and 1023
	// run in assembly, k = -1023 and 1024 must not), ±0 and NaN beside
	// ordinary arguments; every argument is scaled by c = -0.5, exactly.
	const n = 1024
	var v, want [n + 16]float64
	for i := 0; i < n; i++ {
		v[i] = -746 + 1456*float64(i)/n + 1e-3*math.Sin(float64(i))
	}
	copy(v[n:], []float64{
		-708.40, 709.0, 0, math.Copysign(0, -1),
		-709.1, 1, 2, 3,
		709.78, 1, 2, 3,
		math.NaN(), 1, 2, 3,
	})
	for i, a := range v {
		v[i] = -2 * a
		want[i] = math.Exp(a)
	}
	expScaledSIMD(v[:], -0.5)
	for i := range v {
		if math.Float64bits(v[i]) != math.Float64bits(want[i]) && !(v[i] != v[i] && want[i] != want[i]) {
			return false
		}
	}

	// Dist2: 32 rows of width 8 and 16 of width 12 against one x.
	var x [12]float64
	var rows [32 * 8]float64
	var out [32]float64
	for i := range rows {
		rows[i] = math.Sin(float64(i)*0.7) * float64(1+i%5)
	}
	for i := range x {
		x[i] = math.Cos(float64(i) * 1.3)
	}
	for _, d := range []int{8, 12} {
		m := len(rows) / d &^ 15
		dist2Rows16(x[:d], rows[:m*d], out[:m])
		for j := 0; j < m; j++ {
			if math.Float64bits(out[j]) != math.Float64bits(dist2Unrolled(x[:d], rows[j*d:(j+1)*d])) {
				return false
			}
		}
	}
	return true
}
