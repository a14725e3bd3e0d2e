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
// with a lane that is NaN, +Inf or would overflow.
//
//go:noescape
func expScaled4(v []float64, c float64) int

// axpy4Lanes is axpy4Go over the first len(y)&^3 values.
//
//go:noescape
func axpy4Lanes(y []float64, a *[4]float64, x *[4][]float64)

// stepScanLanes is stepScanGo over the first len(y)&^3 values, with r
// split over four lanes by r mod 4; out gets each lane's extremes.
//
//go:noescape
func stepScanLanes(y []float64, t float64, u, w, a []float64, below, above float64, out *scanLanes)

// simdAvailable reports whether the AVX2 bodies may run: the processor
// has AVX2 and FMA, the OS saves the YMM registers, and the bodies
// reproduce Dist2, math.Exp and the AXPY4 and StepScan loops bit for
// bit on a fixed probe set.
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

// simdSelfCheck runs the bodies on fixed probes and compares every
// value with the Go code they stand in for. math.Exp takes its non-FMA
// branch under GODEBUG=cpu.fma=off, and a build that fused Dist2's or
// the loops' multiply-add would round differently; either way the
// probes differ and the Go code keeps running.
func simdSelfCheck() bool {
	return expSelfCheck() && dist2SelfCheck() && solverSelfCheck()
}

// expSelfCheck probes 1024 arguments spread over [-746, 710], then
// groups of four: each k boundary of math.Exp's underflow branch (k =
// -1022, -1023, -1074 and -1075, and the last subnormal result) with
// its neighbours; ±0 and the normal range's ends (k = -1022 and 1023);
// arguments whose result is +0, -Inf among them; and groups the body
// must leave to math.Exp (k = 1024, +Inf, NaN), one of them with
// underflowing lanes beside +Inf. Every argument is scaled by c = -0.5,
// exactly.
func expSelfCheck() bool {
	const n = 1024
	inf := math.Inf(1)
	v := make([]float64, n, n+44)
	for i := range v {
		v[i] = -746 + 1456*float64(i)/n + 1e-3*math.Sin(float64(i))
	}
	for _, e := range []float64{-708.40, -709.09, -744.44, -745.13, -745.1332191019412} {
		v = append(v, math.Nextafter(e, -inf), e, math.Nextafter(e, 0), -2)
	}
	v = append(v,
		-708.40, 709.0, 0, math.Copysign(0, -1),
		-746, -1e10, -inf, -1e300,
		709.78, 1, 2, 3,
		inf, 1, 2, 3,
		math.NaN(), 1, 2, 3,
		-720, inf, -730, -740,
	)
	want := make([]float64, len(v))
	for i, a := range v {
		v[i] = -2 * a
		want[i] = math.Exp(a)
	}
	expScaledSIMD(v, -0.5)
	for i := range v {
		if math.Float64bits(v[i]) != math.Float64bits(want[i]) && !(v[i] != v[i] && want[i] != want[i]) {
			return false
		}
	}
	return true
}

// dist2SelfCheck probes 32 rows of width 8 and 16 of width 12 against
// one x.
func dist2SelfCheck() bool {
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

// solverSelfCheck runs axpy4Lanes and stepScanLanes on 16 values
// against their Go loops. Every input of the scan repeats with period 6,
// so each value recurs 6 indices on, in another lane, and 12 on, in the
// same lane: the first minimum (at 1) and maximum (at 2) each tie within
// their lane and with another lane. a makes each index eligible for the
// minimum only, for both, or for the maximum only, and puts the
// smallest value at a = below and the largest at a = above, where
// neither may be taken.
func solverSelfCheck() bool {
	const n = 16
	scanY := [6]float64{0.5, 0.25, 1, 0.75, 0, 1.25}
	scanA := [6]float64{1, 0, 2, 1, 1.5, 0.5}
	var y, yGo, u, w, a [n]float64
	var xs [4][n]float64
	x := [4][]float64{xs[0][:], xs[1][:], xs[2][:], xs[3][:]}
	for r := 0; r < n; r++ {
		y[r] = float64(r%5) - 2 + 1e-3*math.Sin(float64(r))
		u[r] = math.Cos(float64(r%6) * 0.9)
		w[r] = math.Sin(float64(r%6) * 1.1)
		a[r] = scanA[r%6]
		for q := range x {
			x[q][r] = math.Sin(float64(r*(q+2))) * float64(1+q)
		}
	}
	coef := [4]float64{0.3, -1.7, 1e-3, 2.5}
	yGo = y
	axpy4Lanes(y[:], &coef, &x)
	axpy4Go(yGo[:], &coef, &x)
	if !sameBits(y[:], yGo[:]) {
		return false
	}
	for r := range y {
		y[r] = scanY[r%6]
		yGo[r] = y[r]
	}
	for _, t := range []float64{0, 0.375} {
		var lanes scanLanes
		stepScanLanes(y[:], t, u[:], w[:], a[:], 1.5, 0.5, &lanes)
		got := lanes.reduce()
		want := stepScanGo(yGo[:], t, u[:], w[:], a[:], 1.5, 0.5)
		if !sameBits(y[:], yGo[:]) || got != want {
			return false
		}
	}
	return true
}

// sameBits reports whether x and y hold the same bit patterns.
func sameBits(x, y []float64) bool {
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return len(x) == len(y)
}
