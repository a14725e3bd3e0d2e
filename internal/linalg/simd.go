package linalg

import (
	"math"
	"os"
	"strings"
)

// SIMD kernel rows and solver sweeps. On amd64 Dist2Rows, ExpScaled,
// AXPY4 and StepScan have AVX2 bodies in Go assembly (simd_amd64.s)
// that run four lanes at a time, each lane executing exactly the
// operation sequence of the Go code it replaces: Dist2's subtract,
// square and add in index order; the FMA branch of math.Exp's own amd64
// body, its underflow branch included; and the multiplies, adds and
// strict comparisons of the AXPY4 and StepScan loops. The bodies run
// only when useSIMD is set, which happens once, at init, when GODEBUG
// leaves AVX2 on, the CPU and OS support AVX2, FMA and YMM state, and a
// self-check reproduces Dist2, math.Exp and the loops bit for bit.
// Otherwise — other architectures, GODEBUG=cpu.avx2=off or cpu.all=off,
// GODEBUG=cpu.fma=off (which moves math.Exp to its non-FMA branch), a
// build whose Go code rounds differently — the Go code runs, so every
// value is the same either way. Widths that are not a multiple of 4 and
// the rows or values left over from whole groups always take the Go
// code.

// useSIMD reports whether the assembly bodies run. Tests turn it off to
// check the Go code on a machine where it is on.
var useSIMD = !avx2Off(os.Getenv("GODEBUG")) && simdAvailable()

// avx2Off reports whether godebug turns AVX2 off as the runtime reads
// it, whose own flag this package cannot see: the last cpu.avx2 or
// cpu.all setting whose value is on or off decides.
func avx2Off(godebug string) bool {
	off := false
	for _, field := range strings.Split(godebug, ",") {
		switch field {
		case "cpu.avx2=off", "cpu.all=off", "cpu.avx2=on", "cpu.all=on":
			off = strings.HasSuffix(field, "=off")
		}
	}
	return off
}

// ExpScaled sets v[j] = math.Exp(c·v[j]) for every j, bit for bit. It
// is the exp pass of an RBF kernel row, k = exp(−γ·d²), with c = −γ.
func ExpScaled(v []float64, c float64) {
	if useSIMD {
		expScaledSIMD(v, c)
		return
	}
	expScaledGo(v, c)
}

// expScaledSIMD runs the assembly over whole groups of four, results
// that underflow to subnormals or zero included, and hands each group it
// declines (a lane that is NaN, +Inf or overflows) and the last
// len(v)%4 values to math.Exp.
func expScaledSIMD(v []float64, c float64) {
	for len(v) >= 4 {
		v = v[expScaled4(v, c):]
		if len(v) < 4 {
			break
		}
		expScaledGo(v[:4], c)
		v = v[4:]
	}
	expScaledGo(v, c)
}

func expScaledGo(v []float64, c float64) {
	for j, x := range v {
		v[j] = math.Exp(c * x)
	}
}

// AXPY4 adds a[0]·x[0][r], a[1]·x[1][r], a[2]·x[2][r] and a[3]·x[3][r]
// to y[r], in that order, for every r, each product and sum rounded on
// its own: bit for bit what AXPY(a[q], x[q], y) for q = 0, 1, 2, 3 in
// turn computes, in one pass over y. Each x[q] must have len(y) values.
func AXPY4(a [4]float64, x [4][]float64, y []float64) {
	for _, xq := range x {
		if len(xq) != len(y) {
			panic("linalg: AXPY4 length mismatch")
		}
	}
	m := 0
	if useSIMD {
		m = len(y) &^ 3
		axpy4Lanes(y[:m], &a, &x)
	}
	axpy4Go(y[m:], &a, &[4][]float64{x[0][m:], x[1][m:], x[2][m:], x[3][m:]})
}

func axpy4Go(y []float64, a *[4]float64, x *[4][]float64) {
	x0, x1, x2, x3 := x[0][:len(y)], x[1][:len(y)], x[2][:len(y)], x[3][:len(y)]
	for r, v := range y {
		v += a[0] * x0[r]
		v += a[1] * x1[r]
		v += a[2] * x2[r]
		y[r] = v + a[3]*x3[r]
	}
}

// Extremes is what a StepScan sweep selects: the first index holding
// the smallest eligible value and the first holding the largest, −1
// where no index is eligible, and those values (+Inf and −Inf where
// none).
type Extremes struct {
	IMin, IMax int
	Min, Max   float64
}

// noExtremes is the Extremes of an empty range.
func noExtremes() Extremes {
	return Extremes{IMin: -1, IMax: -1, Min: math.Inf(1), Max: math.Inf(-1)}
}

// Join returns the extremes of a range followed by one whose extremes
// are next and whose indices start at off. An equal value in next does
// not replace one found earlier, so the first index still wins.
func (e Extremes) Join(next Extremes, off int) Extremes {
	if next.Min < e.Min {
		e.IMin, e.Min = next.IMin+off, next.Min
	}
	if next.Max > e.Max {
		e.IMax, e.Max = next.IMax+off, next.Max
	}
	return e
}

// StepScan sets y[r] += t·(u[r] − w[r]) for every r, each operation
// rounded on its own, and in the same pass selects, among the new y[r],
// the first smallest over the r with a[r] < below and the first largest
// over the r with a[r] > above. Comparisons are strict, so a NaN value
// or limit is never selected. u, w and a must have len(y) values.
//
// It is the one-class solver's sweep: the gradient update of one
// pairwise step fused with the choice of the next most-violating pair.
func StepScan(y []float64, t float64, u, w, a []float64, below, above float64) Extremes {
	if len(u) != len(y) || len(w) != len(y) || len(a) != len(y) {
		panic("linalg: StepScan length mismatch")
	}
	e, m := noExtremes(), 0
	if useSIMD && len(y) >= 4 {
		m = len(y) &^ 3
		var lanes scanLanes
		stepScanLanes(y[:m], t, u, w, a, below, above, &lanes)
		e = lanes.reduce()
	}
	return e.Join(stepScanGo(y[m:], t, u[m:], w[m:], a[m:], below, above), m)
}

func stepScanGo(y []float64, t float64, u, w, a []float64, below, above float64) Extremes {
	e := noExtremes()
	u, w, a = u[:len(y)], w[:len(y)], a[:len(y)]
	for r := range y {
		v := y[r] + t*(u[r]-w[r])
		y[r] = v
		if a[r] < below && v < e.Min {
			e.IMin, e.Min = r, v
		}
		if a[r] > above && v > e.Max {
			e.IMax, e.Max = r, v
		}
	}
	return e
}

// scanLanes is what stepScanLanes leaves in its four lanes, lane l
// covering the indices r ≡ l (mod 4); its layout is the assembly's.
type scanLanes struct {
	min, max   [4]float64
	imin, imax [4]int
}

// reduce combines the lanes into the Extremes of the whole range: the
// smallest minimum and the largest maximum, the lowest index on ties.
// Each lane holds the first index of its own extreme, so that is the
// first index of the range's.
func (l *scanLanes) reduce() Extremes {
	e := noExtremes()
	for q := range 4 {
		if l.min[q] < e.Min || l.min[q] == e.Min && l.imin[q] < e.IMin {
			e.IMin, e.Min = l.imin[q], l.min[q]
		}
		if l.max[q] > e.Max || l.max[q] == e.Max && l.imax[q] < e.IMax {
			e.IMax, e.Max = l.imax[q], l.max[q]
		}
	}
	return e
}
