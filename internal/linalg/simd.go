package linalg

import (
	"math"
	"os"
	"strings"
)

// SIMD kernel rows. On amd64 Dist2Rows and ExpScaled have AVX2 bodies
// in Go assembly (simd_amd64.s) that run four lanes at a time, each lane
// executing exactly the operation sequence of the Go code it replaces:
// Dist2's subtract, square and add in index order, and the FMA branch
// of math.Exp's own amd64 body. The bodies run only when useSIMD is set,
// which happens once, at init, when GODEBUG leaves AVX2 on, the CPU and
// OS support AVX2, FMA and YMM state, and a self-check reproduces Dist2
// and math.Exp bit for bit. Otherwise — other architectures,
// GODEBUG=cpu.avx2=off or cpu.all=off, GODEBUG=cpu.fma=off (which moves
// math.Exp to its non-FMA branch), a build whose Go code rounds
// differently — the Go code runs, so every value is the same either
// way. Widths that are not a multiple of 4 and the rows or values left
// over from whole groups always take the Go code.

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

// expScaledSIMD runs the assembly over whole groups of four and hands
// each group it declines (a lane outside math.Exp's normal-result
// range) and the last len(v)%4 values to math.Exp.
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
