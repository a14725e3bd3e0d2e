//go:build !amd64

package linalg

// Off amd64 there are no assembly bodies: useSIMD stays false and the
// Go code runs.

func simdAvailable() bool { return false }

func dist2Rows16(x, rows, out []float64) { panic("linalg: no SIMD body on this architecture") }

func expScaled4(v []float64, c float64) int { panic("linalg: no SIMD body on this architecture") }

func axpy4Lanes(y []float64, a *[4]float64, x *[4][]float64) {
	panic("linalg: no SIMD body on this architecture")
}

func stepScanLanes(y []float64, t float64, u, w, a []float64, below, above float64, out *scanLanes) {
	panic("linalg: no SIMD body on this architecture")
}
