package linalg_test

import (
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/linalg"
)

// TestSIMDOffWithoutFMA re-runs itself under each GODEBUG setting that
// must keep the assembly bodies off, and checks there that they are off
// and that every RBF kernel row still equals RBF.Eval bit for bit.
// cpu.fma=off moves math.Exp to its non-FMA branch, where the bodies
// would differ from it, so the init self-check must turn them off;
// cpu.avx2=off turns AVX2 off for the runtime, and the init reads the
// setting too.
func TestSIMDOffWithoutFMA(t *testing.T) {
	const marker = "SIMD off under GODEBUG="
	settings := []string{"cpu.fma=off", "cpu.avx2=off"}
	for _, setting := range settings {
		if strings.Contains(os.Getenv("GODEBUG"), setting) {
			if linalg.SIMDOn() {
				t.Fatalf("the SIMD bodies run under GODEBUG=%s", setting)
			}
			checkEvalRows(t)
			t.Log(marker + setting)
			return
		}
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("cpu.fma and cpu.avx2 are amd64 GODEBUG settings")
	}
	for _, setting := range settings {
		godebug := setting
		if prev := os.Getenv("GODEBUG"); prev != "" {
			godebug = prev + "," + godebug
		}
		cmd := exec.Command(os.Args[0], "-test.run=^TestSIMDOffWithoutFMA$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), "GODEBUG="+godebug)
		out, err := cmd.CombinedOutput()
		if err != nil || !strings.Contains(string(out), marker+setting) {
			t.Fatalf("under GODEBUG=%s: %v\n%s", godebug, err, out)
		}
	}
}

// checkEvalRows compares RBF kernel rows at the isa and mfgtest widths,
// across sixteen-row blocks and their tails, with RBF.Eval.
func checkEvalRows(t *testing.T) {
	t.Helper()
	r := rand.New(rand.NewSource(26))
	for _, d := range []int{12, 16} {
		for _, n := range []int{15, 16, 17, 64, 1023} {
			x := make([]float64, d)
			rows := make([]float64, n*d)
			for i := range x {
				x[i] = r.NormFloat64()
			}
			for i := range rows {
				rows[i] = r.NormFloat64()
			}
			k := kernel.RBF{Gamma: 1 / float64(d)}
			out := make([]float64, n)
			kernel.EvalRows(k, x, rows, out)
			for j, got := range out {
				if want := k.Eval(x, rows[j*d:(j+1)*d]); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("d=%d n=%d row %d: EvalRows %x, RBF.Eval %x", d, n, j, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}
