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

// TestSIMDOffWithoutFMA re-runs itself under GODEBUG=cpu.fma=off, which
// moves math.Exp to its non-FMA branch. There the assembly body would
// differ from math.Exp, so the init self-check must have turned it off,
// and every RBF kernel row must still equal RBF.Eval bit for bit.
func TestSIMDOffWithoutFMA(t *testing.T) {
	const marker = "SIMD off under cpu.fma=off"
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.fma=off") {
		if linalg.SIMDOn() {
			t.Fatal("the SIMD bodies run although math.Exp takes its non-FMA branch")
		}
		checkEvalRows(t)
		t.Log(marker)
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("cpu.fma is an amd64 GODEBUG setting")
	}
	godebug := "cpu.fma=off"
	if prev := os.Getenv("GODEBUG"); prev != "" {
		godebug = prev + "," + godebug
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestSIMDOffWithoutFMA$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG="+godebug)
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), marker) {
		t.Fatalf("under GODEBUG=%s: %v\n%s", godebug, err, out)
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
