package testkit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/serve"
)

// Differential driver: one fitted model, every execution path the repo
// offers, one contract. The reference is per-row ScoreRow on the
// freshly encoded artifact; every other path — batched scoring at
// several worker counts, the marshal→decode→score persistence round
// trip, and the in-process HTTP server at three configurations (the last
// is edaserved's shipped flag defaults) — must reproduce it bit for bit.
// Any disagreement is a determinism bug in a scoring path, not a
// modelling question, which is why the policy here is always Exact and
// never a tolerance.

// ShippedServeConfig is edaserved's six flag defaults as one
// serve.Config: the configuration a deployed node runs, and the one the
// "shipped" HTTP lanes test (cmd/edaserved's tests pin every field to
// its flag's default).
var ShippedServeConfig = serve.Config{
	MaxBatch:       16,
	MaxWait:        2 * time.Millisecond,
	MaxInFlight:    256,
	CacheRows:      1024,
	RequestTimeout: 10 * time.Second,
	DrainTimeout:   10 * time.Second,
}

// DiffWorkerCounts are the worker-pool sizes every batch path is
// exercised at. 1 forces the serial path, 2 exercises striping, 8
// exceeds the row count of small probe sets so some workers go idle.
var DiffWorkerCounts = []int{1, 2, 8}

// DiffPaths fits nothing: it takes an already-fitted persistable model,
// encodes it, and checks every scoring path against the per-row
// reference on the probe matrix. The returned error names the first
// disagreeing path.
func DiffPaths(m any, probes *linalg.Matrix) error {
	art, err := model.Encode(m, model.Meta{Name: "testkit-diff"})
	if err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	scorer, err := art.Scorer()
	if err != nil {
		return fmt.Errorf("scorer: %w", err)
	}

	// Reference: per-row scoring with the worker pool pinned to 1.
	ref := scoreRows(scorer, probes, 1)

	// Path: ScoreBatchInto at each worker count.
	batch := func(s model.Scorer) func() []float64 {
		return func() []float64 { return s.ScoreBatchInto(probes, make([]float64, probes.Rows)) }
	}
	for _, w := range DiffWorkerCounts {
		if err := compareAt(ref, batch(scorer), w); err != nil {
			return fmt.Errorf("batch path, %d workers: %w", w, err)
		}
	}

	// Path: marshal → decode → Scorer, rebuilt entirely from bytes.
	data, err := art.Marshal()
	if err != nil {
		return fmt.Errorf("marshal: %w", err)
	}
	decoded, err := model.Decode(data)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	dscorer, err := decoded.Scorer()
	if err != nil {
		return fmt.Errorf("decoded scorer: %w", err)
	}
	if err := compareAt(ref, func() []float64 { return scoreRows(dscorer, probes, 1) }, 1); err != nil {
		return fmt.Errorf("decoded row path: %w", err)
	}
	for _, w := range DiffWorkerCounts {
		if err := compareAt(ref, batch(dscorer), w); err != nil {
			return fmt.Errorf("decoded batch path, %d workers: %w", w, err)
		}
	}

	// Path: in-process HTTP serving, unbatched, micro-batched, and as
	// shipped (edaserved's flag defaults, score memo included). JSON
	// cannot carry ±Inf/NaN, so only all-finite probe rows (with finite
	// reference scores) ride this path; the non-finite rows are already
	// covered bitwise by every in-process path above.
	finite := finiteProbeRows(probes, ref)
	if len(finite) > 0 {
		sub := linalg.NewMatrix(len(finite), probes.Cols)
		want := make([]float64, len(finite))
		for to, from := range finite {
			copy(sub.Row(to), probes.Row(from))
			want[to] = ref[from]
		}
		for _, cfg := range []serve.Config{
			{MaxBatch: 1},
			{MaxBatch: 8},
			ShippedServeConfig,
		} {
			if err := diffViaHTTP(art, cfg, sub, want); err != nil {
				return fmt.Errorf("http path (maxBatch=%d cacheRows=%d): %w", cfg.MaxBatch, cfg.CacheRows, err)
			}
		}
	}
	return nil
}

// DiffPathsApprox is the exact-vs-approx lane of the differential
// driver: compile the exact kernel model under spec, check the compiled
// decision values track the exact ones within tol (an Approx tolerance
// — this lane is the one place the driver accepts anything but bit
// identity), then run the full DiffPaths contract on the compiled model
// so every scoring path over it is still bit-identical to every other.
// The tolerance comparison runs on the finite probe rows only: on a
// ±Inf/NaN row the exact RBF evaluates exp(-Inf) = 0 while the cosine
// feature map evaluates cos(Inf) = NaN — a representational difference,
// not an error — and DiffPaths already pins the compiled model's
// adversarial-row behavior bitwise across paths.
func DiffPathsApprox(exact any, spec model.ApproxSpec, probes *linalg.Matrix, tol Tolerance) error {
	am, err := model.CompileApprox(exact, spec)
	if err != nil {
		return fmt.Errorf("compile %s: %w", spec, err)
	}
	if err := CompareApproxDecisions(exact, am, probes, tol); err != nil {
		return fmt.Errorf("exact-vs-approx (%s): %w", spec, err)
	}
	if err := DiffPaths(am, probes); err != nil {
		return fmt.Errorf("compiled %s: %w", spec, err)
	}
	return nil
}

// CompareApproxDecisions checks the compiled model's raw decision
// values against the exact model's. The comparison covers the probe
// rows that are all-finite AND inside the exact model's training
// envelope (the basis bounding box expanded by half its span, with a
// unit floor) — the region the approximation contract is a statement
// about. Far outside it the two forms legitimately diverge without
// bound: the exact RBF decays to zero while the cosine features keep
// oscillating, and a polynomial kernel grows without the landmark span
// to anchor the Nyström extrapolation. GenProbes rows (training box
// ±10% span) always fall inside the envelope; the 1e300-scale
// adversarial constants fall outside and stay covered bitwise by
// DiffPaths on the compiled model.
func CompareApproxDecisions(exact any, am *model.ApproxModel, probes *linalg.Matrix, tol Tolerance) error {
	e, ok := model.ExpansionOf(exact)
	if !ok {
		return fmt.Errorf("testkit: %T is not an exact kernel model", exact)
	}
	lo, hi := basisEnvelope(e.Basis)
	var want, got []float64
	for i := 0; i < probes.Rows; i++ {
		x := probes.Row(i)
		if !allFinite(x) || !inBox(x, lo, hi) {
			continue
		}
		want = append(want, e.Decision(x))
		got = append(got, am.Decision(x))
	}
	return tol.Compare(want, got)
}

// basisEnvelope is the per-coordinate bounding box of the basis rows,
// expanded by half the span on each side with a unit floor.
func basisEnvelope(basis *linalg.Matrix) (lo, hi []float64) {
	lo = make([]float64, basis.Cols)
	hi = make([]float64, basis.Cols)
	for j := range lo {
		lo[j], hi[j] = basis.At(0, j), basis.At(0, j)
		for i := 1; i < basis.Rows; i++ {
			v := basis.At(i, j)
			lo[j] = math.Min(lo[j], v)
			hi[j] = math.Max(hi[j], v)
		}
		margin := math.Max(1, 0.5*(hi[j]-lo[j]))
		lo[j] -= margin
		hi[j] += margin
	}
	return lo, hi
}

func inBox(x, lo, hi []float64) bool {
	for j, v := range x {
		if v < lo[j] || v > hi[j] {
			return false
		}
	}
	return true
}

// scoreRows runs ScoreRow per row with the worker pool pinned to n.
func scoreRows(s model.Scorer, x *linalg.Matrix, n int) []float64 {
	defer parallel.SetWorkers(parallel.SetWorkers(n))
	out := make([]float64, x.Rows)
	for i := range out {
		out[i] = s.ScoreRow(x.Row(i))
	}
	return out
}

// compareAt pins the worker pool to n, evaluates f, and checks bit
// identity against ref.
func compareAt(ref []float64, f func() []float64, n int) error {
	defer parallel.SetWorkers(parallel.SetWorkers(n))
	return Exact.Compare(ref, f())
}

// finiteProbeRows returns the indices of probe rows that are all-finite
// AND whose reference score is finite (JSON-representable end to end).
func finiteProbeRows(probes *linalg.Matrix, ref []float64) []int {
	var idx []int
	for i := 0; i < probes.Rows; i++ {
		if allFinite(probes.Row(i)) && allFinite(ref[i:i+1]) {
			idx = append(idx, i)
		}
	}
	return idx
}

// diffViaHTTP loads the artifact into a fresh server and posts all rows
// as one predict request through httptest, twice: when cfg enables the
// score memo, the second pass is answered from it. Both passes must
// reproduce want bit for bit.
func diffViaHTTP(art *model.Artifact, cfg serve.Config, x *linalg.Matrix, want []float64) error {
	srv := serve.New(cfg)
	defer srv.Close()
	const name = "diff"
	if err := srv.Load(name, art); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	instances := make([][]float64, x.Rows)
	for i := range instances {
		instances[i] = x.Row(i)
	}
	body, err := json.Marshal(serve.PredictRequest{Instances: instances})
	if err != nil {
		return fmt.Errorf("marshal request: %w", err)
	}
	for pass := 1; pass <= 2; pass++ {
		req := httptest.NewRequest(http.MethodPost, "/predict/"+name, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("pass %d: status %d: %s", pass, rec.Code, rec.Body.String())
		}
		var resp serve.PredictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return fmt.Errorf("pass %d: unmarshal response: %w", pass, err)
		}
		if err := Exact.Compare(want, resp.Predictions); err != nil {
			return fmt.Errorf("pass %d: %w", pass, err)
		}
	}
	return nil
}
