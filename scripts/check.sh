#!/usr/bin/env bash
# Full correctness gate: format check, vet, build, and the complete test
# suite under the race detector. The parallel compute layer
# (internal/parallel and its users) and the observability layer
# (internal/obs) must stay race-clean; run this before every commit that
# touches a concurrent path. CI runs it as the `race` job.
#
# Set GO to use a specific toolchain, e.g. `GO=go1.22.12 ./scripts/check.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."

GO="${GO:-go}"

echo "== gofmt =="
fmt_out="$(gofmt -l .)"
if [ -n "$fmt_out" ]; then
	echo "gofmt: these files need formatting:" >&2
	echo "$fmt_out" >&2
	exit 1
fi

echo "== go vet =="
"$GO" vet ./...

echo "== go build =="
"$GO" build ./...

echo "== go test -race =="
"$GO" test -race ./...

# sweep PKG PATTERN runs the tests PATTERN selects in PKG under the race
# detector at 1, 2 and 8 workers. `go test -run` passes with "[no tests
# to run]" when nothing matches, so every |-separated name in PATTERN
# must first match a test that `go test -list` finds in PKG: a renamed
# test fails the sweep instead of dropping out of it.
sweep() {
	local pkg="$1" pattern="$2" listed tests name names w
	listed="$("$GO" test -race -list "$pattern" "$pkg")"
	tests="$(grep '^Test' <<<"$listed" || true)"
	IFS='|' read -ra names <<<"$pattern"
	for name in "${names[@]}"; do
		if ! grep -Eq -- "$name" <<<"$tests"; then
			echo "check: sweep pattern '$name' matches no test in $pkg" >&2
			exit 1
		fi
	done
	echo "-- $pkg: $(tr '\n' ' ' <<<"$tests")"
	for w in 1 2 8; do
		echo "-- REPRO_WORKERS=$w"
		REPRO_WORKERS="$w" "$GO" test -race -count=1 -run "$pattern" "$pkg"
	done
}

# The cluster chaos storm is the most concurrency-dense path in the
# repo (router failover, per-replica health, node kill);
# its determinism contract must hold at every worker-pool width, so
# sweep the widths that shift scoring onto different parallel paths.
# The single-node chaos test sweeps them too: the client makes one
# attempt per call, so its same-seed claim rests on the test's own
# retry order.
echo "== chaos end to end and cluster chaos storm at 1/2/8 workers (race) =="
sweep . 'TestChaosEndToEnd|TestClusterChaosStorm'

# A hot-swap must never answer 503 or mix two models in one response,
# whichever parallel path the scoring behind the swapped queue takes,
# on one node or in a rollout through the router.
echo "== hot-swap race at 1/2/8 workers (race) =="
sweep ./internal/serve/ 'TestHotSwapRace'
sweep ./internal/serve/cluster/ 'TestClusterRolloutZeroDrops|TestRoutedReplyOneArtifact'

# Batches form from whatever is queued, so their composition follows
# arrival timing; answers must stay bit-identical at every pool width,
# which moves kernel.CrossGramInto across its serial/parallel cutover.
echo "== load-driven batching at 1/2/8 workers (race) =="
sweep ./internal/serve/ \
	'TestBatchingDeterminism|TestMultiInstanceRequest|TestIdleRequestNotHeld|TestNextBatchFormsWhileScoring|TestRequestsSplitAcrossBatches'

# The columnar arena's aliasing property (a buffer re-leased under a
# different shape never aliases live data) must hold at every pool
# width; the hammer leases/dirties/returns from every worker.
echo "== colmat alias hammer at 1/2/8 workers (race) =="
sweep ./internal/core/colmat/ 'TestAliasHammer|TestShapeIsolation'

# The stress-program generator feeds the versioned isa-stress dataset,
# so its seed-purity contract (same int64 seed -> same programs, same
# simulated outcomes) must hold at every worker-pool width: the batch
# simulate/feature fan-out must not leak nondeterminism into the export.
echo "== stress-generator seed purity at 1/2/8 workers (race) =="
sweep ./internal/isa/ 'TestStressPureFunctionOfSeed'

# The one-class solver streams Gram columns (kernel.SlidingGram.Col)
# through linalg.AXPY4 (the gradient, four columns a pass) and
# linalg.StepScan (each pair step fused with the next selection), both
# four lanes at a time in AVX2 assembly where the init self-check
# passes, and must match its element-accessor reference bit for bit,
# and the loop's trajectory must not move, at every pool width: the
# width moves SlidingGram.Append across its serial/parallel cutover.
# The kernel-rows sweep below covers the sliding Gram's own tests.
echo "== one-class solver bit identity at 1/2/8 workers (race) =="
sweep ./internal/linalg/ 'TestAXPY4MatchesAXPY|TestStepScanMatchesTwoPasses'
sweep ./internal/svm/ 'TestSolveOneClassMatchesReference'
sweep ./internal/stream/ 'TestLoopDeterminism|TestWarmStartMatchesColdDecision'

# Every kernel row goes through kernel.EvalRows (for RBF, squared
# distances in linalg.Dist2Rows, then exps in linalg.ExpScaled, both
# four lanes at a time in AVX2 assembly where the init self-check
# passes), and every value, expansion and Gram built on it must match
# its per-cell reference bit for bit at every pool width, with the
# assembly on and off (and off under GODEBUG=cpu.fma=off): the width
# moves gramRange, crossGramRange and SlidingGram's appendRange across
# their serial/parallel cutovers, moves the Gram mirror's tiles, and
# moves where appendRange's chunks meet the ring's wrap.
echo "== kernel rows bit identity at 1/2/8 workers (race) =="
sweep ./internal/linalg/ \
	'TestDist2RowsMatchesDist2|TestExpScaledMatchesExp|TestExpScaledEdges|TestExpScaledLengths|TestExpScaledUnderflowInLanes|TestSIMDOffWithoutFMA'
sweep ./internal/kernel/ \
	'TestEvalRowsMatchesEval|TestGramParallelMatchesSerial|TestCrossGramParallelMatchesSerial|TestSlidingGram|TestGramIntoMatchesEval'
sweep ./internal/svm/ 'TestExpandMatchesLoop'

# With AVX2 off the Go loops run in place of every assembly body, and
# the solver, the loop's trajectory and the exps must come out the same.
echo "== solver, loop and exp edges under GODEBUG=cpu.avx2=off (race) =="
GODEBUG=cpu.avx2=off "$GO" test -race -count=1 -run 'TestSolveOneClassMatchesReference' ./internal/svm/
GODEBUG=cpu.avx2=off "$GO" test -race -count=1 -run 'TestLoopDeterminism' ./internal/stream/
GODEBUG=cpu.avx2=off "$GO" test -race -count=1 -run 'TestExpScaledEdges' ./internal/linalg/

# Allocation floors run WITHOUT -race: the race detector instruments
# allocation sites and would report counts the floors were never set
# against (alloc_test.go skips itself under -race for the same reason).
echo "== alloc gate (no race) =="
"$GO" test -count=1 -run 'TestAllocFloor' .

echo "check: OK"
