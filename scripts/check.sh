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

# The cluster chaos storm is the most concurrency-dense path in the
# repo (router fan-out goroutines, per-replica breakers, node kill);
# its determinism contract must hold at every worker-pool width, so
# sweep the widths that shift scoring onto different parallel paths.
echo "== cluster chaos storm at 1/2/8 workers (race) =="
for w in 1 2 8; do
	echo "-- REPRO_WORKERS=$w"
	REPRO_WORKERS="$w" "$GO" test -race -count=1 -run 'TestClusterChaosStorm' .
done

# A hot-swap must never answer 503 or mix two models in one response,
# whichever parallel path the scoring behind the swapped queue takes.
echo "== hot-swap race at 1/2/8 workers (race) =="
for w in 1 2 8; do
	echo "-- REPRO_WORKERS=$w"
	REPRO_WORKERS="$w" "$GO" test -race -count=1 -run 'TestHotSwapRace' ./internal/serve/
done

# Batches form from whatever is queued, so their composition follows
# arrival timing; answers must stay bit-identical at every pool width,
# which moves kernel.CrossGramInto across its serial/parallel cutover.
echo "== load-driven batching at 1/2/8 workers (race) =="
for w in 1 2 8; do
	echo "-- REPRO_WORKERS=$w"
	REPRO_WORKERS="$w" "$GO" test -race -count=1 \
		-run 'TestBatchingDeterminism|TestMultiInstanceRequest|TestIdleRequestNotHeld|TestNextBatchFormsWhileScoring' ./internal/serve/
done

# The columnar arena's aliasing property (a buffer re-leased under a
# different shape never aliases live data) must hold at every pool
# width; the hammer leases/dirties/returns from every worker.
echo "== colmat alias hammer at 1/2/8 workers (race) =="
for w in 1 2 8; do
	echo "-- REPRO_WORKERS=$w"
	REPRO_WORKERS="$w" "$GO" test -race -count=1 -run 'TestAliasHammer|TestShapeIsolation' ./internal/core/colmat/
done

# The stress-program generator feeds the versioned isa-stress dataset,
# so its seed-purity contract (same int64 seed -> same programs, same
# simulated outcomes) must hold at every worker-pool width: the batch
# simulate/feature fan-out must not leak nondeterminism into the export.
echo "== stress-generator seed purity at 1/2/8 workers (race) =="
for w in 1 2 8; do
	echo "-- REPRO_WORKERS=$w"
	REPRO_WORKERS="$w" "$GO" test -race -count=1 -run 'TestStressPureFunctionOfSeed' ./internal/isa/
done

# Allocation floors run WITHOUT -race: the race detector instruments
# allocation sites and would report counts the floors were never set
# against (alloc_test.go skips itself under -race for the same reason).
echo "== alloc gate (no race) =="
"$GO" test -count=1 -run 'TestAllocFloor' .

echo "check: OK"
