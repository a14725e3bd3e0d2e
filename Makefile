# Developer entry points. `make check` is the pre-commit gate: gofmt, vet,
# plus the full suite under the race detector (see scripts/check.sh).
# `make ci` is everything the GitHub workflow runs, locally.

.PHONY: build test check bench smoke cluster-smoke stream-smoke datasets-smoke fuzz cover conformance-slow ci

build:
	go build ./...

test:
	go test ./...

check:
	./scripts/check.sh

# Serial-vs-parallel micro-benchmarks for the hot paths (Gram, matmul,
# cross-validation, substrate simulation) plus the per-figure harnesses.
bench:
	go test -bench=. -benchmem -run='^$$' ./...

# Serving lifecycle end to end: train + save artifacts, boot edaserved,
# predict over HTTP, graceful SIGTERM exit (see scripts/serve_smoke.sh),
# then the same lifecycle through the sharded cluster tier and the
# streaming loop.
smoke: cluster-smoke stream-smoke
	./scripts/serve_smoke.sh

# Cluster tier end to end: 3-replica fleet behind edarouter, routed
# predictions, node kill under traffic, blue/green rollout with zero
# failed requests, graceful drain (see scripts/cluster_smoke.sh).
cluster-smoke:
	./scripts/cluster_smoke.sh

# Streaming loop end to end: edaloop against a live edaserved — planted
# drift detected, every refresh hot-swapped with zero failed requests,
# graceful SIGTERM drain (see scripts/stream_smoke.sh).
stream-smoke:
	./scripts/stream_smoke.sh

# Benchmark-dataset export end to end: fixed-seed export, payload
# checksums vs scripts/datasets_checksums.txt, byte-identical re-export,
# cards with seed + repro command (see scripts/datasets_smoke.sh).
datasets-smoke:
	./scripts/datasets_smoke.sh

# Bounded fuzz sweep over the untrusted-input decoders (artifact decode,
# node and router predict handlers, node and router load handlers,
# dataset decode); FUZZTIME=2m make fuzz for a longer run.
fuzz:
	./scripts/fuzz.sh

# Per-package coverage + the ratcheted total-coverage gate
# (scripts/cover_floor.txt). Fails when coverage drops below the floor.
cover:
	./scripts/cover.sh

# The deep conformance sweep: same seeds and contracts as `go test .`,
# just many more generated cases per learner (nightly-style CI job).
conformance-slow:
	go test -tags=slowconformance -run 'TestConformance' -count=1 -v .

# The full CI pipeline locally: the race-clean correctness gate, the
# nested benchmark module's vet and tests, the short benchmark sweep
# that writes BENCH_ci.json, the serving smoke, and the bounded fuzz
# sweep.
ci:
	./scripts/check.sh
	cd cmd/edabench && go vet ./... && go test ./...
	./scripts/cover.sh
	./scripts/bench.sh
	./scripts/serve_smoke.sh
	./scripts/cluster_smoke.sh
	./scripts/stream_smoke.sh
	./scripts/datasets_smoke.sh
	./scripts/fuzz.sh
