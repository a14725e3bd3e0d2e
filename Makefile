# Developer entry points. `make test` also builds and runs the five
# binaries as shipped (binaries_test.go). `make check` is the pre-commit
# gate: gofmt, vet, plus the full suite under the race detector (see
# scripts/check.sh). `make ci` is everything the GitHub workflow runs,
# locally.

.PHONY: build test check bench datasets-smoke fuzz cover conformance-slow ci

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

# Benchmark-dataset export end to end: fixed-seed export, payload
# checksums vs scripts/datasets_checksums.txt, byte-identical re-export,
# cards with seed + repro command (see scripts/datasets_smoke.sh).
datasets-smoke:
	./scripts/datasets_smoke.sh

# Bounded fuzz sweep over the untrusted-input decoders (artifact decode,
# node and router predict handlers, node and router load handlers, the
# router's handling of replica replies, dataset decode); FUZZTIME=2m
# make fuzz for a longer run.
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

# The full CI pipeline locally: the race-clean correctness gate (whose
# suite runs the binaries), vet for arm64 (the Go code that stands in
# for the amd64 assembly), the nested benchmark module's vet and tests,
# the coverage gate, every benchmark once at -short sizes (a
# build-and-panic smoke), the dataset smoke, and the bounded fuzz sweep.
ci:
	./scripts/check.sh
	GOARCH=arm64 go vet ./...
	cd cmd/edabench && go vet ./... && go test ./...
	./scripts/cover.sh
	go test -short -run '^$$' -bench . -benchtime=1x ./...
	./scripts/datasets_smoke.sh
	./scripts/fuzz.sh
