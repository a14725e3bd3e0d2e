#!/bin/sh
# Builds edabench from source and runs it. Run from the repository root:
#
#   sh cmd/edabench/run.sh --workload score-isa --seed 1 --seconds 20 --trace 0
#
# The build cache, the go command's own config and telemetry, the binary
# and the traced run's spans all stay under .bench_build/ in the
# repository root. The build needs the repository around cmd/edabench
# (its go.mod replaces the root module with ../..), so a copy of this
# directory alone fails to build and exits nonzero.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out"
(
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
	cd cmd/edabench && go build -o "$out/edabench" .
)
exec "$out/edabench" -spans "$out/spans.jsonl" "$@"
