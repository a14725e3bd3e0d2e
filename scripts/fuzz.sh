#!/usr/bin/env bash
# Bounded fuzz sweep over the untrusted-input decoders: model artifact
# decoding (internal/model.FuzzModelDecode), the predict body decoder
# against encoding/json (internal/serve.FuzzDecodePredict), the predict
# and load handlers of a single node (internal/serve.FuzzPredictHandler,
# FuzzLoadHandler) and of the cluster router
# (internal/serve/cluster.FuzzRouterPredict, FuzzRouterLoad), the
# router's handling of a replica's predict reply
# (internal/serve/cluster.FuzzRouterReply), and benchmark-dataset
# artifact decoding
# (internal/datasets.FuzzDatasetDecode). Each
# target runs for FUZZTIME (default 30s) from its committed seed corpus;
# any crasher Go writes to testdata/fuzz/ fails the run and should be
# committed as a regression input once fixed.
#
# -fuzzminimizetime bounds the per-input corpus-minimization pass, which
# otherwise gets a 60s budget every time the fuzzer finds interesting
# coverage and makes short CI runs look stalled at 0 execs/sec.
#
# Set GO to use a specific toolchain, e.g. `GO=go1.22.12 ./scripts/fuzz.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."

GO="${GO:-go}"
FUZZTIME="${FUZZTIME:-30s}"

targets=(
	"repro/internal/model FuzzModelDecode"
	"repro/internal/serve FuzzDecodePredict"
	"repro/internal/serve FuzzPredictHandler"
	"repro/internal/serve FuzzLoadHandler"
	"repro/internal/serve/cluster FuzzRouterPredict"
	"repro/internal/serve/cluster FuzzRouterLoad"
	"repro/internal/serve/cluster FuzzRouterReply"
	"repro/internal/datasets FuzzDatasetDecode"
)

for t in "${targets[@]}"; do
	read -r pkg name <<<"$t"
	echo "== fuzz $pkg $name ($FUZZTIME) =="
	"$GO" test "$pkg" -run '^$' -fuzz "^${name}\$" \
		-fuzztime "$FUZZTIME" -fuzzminimizetime 5s
done

echo "fuzz: OK"
