#!/usr/bin/env bash
# Serving smoke test: the full artifact lifecycle against real binaries.
#
#   1. build cmd/edamine and cmd/edaserved
#   2. train + save one artifact of every kind (`edamine -save-model`)
#   3. boot edaserved on the artifact directory
#   4. poll /readyz until ready, then require 200 from one /predict call
#   5. PUT one artifact's bytes under a new name into the running
#      server and require 200 from a /predict call on that name
#   6. SIGTERM the server and require a graceful exit (status 0)
#
# CI runs this as the `smoke` job; it is also the quickest way to check
# a local build end to end. Set GO to use a specific toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."

GO="${GO:-go}"
ADDR="${SMOKE_ADDR:-127.0.0.1:18080}"
# All probes go through SERVE_URL, so the smoke can also be pointed at
# an already-running server (or a cluster router fronting one).
SERVE_URL="${SERVE_URL:-http://$ADDR}"
WORK="$(mktemp -d)"
SERVER_PID=""

cleanup() {
	if [ -n "$SERVER_PID" ] && kill -0 "$SERVER_PID" 2>/dev/null; then
		kill -9 "$SERVER_PID" 2>/dev/null || true
	fi
	rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build =="
"$GO" build -o "$WORK/edamine" ./cmd/edamine
"$GO" build -o "$WORK/edaserved" ./cmd/edaserved
"$WORK/edaserved" -version
"$WORK/edamine" -version

echo "== train + save artifacts =="
"$WORK/edamine" -quick -save-model "$WORK" models
ls "$WORK"/*.model.json >/dev/null

echo "== boot edaserved =="
"$WORK/edaserved" -addr "$ADDR" -model-dir "$WORK" -drain-timeout 5s \
	>"$WORK/server.log" 2>&1 &
SERVER_PID=$!

ready=""
for _ in $(seq 1 50); do
	if curl -fsS "$SERVE_URL/readyz" >/dev/null 2>&1; then
		ready=1
		break
	fi
	if ! kill -0 "$SERVER_PID" 2>/dev/null; then
		echo "smoke: server died during startup" >&2
		cat "$WORK/server.log" >&2
		exit 1
	fi
	sleep 0.1
done
if [ -z "$ready" ]; then
	echo "smoke: server never became ready" >&2
	cat "$WORK/server.log" >&2
	exit 1
fi
echo "readyz: $(curl -fsS "$SERVE_URL/readyz")"

echo "== predict =="
status="$(curl -s -o "$WORK/predict.json" -w '%{http_code}' \
	-X POST "$SERVE_URL/predict/zoo-ridge" \
	-H 'Content-Type: application/json' \
	-d '{"instances": [[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]]}')"
if [ "$status" != "200" ]; then
	echo "smoke: predict returned HTTP $status" >&2
	cat "$WORK/predict.json" >&2
	cat "$WORK/server.log" >&2
	exit 1
fi
grep -q '"predictions"' "$WORK/predict.json"
echo "predict: $(cat "$WORK/predict.json")"

echo "== hot-load by value (PUT /models/{name}) =="
status="$(curl -s -o "$WORK/load.json" -w '%{http_code}' \
	-X PUT "$SERVE_URL/models/pushed-ridge" \
	-H 'Content-Type: application/json' \
	--data-binary @"$WORK/ridge.model.json")"
if [ "$status" != "200" ]; then
	echo "smoke: PUT /models/pushed-ridge returned HTTP $status" >&2
	cat "$WORK/load.json" >&2
	exit 1
fi
status="$(curl -s -o "$WORK/predict_pushed.json" -w '%{http_code}' \
	-X POST "$SERVE_URL/predict/pushed-ridge" \
	-H 'Content-Type: application/json' \
	-d '{"instances": [[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]]}')"
if [ "$status" != "200" ]; then
	echo "smoke: predict on the pushed model returned HTTP $status" >&2
	cat "$WORK/predict_pushed.json" >&2
	exit 1
fi
echo "pushed: $(cat "$WORK/load.json")"

echo "== graceful shutdown (SIGTERM) =="
kill -TERM "$SERVER_PID"
exit_code=0
wait "$SERVER_PID" || exit_code=$?
SERVER_PID=""
if [ "$exit_code" != "0" ]; then
	echo "smoke: server exited $exit_code on SIGTERM (want 0)" >&2
	cat "$WORK/server.log" >&2
	exit 1
fi
grep -q "drained, exiting" "$WORK/server.log"

echo "smoke: OK"
