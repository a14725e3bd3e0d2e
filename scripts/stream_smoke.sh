#!/usr/bin/env bash
# Streaming-loop smoke test: the online knowledge-discovery loop against
# a real edaserved, end to end.
#
#   1. build cmd/edaserved and cmd/edaloop
#   2. boot edaserved with no models (readyz stays 503 until the loop
#      publishes its first artifact)
#   3. boot edaloop with a planted distribution shift (-shift-at): it
#      selects novel candidates, retrains incrementally, and pushes
#      every refreshed model's bytes to the edaserved via
#      PUT /models/stream-oneclass, with no -artifact-dir: the two
#      processes share no file
#   4. wait for the loop's own /loop/status to report a drift-triggered
#      refresh — the planted shift must be detected, not just a cadence
#      refresh
#   5. hammer /predict on the edaserved while the loop keeps hot-swapping
#      refreshed models — zero requests may fail across the swaps
#   6. SIGTERM the loop mid-stream and require a graceful drain (exit 0,
#      trajectory summary, "drained, exiting"); then drain the edaserved
#
# CI runs this as the `stream-smoke` job; `make stream-smoke` runs it
# locally. Set GO to use a specific toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."

GO="${GO:-go}"
BASE_PORT="${STREAM_SMOKE_PORT:-18280}"
SERVE_ADDR="127.0.0.1:$BASE_PORT"
SERVE_URL="http://$SERVE_ADDR"
LOOP_ADDR="127.0.0.1:$((BASE_PORT + 1))"
LOOP_URL="http://$LOOP_ADDR"
WORK="$(mktemp -d)"
SERVE_PID=""
LOOP_PID=""

cleanup() {
	for pid in "$LOOP_PID" "$SERVE_PID"; do
		if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
			kill -9 "$pid" 2>/dev/null || true
		fi
	done
	rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build =="
"$GO" build -o "$WORK/edaserved" ./cmd/edaserved
"$GO" build -o "$WORK/edaloop" ./cmd/edaloop
"$WORK/edaloop" -version

echo "== boot edaserved (no models) =="
"$WORK/edaserved" -addr "$SERVE_ADDR" -drain-timeout 5s >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 50); do
	curl -fsS "$SERVE_URL/healthz" >/dev/null 2>&1 && break
	sleep 0.1
done
curl -fsS "$SERVE_URL/healthz" >/dev/null || {
	echo "stream_smoke: edaserved never became healthy" >&2
	cat "$WORK/serve.log" >&2
	exit 1
}

echo "== boot edaloop (planted shift at 600, pushing every swap) =="
"$WORK/edaloop" -seed 42 -source isa -candidates 1000000 \
	-window 256 -warmup 32 -shift-at 600 -min-refit 8 -refresh-max 64 \
	-addr "$LOOP_ADDR" -push-url "$SERVE_URL" \
	>"$WORK/loop.log" 2>&1 &
LOOP_PID=$!

echo "== wait for a drift-triggered refresh =="
drift=""
for _ in $(seq 1 300); do
	if curl -fsS "$LOOP_URL/loop/status" 2>/dev/null | grep -q '"reason":"drift"'; then
		drift=1
		break
	fi
	if ! kill -0 "$LOOP_PID" 2>/dev/null; then
		echo "stream_smoke: edaloop died before the drift refresh" >&2
		cat "$WORK/loop.log" >&2
		exit 1
	fi
	sleep 0.1
done
if [ -z "$drift" ]; then
	echo "stream_smoke: no drift-triggered refresh within 30s" >&2
	cat "$WORK/loop.log" >&2
	curl -fsS "$LOOP_URL/loop/status" >&2 || true
	exit 1
fi
echo "drift refresh observed (planted shift detected)"

echo "== hammer /predict across live hot-swaps =="
swaps_before="$(grep -c 'published' "$WORK/loop.log" || true)"
BODY='{"instances": [[0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]]}'
fails=0
for i in $(seq 1 200); do
	code="$(curl -s -o "$WORK/predict.json" -w '%{http_code}' \
		-X POST "$SERVE_URL/predict/stream-oneclass" \
		-H 'Content-Type: application/json' -d "$BODY")"
	if [ "$code" != "200" ]; then
		fails=$((fails + 1))
		echo "stream_smoke: predict $i returned HTTP $code: $(cat "$WORK/predict.json")" >&2
	fi
done
swaps_after="$(grep -c 'published' "$WORK/loop.log" || true)"
if [ "$fails" != "0" ]; then
	echo "stream_smoke: $fails/200 predicts failed across hot-swaps (want 0)" >&2
	cat "$WORK/serve.log" >&2
	exit 1
fi
if [ "$swaps_after" -le "$swaps_before" ]; then
	echo "stream_smoke: no model swap happened while hammering ($swaps_before -> $swaps_after)" >&2
	cat "$WORK/loop.log" >&2
	exit 1
fi
echo "200/200 predicts answered 200 across $((swaps_after - swaps_before)) live swap(s)"
grep -q '"predictions"' "$WORK/predict.json"

echo "== graceful drain (SIGTERM mid-stream) =="
kill -TERM "$LOOP_PID"
exit_code=0
wait "$LOOP_PID" || exit_code=$?
LOOP_PID=""
if [ "$exit_code" != "0" ]; then
	echo "stream_smoke: edaloop exited $exit_code on SIGTERM (want 0)" >&2
	cat "$WORK/loop.log" >&2
	exit 1
fi
grep -q "drained, exiting" "$WORK/loop.log"
grep -q "swaps" "$WORK/loop.log" # the trajectory summary printed on the way out

echo "== drain edaserved =="
kill -TERM "$SERVE_PID"
exit_code=0
wait "$SERVE_PID" 2>/dev/null || exit_code=$?
SERVE_PID=""
if [ "$exit_code" != "0" ]; then
	echo "stream_smoke: edaserved exited $exit_code on SIGTERM (want 0)" >&2
	cat "$WORK/serve.log" >&2
	exit 1
fi

echo "stream_smoke: OK"
