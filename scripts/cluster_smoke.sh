#!/usr/bin/env bash
# Cluster smoke test: the sharded serving tier against real binaries.
#
#   1. build cmd/edamine, cmd/edaserved, and cmd/edarouter
#   2. train + save artifacts (`edamine -quick -save-model`) into
#      $WORK/train
#   3. boot a 3-replica edaserved fleet, each replica from its own copy
#      of the artifacts, and an edarouter fronting it
#   4. wait until the router's /readyz reports all 3 replicas healthy
#      (its background prober admits them; /readyz itself probes
#      nothing), then require 200 from a routed /predict
#   5. kill one replica outright — predictions must keep answering 200
#      through health-gated failover
#   6. blue/green rollout: PUT the artifact's bytes, read from
#      $WORK/train, which no replica reads, to /models/zoo-ridge on the
#      router while a client hammers /predict — zero requests may fail
#      during the roll, and no filesystem is shared
#   7. SIGTERM the router and require a graceful drain (exit 0)
#
# CI runs this as the `cluster-smoke` job; `make cluster-smoke` runs it
# locally. Set GO to use a specific toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."

GO="${GO:-go}"
BASE_PORT="${CLUSTER_SMOKE_PORT:-18180}"
ROUTER_ADDR="127.0.0.1:$((BASE_PORT + 3))"
ROUTER_URL="http://$ROUTER_ADDR"
WORK="$(mktemp -d)"
PIDS=()
ROUTER_PID=""

cleanup() {
	if [ -n "$ROUTER_PID" ] && kill -0 "$ROUTER_PID" 2>/dev/null; then
		kill -9 "$ROUTER_PID" 2>/dev/null || true
	fi
	for pid in "${PIDS[@]}"; do
		kill -9 "$pid" 2>/dev/null || true
	done
	rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build =="
"$GO" build -o "$WORK/edamine" ./cmd/edamine
"$GO" build -o "$WORK/edaserved" ./cmd/edaserved
"$GO" build -o "$WORK/edarouter" ./cmd/edarouter
"$WORK/edarouter" -version

echo "== train + save artifacts =="
mkdir "$WORK/train"
"$WORK/edamine" -quick -save-model "$WORK/train" models
ls "$WORK/train"/*.model.json >/dev/null

echo "== boot 3-replica fleet, each from its own directory =="
REPLICA_FLAGS=()
for i in 0 1 2; do
	port=$((BASE_PORT + i))
	mkdir "$WORK/replica$i"
	cp "$WORK/train"/*.model.json "$WORK/replica$i/"
	"$WORK/edaserved" -addr "127.0.0.1:$port" -model-dir "$WORK/replica$i" -drain-timeout 5s \
		>"$WORK/replica$i.log" 2>&1 &
	PIDS+=($!)
	disown $! # silence job-control noise when the kill step reaps it
	REPLICA_FLAGS+=(-replica "http://127.0.0.1:$port")
done

echo "== boot router =="
"$WORK/edarouter" -addr "$ROUTER_ADDR" "${REPLICA_FLAGS[@]}" \
	-replication 2 -probe-interval 200ms -drain-timeout 5s \
	>"$WORK/router.log" 2>&1 &
ROUTER_PID=$!

# The kill below is survivable only once every owner is in service.
ready=""
for _ in $(seq 1 50); do
	if curl -fsS "$ROUTER_URL/readyz" 2>/dev/null | grep -q '"healthy":3,'; then
		ready=1
		break
	fi
	if ! kill -0 "$ROUTER_PID" 2>/dev/null; then
		echo "cluster_smoke: router died during startup" >&2
		cat "$WORK/router.log" >&2
		exit 1
	fi
	sleep 0.1
done
if [ -z "$ready" ]; then
	echo "cluster_smoke: router never reported all 3 replicas healthy" >&2
	cat "$WORK/router.log" "$WORK"/replica*.log >&2
	exit 1
fi
echo "readyz: $(curl -fsS "$ROUTER_URL/readyz" | head -c 200)"

BODY='{"instances": [[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]]}'
predict() {
	curl -s -o "$1" -w '%{http_code}' \
		-X POST "$ROUTER_URL/predict/zoo-ridge" \
		-H 'Content-Type: application/json' -d "$BODY"
}

echo "== routed predict =="
status="$(predict "$WORK/predict.json")"
if [ "$status" != "200" ]; then
	echo "cluster_smoke: routed predict returned HTTP $status" >&2
	cat "$WORK/predict.json" "$WORK/router.log" >&2
	exit 1
fi
grep -q '"predictions"' "$WORK/predict.json"
echo "predict: $(cat "$WORK/predict.json")"

echo "== kill replica 0: traffic must keep flowing =="
kill -9 "${PIDS[0]}"
fails=0
for i in $(seq 1 20); do
	status="$(predict "$WORK/predict_kill_$i.json")"
	[ "$status" = "200" ] || fails=$((fails + 1))
done
if [ "$fails" != "0" ]; then
	echo "cluster_smoke: $fails/20 predicts failed after replica kill" >&2
	cat "$WORK/router.log" >&2
	exit 1
fi
echo "replica killed: 20/20 predicts answered 200"

echo "== blue/green rollout under live traffic, by value =="
ARTIFACT="$WORK/train/ridge.model.json"
# Hammer predicts in the background while the rollout walks the owners.
: >"$WORK/roll_fails"
(
	rf=0
	for _ in $(seq 1 60); do
		code="$(curl -s -o /dev/null -w '%{http_code}' \
			-X POST "$ROUTER_URL/predict/zoo-ridge" \
			-H 'Content-Type: application/json' -d "$BODY")"
		[ "$code" = "200" ] || rf=$((rf + 1))
	done
	echo "$rf" >"$WORK/roll_fails"
) &
TRAFFIC_PID=$!
sleep 0.2
roll_status="$(curl -s -o "$WORK/rollout.json" -w '%{http_code}' \
	-X PUT "$ROUTER_URL/models/zoo-ridge" \
	-H 'Content-Type: application/json' \
	--data-binary @"$ARTIFACT")"
wait "$TRAFFIC_PID"
roll_fails="$(cat "$WORK/roll_fails")"
if [ "$roll_status" != "200" ]; then
	echo "cluster_smoke: rollout returned HTTP $roll_status" >&2
	cat "$WORK/rollout.json" "$WORK/router.log" >&2
	exit 1
fi
if [ "$roll_fails" != "0" ]; then
	echo "cluster_smoke: $roll_fails/60 predicts failed during rollout (want 0)" >&2
	cat "$WORK/router.log" >&2
	exit 1
fi
echo "rollout: $(cat "$WORK/rollout.json" | head -c 200)"
echo "rollout under traffic: 60/60 predicts answered 200"

echo "== graceful shutdown (SIGTERM) =="
kill -TERM "$ROUTER_PID"
exit_code=0
wait "$ROUTER_PID" || exit_code=$?
ROUTER_PID=""
if [ "$exit_code" != "0" ]; then
	echo "cluster_smoke: router exited $exit_code on SIGTERM (want 0)" >&2
	cat "$WORK/router.log" >&2
	exit 1
fi
grep -q "drained, exiting" "$WORK/router.log"

echo "cluster_smoke: OK"
