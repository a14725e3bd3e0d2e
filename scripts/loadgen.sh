#!/usr/bin/env bash
# Ad-hoc load generator for a running edaserved or edarouter: fire N
# single-instance predict requests from C concurrent curl clients —
# cycling X-Priority low/normal/high across clients — and report wall
# time, throughput, per-priority shed (429) rates, and the server's own
# batching/shedding metrics from /metrics.
# BenchmarkServeThroughput and BenchmarkClusterThroughput are the
# in-process twins; this script is for poking a live server.
#
# Usage:
#   scripts/loadgen.sh [-a host:port] [-m model] [-n requests] [-c clients] [-d dim]
#                      [-p rate] [-B mean_burst] [-s seed]
#
#   scripts/loadgen.sh -a localhost:8080 -m zoo-ridge -n 500 -c 8 -d 8
#   SERVE_URL=http://router:9090 scripts/loadgen.sh -m zoo-ridge
#
# By default each client fires requests closed-loop (back to back).
# With -p RATE each client instead follows a bursty Poisson arrival
# process: exponential inter-burst gaps at RATE bursts/second, with
# geometric burst sizes of mean -B (default 4) fired back to back — the
# open-loop shape that actually stresses admission control and
# micro-batching. The schedule is drawn up front from -s SEED (default
# 1), so the same seed replays the identical arrival pattern.
#
# SERVE_URL (env) overrides -a entirely — point it at any base URL,
# including a cluster router.
set -euo pipefail

ADDR="localhost:8080"
MODEL="zoo-ridge"
REQUESTS=200
CLIENTS=8
DIM=8
RATE=0
BURST=4
SEED=1

while getopts "a:m:n:c:d:p:B:s:h" opt; do
	case "$opt" in
	a) ADDR="$OPTARG" ;;
	m) MODEL="$OPTARG" ;;
	n) REQUESTS="$OPTARG" ;;
	c) CLIENTS="$OPTARG" ;;
	d) DIM="$OPTARG" ;;
	p) RATE="$OPTARG" ;;
	B) BURST="$OPTARG" ;;
	s) SEED="$OPTARG" ;;
	h | *)
		grep '^#' "$0" | sed 's/^# \{0,1\}//'
		exit 0
		;;
	esac
done

BASE="${SERVE_URL:-http://$ADDR}"

# One instance of DIM small deterministic values.
instance="$(awk -v d="$DIM" 'BEGIN {
	printf "["
	for (i = 0; i < d; i++) printf "%s%.2f", (i ? ", " : ""), (i % 10) / 10
	printf "]"
}')"
body="{\"instances\": [$instance]}"
url="$BASE/predict/$MODEL"

curl -fsS "$BASE/readyz" >/dev/null || {
	echo "loadgen: $BASE is not ready" >&2
	exit 1
}

# schedule N RATE BURST SEED — one pre-request sleep (seconds) per line:
# exponential inter-burst gaps, zero-gap requests inside each geometric
# burst. Deterministic per seed: same seed, same arrival pattern.
schedule() {
	awk -v n="$1" -v rate="$2" -v burst="$3" -v seed="$4" 'BEGIN {
		srand(seed)
		i = 0
		while (i < n) {
			printf "%.4f\n", -log(1 - rand()) / rate
			b = 1 + int(-log(1 - rand()) * (burst - 1))
			for (j = 1; j < b && i + j < n; j++) printf "0\n"
			i += b
		}
	}'
}

# Each worker runs at one priority tier and reports "fails sheds" —
# hard failures vs 429s its tier absorbed. With a Poisson schedule the
# worker sleeps out its pre-drawn gaps; otherwise it runs closed-loop.
worker() {
	local n=$1 prio=$2 wseed=$3 fails=0 sheds=0 gap sched
	sched="$(mktemp)"
	if [ "$(awk -v r="$RATE" 'BEGIN { print (r > 0) }')" = 1 ]; then
		schedule "$n" "$RATE" "$BURST" "$wseed" >"$sched"
	else
		seq 1 "$n" | sed 's/.*/0/' >"$sched"
	fi
	while read -r gap; do
		[ "$gap" = 0 ] || sleep "$gap"
		code="$(curl -s -o /dev/null -w '%{http_code}' \
			-X POST "$url" -H 'Content-Type: application/json' \
			-H "X-Priority: $prio" -d "$body")"
		case "$code" in
		200) ;;
		429) sheds=$((sheds + 1)) ;;
		*) fails=$((fails + 1)) ;;
		esac
	done <"$sched"
	rm -f "$sched"
	echo "$fails $sheds"
}

PRIORITIES=(low normal high)
per_client=$((REQUESTS / CLIENTS))
[ "$per_client" -ge 1 ] || per_client=1
total=$((per_client * CLIENTS))

if [ "$(awk -v r="$RATE" 'BEGIN { print (r > 0) }')" = 1 ]; then
	echo "loadgen: $total requests -> $url ($CLIENTS clients x $per_client, bursty Poisson: $RATE bursts/s, mean burst $BURST, seed $SEED)"
else
	echo "loadgen: $total requests -> $url ($CLIENTS clients x $per_client, closed-loop, priorities cycled low/normal/high)"
fi
start=$(date +%s.%N)
fail_files=()
prio_of=()
for c in $(seq 1 "$CLIENTS"); do
	f="$(mktemp)"
	fail_files+=("$f")
	prio="${PRIORITIES[$(((c - 1) % 3))]}"
	prio_of+=("$prio")
	worker "$per_client" "$prio" "$((SEED + c))" >"$f" &
done
wait
end=$(date +%s.%N)

fails=0
declare -A sent shed
for p in "${PRIORITIES[@]}"; do
	sent[$p]=0
	shed[$p]=0
done
for i in "${!fail_files[@]}"; do
	f="${fail_files[$i]}"
	p="${prio_of[$i]}"
	read -r wfails wsheds <"$f"
	fails=$((fails + wfails))
	sent[$p]=$((sent[$p] + per_client))
	shed[$p]=$((shed[$p] + wsheds))
	rm -f "$f"
done

total_shed=0
for p in "${PRIORITIES[@]}"; do
	total_shed=$((total_shed + shed[$p]))
done
awk -v t="$total" -v s="$start" -v e="$end" -v f="$fails" -v sh="$total_shed" 'BEGIN {
	el = e - s
	printf "loadgen: %d ok, %d shed (429), %d failed in %.2fs (%.0f req/s)\n", t - f - sh, sh, f, el, t / el
}'
echo "per-priority shed rates (caller side):"
for p in "${PRIORITIES[@]}"; do
	awk -v p="$p" -v n="${sent[$p]}" -v sh="${shed[$p]}" 'BEGIN {
		printf "  %-6s %5d sent, %5d shed (%.1f%%)\n", p, n, sh, n ? 100 * sh / n : 0
	}'
done
echo "server metrics:"
curl -fsS "$BASE/metrics" |
	python3 -c "
import json, sys
m = {x['name']: x for x in json.load(sys.stdin)}
for name in ('serve.batches', 'serve.instances_scored', 'serve.throttled_429',
             'serve.shed.low', 'serve.shed.normal', 'serve.shed.high',
             'serve.kernel_row_cache_hits', 'serve.kernel_row_cache_misses',
             'cluster.requests_routed', 'cluster.throttled_429',
             'cluster.shed.low', 'cluster.shed.normal', 'cluster.shed.high',
             'cluster.failovers'):
    if name in m:
        print(f'  {name}: {m[name].get(\"value\", 0)}')"

[ "$fails" -eq 0 ]
