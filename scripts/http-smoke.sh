#!/bin/sh
# HTTP serving smoke gate: boot adascale-serve -http on an ephemeral port
# under the race detector, drive the whole API surface with curl — health
# probes, stream admission, frame ingestion, result polling, a Prometheus
# scrape, concurrent posts to both admitted streams — then send SIGTERM and
# require a graceful drain: the process must exit zero and report `lost=0`
# (offered == served + dropped held through shutdown), with /readyz flipping
# to 503 while results stay readable.
set -eu
cd "$(dirname "$0")/.."

PORTLOG=$(mktemp) || exit 1
BODY=$(mktemp) || exit 1
CODES=$(mktemp) || exit 1
SRVPID=""
cleanup() {
	[ -n "$SRVPID" ] && kill "$SRVPID" 2>/dev/null || true
	rm -f "$PORTLOG" "$BODY" "$CODES"
}
trap cleanup EXIT

echo "== build + start server"
go build -race -o /tmp/adascale-serve-smoke ./cmd/adascale-serve
/tmp/adascale-serve-smoke -http 127.0.0.1:0 -train 6 -val 3 -workers 2 \
	-seed 5 -slo-ms 200 -queue 4 -tenant-streams 2 >"$PORTLOG" &
SRVPID=$!

# The training run takes a few seconds; wait for the listening line.
ADDR=""
for _ in $(seq 1 120); do
	ADDR=$(sed -n 's/^http: listening on //p' "$PORTLOG")
	[ -n "$ADDR" ] && break
	kill -0 "$SRVPID" 2>/dev/null || { echo "http-smoke: server died during startup" >&2; cat "$PORTLOG" >&2; exit 1; }
	sleep 0.5
done
[ -n "$ADDR" ] || { echo "http-smoke: server never listened" >&2; cat "$PORTLOG" >&2; exit 1; }
BASE="http://$ADDR"
echo "== server at $BASE"

req() { # req <expected-status> <curl args...>
	want=$1
	shift
	got=$(curl -s -o "$BODY" -w '%{http_code}' "$@")
	if [ "$got" != "$want" ]; then
		echo "http-smoke: $* -> $got, want $want" >&2
		cat "$BODY" >&2
		exit 1
	fi
}

echo "== probes"
req 200 "$BASE/healthz"
req 200 "$BASE/readyz"

echo "== admission"
req 201 -X POST -H 'X-Tenant: cam' -d '{"tenant":"cam","slo_ms":200}' "$BASE/v1/streams"
grep -q '"stream_id":0' "$BODY" || { echo "http-smoke: bad admit reply" >&2; cat "$BODY" >&2; exit 1; }
# Quota: third stream for the same tenant must be a 429.
req 201 -X POST -H 'X-Tenant: cam' -d '{"tenant":"cam"}' "$BASE/v1/streams"
req 429 -X POST -H 'X-Tenant: cam' -d '{"tenant":"cam"}' "$BASE/v1/streams"
# Typed 400s: empty tenant, malformed frame.
req 400 -X POST -d '{"tenant":""}' "$BASE/v1/streams"
req 400 -X POST -H 'X-Tenant: cam' -d '{"frames":[{"w":1,"h":1}]}' "$BASE/v1/streams/0/frames"
req 404 -X POST -H 'X-Tenant: cam' -d '{"frames":[{"w":64,"h":64}]}' "$BASE/v1/streams/99/frames"

echo "== ingestion"
req 202 -X POST -H 'X-Tenant: cam' \
	-d '{"frames":[{"w":320,"h":240,"objects":[{"id":1,"class":2,"x1":30,"y1":30,"x2":120,"y2":130}]},{"w":320,"h":240}]}' \
	"$BASE/v1/streams/0/frames"
grep -q '"accepted":2' "$BODY" || { echo "http-smoke: bad ingest reply" >&2; cat "$BODY" >&2; exit 1; }

echo "== results"
# Poll until the stream's runner has served both frames.
served=""
for _ in $(seq 1 100); do
	req 200 "$BASE/v1/streams/0/results"
	if grep -q '"served":2' "$BODY"; then served=2; break; fi
	sleep 0.1
done
[ -n "$served" ] || { echo "http-smoke: frames never served" >&2; cat "$BODY" >&2; exit 1; }
grep -q '"scale":' "$BODY" || { echo "http-smoke: results carry no scales" >&2; cat "$BODY" >&2; exit 1; }

echo "== metrics"
req 200 "$BASE/metrics"
grep -q '^# TYPE adascale_frames_served counter$' "$BODY" || {
	echo "http-smoke: /metrics missing frames_served TYPE line" >&2; cat "$BODY" >&2; exit 1; }
grep -q '^adascale_frames_served 2$' "$BODY" || {
	echo "http-smoke: /metrics frames_served != 2" >&2; cat "$BODY" >&2; exit 1; }
grep -q 'adascale_latency_ms{quantile="0.99"}' "$BODY" || {
	echo "http-smoke: /metrics missing latency summary" >&2; cat "$BODY" >&2; exit 1; }

echo "== concurrent ingestion"
# Three posts to each admitted stream at once, so each stream's runner starts
# and ends while other posts queue behind it; drain must still lose nothing.
CURLS=""
for id in 0 1 0 1 0 1; do
	curl -s -o /dev/null -w '%{http_code}\n' -X POST -H 'X-Tenant: cam' \
		-d '{"frames":[{"w":320,"h":240},{"w":320,"h":240}]}' \
		"$BASE/v1/streams/$id/frames" >>"$CODES" &
	CURLS="$CURLS $!"
done
wait $CURLS
[ "$(grep -c '^202$' "$CODES")" = 6 ] || {
	echo "http-smoke: concurrent posts not all 202" >&2; cat "$CODES" >&2; exit 1; }

echo "== bounded metric vocabulary"
# Once both admitted streams have served, /metrics must still name no stream:
# each stream's ledger is its results, not a family of its own.
served=""
for _ in $(seq 1 100); do
	req 200 "$BASE/v1/streams/1/results"
	if ! grep -q '"served":0[,}]' "$BODY"; then served=1; break; fi
	sleep 0.1
done
[ -n "$served" ] || { echo "http-smoke: stream 1 never served" >&2; cat "$BODY" >&2; exit 1; }
req 200 "$BASE/metrics"
if grep -q '^# TYPE adascale_stream_' "$BODY"; then
	echo "http-smoke: /metrics has per-stream families" >&2
	grep '^# TYPE adascale_stream_' "$BODY" >&2
	exit 1
fi

echo "== graceful drain"
kill -TERM "$SRVPID"
EXIT=0
wait "$SRVPID" || EXIT=$?
SRVPID=""
if [ "$EXIT" != 0 ]; then
	echo "http-smoke: server exited $EXIT after SIGTERM" >&2
	cat "$PORTLOG" >&2
	exit 1
fi
grep -q '^drain: .* lost=0$' "$PORTLOG" || {
	echo "http-smoke: drain accounting line missing or lossy" >&2; cat "$PORTLOG" >&2; exit 1; }
grep -q '^counter frames/served' "$PORTLOG" || {
	echo "http-smoke: final snapshot missing" >&2; cat "$PORTLOG" >&2; exit 1; }
echo "http smoke: OK (drained with zero admitted-frame loss)"
