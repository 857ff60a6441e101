#!/bin/sh
# Embedded-SDK smoke for CI: boot a primary grbacd on loopback and drive
# the examples/embedded program against it, asserting the SDK's three
# contracts end to end with the shipped binaries:
#   1. a locally-evaluable request is answered in-process from the
#      bootstrapped snapshot (source=local);
#   2. a nil-environment request — live-sensor state only the primary
#      holds — falls back over HTTP (source=remote);
#   3. an admin mutation on the primary flips the embedded decision via
#      watch-driven invalidation: the example blocks on the push signal,
#      never a polling sleep, and exits the moment the flip arrives.
set -eu

cd "$(dirname "$0")/.."

smoke=sdk_smoke
smoke_pids="primary_pid wait_pid"
. scripts/lib.sh

port=${SMOKE_SDK_PORT:-18127}
primary="http://127.0.0.1:$port"

go build -o "$workdir/grbacd" ./cmd/grbacd
go build -o "$workdir/embedded" ./examples/embedded

"$workdir/grbacd" -addr "127.0.0.1:$port" -admin \
	>"$workdir/primary.log" 2>&1 &
primary_pid=$!

wait_until "primary healthz" curl -sf "$primary/v1/healthz"

# Contract 1 + 2: one-shot run — a local decision from the embedded
# snapshot, then a live-environment decision over the remote fallback.
"$workdir/embedded" -primary "$primary" >"$workdir/oneshot.log" 2>&1
grep -q 'decide: allowed=true source=local stale=false' "$workdir/oneshot.log" || {
	echo "sdk_smoke: FAIL: no local permit in one-shot run" >&2
	cat "$workdir/oneshot.log" >&2
	exit 1
}
grep -q 'decide (live environment): .* source=remote' "$workdir/oneshot.log" || {
	echo "sdk_smoke: FAIL: live-environment flow did not fall back to the primary" >&2
	cat "$workdir/oneshot.log" >&2
	exit 1
}
echo "sdk_smoke: local mediation + remote fallback OK"

# Contract 3: start the example blocking on the push signal, then flip
# the stock policy with a deny rule through the primary's admin API. The
# example must observe the flip and exit on its own.
"$workdir/embedded" -primary "$primary" -wait-change -wait-timeout 30s \
	>"$workdir/wait.log" 2>&1 &
wait_pid=$!
wait_until "example synced and armed" \
	grep -q 'waiting for a primary mutation' "$workdir/wait.log"

curl -sf -X POST "$primary/v1/admin/permissions" \
	-H 'Content-Type: application/json' \
	-d '{"subject":"child","object":"entertainment-devices","environment":"weekday-free-time","transaction":"use","effect":"deny"}' \
	>/dev/null

if ! wait "$wait_pid"; then
	echo "sdk_smoke: FAIL: example did not observe the policy flip" >&2
	cat "$workdir/wait.log" >&2
	exit 1
fi
wait_pid=
grep -q 'flipped: allowed=false source=local' "$workdir/wait.log" || {
	echo "sdk_smoke: FAIL: flip line missing or not served locally" >&2
	cat "$workdir/wait.log" >&2
	exit 1
}
echo "sdk_smoke: watch-driven invalidation OK"
cat "$workdir/wait.log"
echo "sdk_smoke: OK"
