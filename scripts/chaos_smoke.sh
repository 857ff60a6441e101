#!/bin/sh
# Chaos smoke for CI: boot a primary grbacd with fault injection armed
# (slow and panicking decision handlers) plus admission control, and a
# follower replicating through it. Flood the primary, then assert the
# overload-protection contract with only the shipped binaries:
#   - at least one request is shed with 429 + Retry-After;
#   - /v1/statsz reports shed > 0 and recovered_panics > 0;
#   - the follower still converges despite the chaos;
#   - the primary still answers healthz at the end.
set -eu

cd "$(dirname "$0")/.."

smoke=chaos_smoke
smoke_pids="primary_pid follower_pid"
. scripts/lib.sh

primary_port=${SMOKE_PRIMARY_PORT:-18135}
follower_port=${SMOKE_FOLLOWER_PORT:-18136}
primary="http://127.0.0.1:$primary_port"
follower="http://127.0.0.1:$follower_port"

go build -o "$workdir/grbacd" ./cmd/grbacd
go build -o "$workdir/grbacctl" ./cmd/grbacctl

# Two admission slots, a 50ms wait, and an armed fault plan: half the
# admitted decisions stall 100ms (saturating the slots so the flood
# sheds), and every 13th admitted decision panics (exercising the
# recovery middleware).
"$workdir/grbacd" -addr "127.0.0.1:$primary_port" -admin \
	-max-inflight 2 -inflight-wait 50ms \
	-faults 'pdp.decide:delay=100ms,prob=0.5;pdp.decide:panic=chaos-smoke,every=13' \
	>"$workdir/primary.log" 2>&1 &
primary_pid=$!
"$workdir/grbacd" -addr "127.0.0.1:$follower_port" -follow "$primary" \
	>"$workdir/follower.log" 2>&1 &
follower_pid=$!

wait_until "primary healthz" "$workdir/grbacctl" -server "$primary" health
wait_until "follower healthz" "$workdir/grbacctl" -server "$follower" health

body='{"subject":"alice","object":"tv","transaction":"use","environment":["weekday-free-time"]}'

# Flood: 40 concurrent checks against 2 slots of 100ms-stalled mediation.
# Keep every response's status line + headers for the shed assertions.
# Wait on the curl pids explicitly: a bare `wait` would also wait on the
# grbacd background processes, which never exit.
flood_pids=""
i=0
while [ "$i" -lt 40 ]; do
	curl -s -o /dev/null -D "$workdir/resp.$i.headers" \
		-X POST "$primary/v1/check" \
		-H 'Content-Type: application/json' -d "$body" &
	flood_pids="$flood_pids $!"
	i=$((i + 1))
done
for pid in $flood_pids; do
	wait "$pid" || true
done

# Panics fire every 13th admitted decision; the flood may shed too many to
# get there, so drive sequential traffic until the gauge moves.
panics_recovered() {
	"$workdir/grbacctl" -server "$primary" stats |
		grep -q '"recovered_panics": *[1-9]'
}
drive_and_check() {
	curl -s -o /dev/null -X POST "$primary/v1/check" \
		-H 'Content-Type: application/json' -d "$body"
	panics_recovered
}
wait_until "a recovered panic" drive_and_check

shed=$(grep -l '^HTTP/1.1 429' "$workdir"/resp.*.headers | wc -l)
if [ "$shed" -lt 1 ]; then
	echo "chaos_smoke: FAIL: no request shed with 429 (flood too gentle?)" >&2
	exit 1
fi
for f in $(grep -l '^HTTP/1.1 429' "$workdir"/resp.*.headers); do
	if ! grep -qi '^Retry-After:' "$f"; then
		echo "chaos_smoke: FAIL: 429 without Retry-After in $f" >&2
		cat "$f" >&2
		exit 1
	fi
done

stats=$("$workdir/grbacctl" -server "$primary" stats)
echo "$stats" | grep -q '"shed": *[1-9]' || {
	echo "chaos_smoke: FAIL: statsz shed not positive: $stats" >&2
	exit 1
}

# The follower must converge despite the primary's chaos (decide-path
# faults never touch the replication feed).
curl -sf -X POST "$primary/v1/admin/subjects" \
	-H 'Content-Type: application/json' \
	-d '{"id":"chaos-smoke-subject"}' >/dev/null
converged() {
	out=$("$workdir/grbacctl" -server "$follower" replication) || return 1
	echo "$out" | grep -q '^lag: 0$' || return 1
	"$workdir/grbacctl" -server "$follower" state |
		grep -q '"chaos-smoke-subject"'
}
wait_until "follower convergence under chaos" converged

wait_until "primary healthz after the storm" "$workdir/grbacctl" -server "$primary" health

echo "chaos_smoke: $shed/40 flood requests shed with 429 + Retry-After"
echo "chaos_smoke: primary gauges after the storm:"
echo "$stats" | grep -E '"(shed|recovered_panics|inflight_limit)"' || true
echo "chaos_smoke: OK"
