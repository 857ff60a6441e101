#!/bin/sh
# Replication smoke for CI: boot a primary/follower grbacd pair on
# loopback, push a mutation through the primary's admin API, and assert
# the follower converges (lag 0, not stale, the mutation visible in its
# replicated state) using only the shipped binaries — the same drill an
# operator would run by hand.
set -eu

cd "$(dirname "$0")/.."

smoke=replication_smoke
smoke_pids="primary_pid follower_pid"
. scripts/lib.sh

primary_port=${SMOKE_PRIMARY_PORT:-18125}
follower_port=${SMOKE_FOLLOWER_PORT:-18126}
primary="http://127.0.0.1:$primary_port"
follower="http://127.0.0.1:$follower_port"

go build -o "$workdir/grbacd" ./cmd/grbacd
go build -o "$workdir/grbacctl" ./cmd/grbacctl

"$workdir/grbacd" -addr "127.0.0.1:$primary_port" -admin \
	>"$workdir/primary.log" 2>&1 &
primary_pid=$!
"$workdir/grbacd" -addr "127.0.0.1:$follower_port" -follow "$primary" \
	>"$workdir/follower.log" 2>&1 &
follower_pid=$!

wait_until "primary healthz" "$workdir/grbacctl" -server "$primary" health
wait_until "follower healthz" "$workdir/grbacctl" -server "$follower" health

# Mutate via the primary's admin API: a subject the stock policy lacks.
curl -sf -X POST "$primary/v1/admin/subjects" \
	-H 'Content-Type: application/json' \
	-d '{"id":"smoke-test-subject"}' >/dev/null

converged() {
	out=$("$workdir/grbacctl" -server "$follower" replication) || return 1
	echo "$out" | grep -q '^lag: 0$' || return 1
	echo "$out" | grep -q '^stale: false$' || return 1
	"$workdir/grbacctl" -server "$follower" state |
		grep -q '"smoke-test-subject"'
}
wait_until "follower convergence" converged

echo "replication_smoke: follower state after convergence:"
"$workdir/grbacctl" -server "$follower" replication

# Observability smoke: a decision against each node, each under its own
# correlation ID; assert the ID finds exactly that decision's audit
# record, fresh and stamped with its route, and that the /metrics
# expositions carry the decide histogram, the cache counters, and (on the
# follower) replication lag.
curl -sf -X POST "$primary/v1/check" -H 'Content-Type: application/json' \
	-H 'X-Correlation-ID: smoke-join-1' \
	-d '{"subject":"alice","object":"tv","transaction":"use","environment":["weekday-free-time"]}' \
	>/dev/null
curl -sf -X POST "$follower/v1/check" -H 'Content-Type: application/json' \
	-H 'X-Correlation-ID: smoke-join-2' \
	-d '{"subject":"alice","object":"tv","transaction":"use","environment":["weekday-free-time"]}' \
	>/dev/null

audit_joins() {
	url=$1
	id=$2
	out=$("$workdir/grbacctl" -server "$url" audit -correlation-id "$id")
	n=$(printf '%s\n' "$out" | grep -c . || true)
	if [ "$n" -ne 1 ] || ! printf '%s\n' "$out" | grep -q "\[/v1/check $id\]\$"; then
		echo "replication_smoke: FAIL: $url audit -correlation-id $id, want one fresh /v1/check record:" >&2
		echo "$out" >&2
		exit 1
	fi
	echo "replication_smoke: $id -> $out"
}
audit_joins "$primary" smoke-join-1
audit_joins "$follower" smoke-join-2

metrics_have() {
	url=$1
	family=$2
	curl -sf "$url/metrics" | grep -q "^$family" || {
		echo "replication_smoke: FAIL: $url/metrics missing $family" >&2
		exit 1
	}
}
metrics_have "$primary" 'grbac_http_request_duration_seconds_bucket{route="/v1/check"'
metrics_have "$primary" grbac_decision_cache_hits_total
metrics_have "$primary" grbac_decision_cache_misses_total
metrics_have "$primary" grbac_policy_snapshot_compiles_total
metrics_have "$follower" grbac_replica_lag_generations
metrics_have "$follower" grbac_replica_syncs_total
echo "replication_smoke: metrics exposition OK"
"$workdir/grbacctl" -server "$follower" top
echo "replication_smoke: OK"
