#!/bin/sh
# Sharded-cluster smoke for CI: boot two grbacd shards, a grbacd -route
# routing tier in front of them, and a follower replicating the shared
# policy from shard A, then assert the sharding contracts end to end
# with the shipped binaries:
#   1. subjects registered through the router land on exactly one owning
#      shard (consistent-hash partitioning, no duplication);
#   2. routed decides answer for every subject regardless of owner;
#   3. cross-shard SubjectsInRole through the router unions both
#      partitions;
#   4. shared-policy replication still works behind the router: the
#      follower converges to shard A's generation;
#   5. shard-down degradation: with shard B killed, strict scatter
#      queries fail loudly (502 naming the dead shard), ?allow_partial=1
#      degrades to the reachable union, decides for shard-A subjects
#      keep working, and router health reports degraded.
set -eu

cd "$(dirname "$0")/.."

smoke=shard_smoke
smoke_pids="pid_a pid_b pid_r pid_f"
. scripts/lib.sh

port_a=${SMOKE_SHARD_PORT_A:-18131}
port_b=${SMOKE_SHARD_PORT_B:-18132}
port_r=${SMOKE_SHARD_PORT_R:-18133}
port_f=${SMOKE_SHARD_PORT_F:-18134}
shard_a="http://127.0.0.1:$port_a"
shard_b="http://127.0.0.1:$port_b"
router="http://127.0.0.1:$port_r"
follower="http://127.0.0.1:$port_f"

go build -o "$workdir/grbacd" ./cmd/grbacd
go build -o "$workdir/grbacctl" ./cmd/grbacctl

"$workdir/grbacd" -addr "127.0.0.1:$port_a" -admin >"$workdir/shard_a.log" 2>&1 &
pid_a=$!
"$workdir/grbacd" -addr "127.0.0.1:$port_b" -admin >"$workdir/shard_b.log" 2>&1 &
pid_b=$!
"$workdir/grbacd" -addr "127.0.0.1:$port_r" \
	-route "a=$shard_a,b=$shard_b" -shard-timeout 2s \
	>"$workdir/router.log" 2>&1 &
pid_r=$!
"$workdir/grbacd" -addr "127.0.0.1:$port_f" -follow "$shard_a" \
	>"$workdir/follower.log" 2>&1 &
pid_f=$!

wait_until "shard A healthz" curl -sf "$shard_a/v1/healthz"
wait_until "shard B healthz" curl -sf "$shard_b/v1/healthz"
wait_until "router healthz" curl -sf "$router/v1/healthz"
wait_until "follower healthz" curl -sf "$follower/v1/healthz"

# The shard map is served and both shards probe healthy.
"$workdir/grbacctl" -server "$router" shards
echo "shard_smoke: router serves the shard map, both shards reachable"

# Contract 1: register subjects through the router; each must exist on
# exactly one shard (the stock policy ships a child role to bind to).
subjects="smoke-ada smoke-bob smoke-cyd smoke-dee smoke-eve smoke-fay smoke-gus smoke-hal"
for sub in $subjects; do
	curl -sf -X POST "$router/v1/admin/subjects" \
		-H 'Content-Type: application/json' \
		-d "{\"id\":\"$sub\",\"roles\":[\"child\"]}" >/dev/null
done

count_on() {
	# count_on <shard-url>: how many smoke subjects this shard holds.
	n=0
	for sub in $subjects; do
		if curl -sf "$1/v1/query/subjects-in-role?role=child" | grep -q "\"$sub\""; then
			n=$((n + 1))
		fi
	done
	echo "$n"
}

on_a=$(count_on "$shard_a")
on_b=$(count_on "$shard_b")
echo "shard_smoke: partition: shard A holds $on_a, shard B holds $on_b of 8 subjects"
if [ $((on_a + on_b)) -ne 8 ]; then
	echo "shard_smoke: FAIL: partitions hold $on_a + $on_b subjects, want exactly 8 total" >&2
	exit 1
fi
if [ "$on_a" -eq 0 ] || [ "$on_b" -eq 0 ]; then
	echo "shard_smoke: FAIL: one shard owns every subject — hashing is not spreading" >&2
	exit 1
fi

# Contract 2: every subject decides through the router, whichever shard
# owns it (stock policy: a child may use the tv during weekday-free-time).
for sub in $subjects; do
	"$workdir/grbacctl" -server "$router" check \
		-subject "$sub" -object tv -transaction use -env weekday-free-time \
		>/dev/null || {
		echo "shard_smoke: FAIL: routed decide for $sub denied or errored" >&2
		exit 1
	}
done
echo "shard_smoke: routed decide OK for all 8 subjects"

# Contract 3: cross-shard SubjectsInRole unions both partitions.
union=$(curl -sf "$router/v1/query/subjects-in-role?role=child")
for sub in $subjects; do
	echo "$union" | grep -q "\"$sub\"" || {
		echo "shard_smoke: FAIL: scatter union is missing $sub" >&2
		echo "$union" >&2
		exit 1
	}
done
echo "shard_smoke: cross-shard SubjectsInRole union OK"

# Contract 4: the follower replicates shard A's shared policy and
# reports lag 0 once converged.
wait_until "follower convergence" sh -c \
	"\"$workdir/grbacctl\" -server \"$follower\" replication | grep -q '^lag: 0$'"
echo "shard_smoke: follower converged on shard A's policy"

# Contract 5: shard-down degradation. Kill shard B and assert the
# partial-failure semantics.
kill "$pid_b" 2>/dev/null
wait "$pid_b" 2>/dev/null || true
pid_b=
wait_until "router noticing shard B down" sh -c \
	"curl -s \"$router/v1/healthz\" | grep -q unreachable"

# 5a: strict scatter fails loudly, naming the dead shard only.
strict_status=$(curl -s -o "$workdir/strict.json" -w '%{http_code}' \
	"$router/v1/query/subjects-in-role?role=child")
if [ "$strict_status" != "502" ]; then
	echo "shard_smoke: FAIL: strict scatter with a dead shard returned $strict_status, want 502" >&2
	cat "$workdir/strict.json" >&2
	exit 1
fi
grep -q '"b"' "$workdir/strict.json" || {
	echo "shard_smoke: FAIL: strict scatter error does not name the dead shard" >&2
	cat "$workdir/strict.json" >&2
	exit 1
}

# 5b: allow_partial degrades to the reachable union and says so.
partial=$(curl -sf "$router/v1/query/subjects-in-role?role=child&allow_partial=1")
echo "$partial" | grep -q '"partial":\s*true' || echo "$partial" | grep -q '"partial": *true' || {
	echo "shard_smoke: FAIL: allow_partial reply is not marked partial" >&2
	echo "$partial" >&2
	exit 1
}

# 5c: shard A's subjects still decide through the router.
survivor=""
for sub in $subjects; do
	if echo "$partial" | grep -q "\"$sub\""; then
		survivor=$sub
		break
	fi
done
[ -n "$survivor" ] || {
	echo "shard_smoke: FAIL: partial union is empty with shard A alive" >&2
	exit 1
}
"$workdir/grbacctl" -server "$router" check \
	-subject "$survivor" -object tv -transaction use -env weekday-free-time \
	>/dev/null || {
	echo "shard_smoke: FAIL: decide for live-shard subject $survivor failed during degradation" >&2
	exit 1
}

# 5d: router health reports the degradation and grbacctl shards exits 1.
if "$workdir/grbacctl" -server "$router" shards >"$workdir/shards_down.log" 2>&1; then
	echo "shard_smoke: FAIL: grbacctl shards exited 0 with shard B dead" >&2
	cat "$workdir/shards_down.log" >&2
	exit 1
fi
grep -q UNREACHABLE "$workdir/shards_down.log" || {
	echo "shard_smoke: FAIL: grbacctl shards did not flag the dead shard" >&2
	cat "$workdir/shards_down.log" >&2
	exit 1
}
echo "shard_smoke: shard-down degradation OK (strict 502, partial union, live decides, degraded health)"
echo "shard_smoke: OK"
