#!/bin/sh
# Online-rebalance smoke for CI: boot two grbacd shards that follow the
# router's shard-map feed (-map-source) and a rebalance-capable routing
# tier (-route + -data-dir), put the cluster
# under continuous decide load and a session writer, then grow it to
# three shards with `grbacctl rebalance add` and assert the
# online-rebalance contracts end to end with the shipped binaries:
#   0. a rebalance onto a shard that is not up is refused at once, and
#      the router publishes no pending map for it;
#   1. the rebalance commits: status settles on "done", the router's
#      map version bumps, and the new shard joins the map;
#   2. zero failed decides and zero failed writes while subjects
#      migrated (one-step handoff: the old owner copies each subject
#      under its write gate, deletes its copy, and from then on forwards
#      the subject by the published maps), and every
#      session the writer got acked survives: addressed by its ID alone
#      it still takes a role activation and a check permits, and named
#      with its subject it still permits too;
#   3. the post-state is balanced: every shard (including the new one)
#      owns at least one subject, and the partitions sum exactly; and
#      shard A, asked directly, still permits every subject it handed
#      to shard C (it forwards them by the committed map);
#   4. a shard-aware SDK process (examples/shardwatch) lives through the
#      rebalance: bootstrapped before it, and following no shard map, it
#      still decides every subject once the router publishes v2 (a
#      subject its home replica lost goes to the router);
#   5. the router drains at once though every shard parks a map watch on
#      it: it exits 0 and logs "bye" within 3s of SIGTERM; and the
#      committed map is durable: the restarted router boots with the
#      rebalanced map, not the stale -route flag list;
#   6. removing a shard loses no session: `grbacctl rebalance remove`
#      drains shard A under the same load and writer, A's process is
#      stopped, and every session acked in either leg still takes an
#      activation and permits by its ID alone (a session routes to the
#      owner of the subject its ID names, under the current map).
set -eu

cd "$(dirname "$0")/.."

smoke=rebalance_smoke
smoke_pids="pid_a pid_b pid_c pid_r pid_load pid_write pid_watch"
wait_tries=150
. scripts/lib.sh

port_a=${SMOKE_REBAL_PORT_A:-18141}
port_b=${SMOKE_REBAL_PORT_B:-18142}
port_c=${SMOKE_REBAL_PORT_C:-18143}
port_r=${SMOKE_REBAL_PORT_R:-18144}
shard_a="http://127.0.0.1:$port_a"
shard_b="http://127.0.0.1:$port_b"
shard_c="http://127.0.0.1:$port_c"
router="http://127.0.0.1:$port_r"

go build -o "$workdir/grbacd" ./cmd/grbacd
go build -o "$workdir/grbacctl" ./cmd/grbacctl
go build -o "$workdir/shardwatch" ./examples/shardwatch

"$workdir/grbacd" -addr "127.0.0.1:$port_a" -admin -map-source "a=$router" >"$workdir/shard_a.log" 2>&1 &
pid_a=$!
"$workdir/grbacd" -addr "127.0.0.1:$port_b" -admin -map-source "b=$router" >"$workdir/shard_b.log" 2>&1 &
pid_b=$!
"$workdir/grbacd" -addr "127.0.0.1:$port_r" \
	-route "a=$shard_a,b=$shard_b" -shard-timeout 2s \
	-data-dir "$workdir/router-data" \
	>"$workdir/router.log" 2>&1 &
pid_r=$!

wait_until "shard A healthz" curl -sf "$shard_a/v1/healthz"
wait_until "shard B healthz" curl -sf "$shard_b/v1/healthz"
wait_until "router healthz" curl -sf "$router/v1/healthz"
# A following shard answers only for what it holds until its first map
# fetch; a listing at the committed version waits for that fetch.
wait_until "shard A follows the map" curl -sf "$shard_a/v1/migrate/subjects?pending=1"
wait_until "shard B follows the map" curl -sf "$shard_b/v1/migrate/subjects?pending=1"

# Register subjects through the router (stock policy ships role child).
subjects=""
for i in 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23; do
	sub="rebal-$i"
	subjects="$subjects $sub"
	curl -sf -X POST "$router/v1/admin/subjects" \
		-H 'Content-Type: application/json' \
		-d "{\"id\":\"$sub\",\"roles\":[\"child\"]}" >/dev/null
done
echo "rebalance_smoke: 24 subjects registered through the router"

# Shard A's residents before the move, read as count_on reads them
# below, so contract 3 can ask A directly about the ones that leave it.
held_by_a=$(curl -sf "$shard_a/v1/query/subjects-in-role?role=child")

# start_traffic puts the router under a continuous decide load and a
# session writer until stop_traffic. The load records every non-permit;
# the writer opens a session for each subject and activates child in it,
# recording every acked session as "subject session" and every failed
# write.
: >"$workdir/decide_failures"
: >"$workdir/write_failures"
: >"$workdir/acked_sessions"
start_traffic() {
	touch "$workdir/load_on"
	(
		rounds=0
		while [ -f "$workdir/load_on" ]; do
			for sub in $subjects; do
				body="{\"subject\":\"$sub\",\"object\":\"tv\",\"transaction\":\"use\",\"environment\":[\"weekday-free-time\"]}"
				out=$(curl -s -X POST "$router/v1/check" \
					-H 'Content-Type: application/json' -d "$body" || echo curl-error)
				case $out in
				*'"allowed":true'*) ;;
				*) echo "$sub: $out" >>"$workdir/decide_failures" ;;
				esac
			done
			rounds=$((rounds + 1))
			echo "$rounds" >"$workdir/load_rounds"
		done
	) &
	pid_load=$!
	(
		while [ -f "$workdir/load_on" ]; do
			for sub in $subjects; do
				out=$(curl -s -X POST "$router/v1/sessions" \
					-H 'Content-Type: application/json' -d "{\"subject\":\"$sub\"}" || echo curl-error)
				sid=$(echo "$out" | sed -n 's/.*"session":"\([^"]*\)".*/\1/p')
				if [ -z "$sid" ]; then
					echo "open $sub: $out" >>"$workdir/write_failures"
					continue
				fi
				out=$(curl -s -X POST "$router/v1/sessions/roles" \
					-H 'Content-Type: application/json' \
					-d "{\"session\":\"$sid\",\"role\":\"child\",\"active\":true}" || echo curl-error)
				case $out in
				*'"status":"ok"'*) echo "$sub $sid" >>"$workdir/acked_sessions" ;;
				*) echo "activate $sid: $out" >>"$workdir/write_failures" ;;
				esac
			done
		done
	) &
	pid_write=$!
}

stop_traffic() {
	rm -f "$workdir/load_on"
	wait "$pid_load" 2>/dev/null || true
	pid_load=
	wait "$pid_write" 2>/dev/null || true
	pid_write=
}

# check_traffic <leg>: zero failed decides and writes across the window,
# and every session acked so far survived: addressed by its ID alone it
# takes a role activation, and it permits alone and named with its
# subject.
check_traffic() {
	if [ -s "$workdir/decide_failures" ]; then
		echo "rebalance_smoke: FAIL: decides failed during rebalance $1:" >&2
		cat "$workdir/decide_failures" >&2
		exit 1
	fi
	echo "rebalance_smoke: zero failed decides across $(cat "$workdir/load_rounds" 2>/dev/null || echo '?') load rounds of $1"
	if [ -s "$workdir/write_failures" ]; then
		echo "rebalance_smoke: FAIL: writes failed during rebalance $1:" >&2
		cat "$workdir/write_failures" >&2
		exit 1
	fi
	acked=0
	while read -r sub sid; do
		out=$(curl -s -X POST "$router/v1/sessions/roles" \
			-H 'Content-Type: application/json' \
			-d "{\"session\":\"$sid\",\"role\":\"child\",\"active\":true}" || echo curl-error)
		case $out in
		*'"status":"ok"'*) ;;
		*)
			echo "rebalance_smoke: FAIL: acked session $sid is gone after $1: $out" >&2
			exit 1
			;;
		esac
		for named in "" "\"subject\":\"$sub\","; do
			body="{$named\"session\":\"$sid\",\"object\":\"tv\",\"transaction\":\"use\",\"environment\":[\"weekday-free-time\"]}"
			out=$(curl -s -X POST "$router/v1/check" -H 'Content-Type: application/json' -d "$body" || echo curl-error)
			case $out in
			*'"allowed":true'*) ;;
			*)
				echo "rebalance_smoke: FAIL: acked session $sid no longer permits $sub after $1: $body: $out" >&2
				exit 1
				;;
			esac
		done
		acked=$((acked + 1))
	done <"$workdir/acked_sessions"
	if [ "$acked" -eq 0 ]; then
		echo "rebalance_smoke: FAIL: the writer got no session acked" >&2
		exit 1
	fi
	echo "rebalance_smoke: zero failed writes; all $acked acked sessions survived $1"
}

start_traffic

# A shard-aware SDK bootstraps now and waits for the router to publish
# the committed v2 map: it must still decide every subject afterwards.
"$workdir/shardwatch" -router "$router" -want-version 2 -timeout 60s \
	-subjects "$(echo $subjects | tr ' ' ',')" >"$workdir/watch.log" 2>&1 &
pid_watch=$!

# Contract 0: before shard C is up, adding it is refused and nothing is
# published; the real add below then runs.
if "$workdir/grbacctl" -server "$router" rebalance add -id c -addr "$shard_c" >"$workdir/refused.log" 2>&1; then
	echo "rebalance_smoke: FAIL: rebalance add onto a shard that is down was accepted" >&2
	exit 1
fi
map=$(curl -sf "$router/v1/shard/map")
if echo "$map" | grep -q '"pending"' || ! echo "$map" | grep -q '"version":1,'; then
	echo "rebalance_smoke: FAIL: a refused add changed the published map: $map" >&2
	exit 1
fi
echo "rebalance_smoke: add onto a down shard refused, map v1 unchanged"

# Grow the cluster online: boot shard C, rebalance onto it, wait for
# the run to finish.
"$workdir/grbacd" -addr "127.0.0.1:$port_c" -admin -map-source "c=$router" >"$workdir/shard_c.log" 2>&1 &
pid_c=$!
wait_until "shard C healthz" curl -sf "$shard_c/v1/healthz"

"$workdir/grbacctl" -server "$router" rebalance add -id c -addr "$shard_c" -wait 60s \
	>"$workdir/rebalance.log" 2>&1 || {
	echo "rebalance_smoke: FAIL: rebalance add did not complete" >&2
	cat "$workdir/rebalance.log" >&2
	exit 1
}
grep -q '"phase": "done"' "$workdir/rebalance.log" || {
	echo "rebalance_smoke: FAIL: rebalance status never reached done" >&2
	cat "$workdir/rebalance.log" >&2
	exit 1
}
echo "rebalance_smoke: rebalance add committed"

# Contract 1: the router's map bumped to v2 and contains shard c.
map=$(curl -sf "$router/v1/shard/map")
echo "$map" | grep -q '"version":2' || {
	echo "rebalance_smoke: FAIL: router map did not reach v2: $map" >&2
	exit 1
}
echo "$map" | grep -q '"c"' || {
	echo "rebalance_smoke: FAIL: committed map lacks shard c: $map" >&2
	exit 1
}

# Let the load run a little against the committed map, then stop it.
sleep 1
stop_traffic

# Contract 2: zero failed decides and writes across the whole window,
# and every acked session survived the move.
check_traffic add

# Contract 3: balanced post-state — every shard owns at least one
# subject and the partitions sum exactly (residency, not hashing:
# moved subjects were deleted from their old owner).
count_on() {
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
on_c=$(count_on "$shard_c")
echo "rebalance_smoke: post-state: a=$on_a b=$on_b c=$on_c of 24"
if [ $((on_a + on_b + on_c)) -ne 24 ]; then
	echo "rebalance_smoke: FAIL: partitions hold $on_a+$on_b+$on_c subjects, want exactly 24" >&2
	exit 1
fi
if [ "$on_a" -eq 0 ] || [ "$on_b" -eq 0 ] || [ "$on_c" -eq 0 ]; then
	echo "rebalance_smoke: FAIL: a shard owns no subjects — rebalance did not spread" >&2
	exit 1
fi
held_by_c=$(curl -sf "$shard_c/v1/query/subjects-in-role?role=child")
proxied=0
for sub in $subjects; do
	echo "$held_by_a" | grep -q "\"$sub\"" || continue
	echo "$held_by_c" | grep -q "\"$sub\"" || continue
	body="{\"subject\":\"$sub\",\"object\":\"tv\",\"transaction\":\"use\",\"environment\":[\"weekday-free-time\"]}"
	out=$(curl -s -X POST "$shard_a/v1/check" -H 'Content-Type: application/json' -d "$body" || echo curl-error)
	case $out in
	*'"allowed":true'*) ;;
	*)
		echo "rebalance_smoke: FAIL: shard A, asked directly for $sub (moved to C): $out" >&2
		exit 1
		;;
	esac
	proxied=$((proxied + 1))
done
if [ "$proxied" -eq 0 ]; then
	echo "rebalance_smoke: FAIL: no subject moved from shard A to shard C" >&2
	exit 1
fi
echo "rebalance_smoke: shard A still permits all $proxied subjects it handed to C"

# Contract 4: the SDK lived through the rebalance and decided every
# subject.
wait "$pid_watch" || {
	echo "rebalance_smoke: FAIL: SDK shardwatch did not decide every subject:" >&2
	cat "$workdir/watch.log" >&2
	exit 1
}
pid_watch=
grep -q '24 subjects decidable through the SDK under map v2' "$workdir/watch.log" || {
	echo "rebalance_smoke: FAIL: SDK never reported deciding every subject under map v2" >&2
	cat "$workdir/watch.log" >&2
	exit 1
}
echo "rebalance_smoke: SDK lived through the rebalance: $(tail -n 1 "$workdir/watch.log")"

# Contract 5: the router drains at once, parked map watches and all, and
# the committed map survives its restart (the stale -route flag list
# must NOT win over the persisted v2 map).
kill "$pid_r"
tries=0
until grep -q 'bye' "$workdir/router.log"; do
	tries=$((tries + 1))
	if [ "$tries" -gt 30 ]; then
		echo "rebalance_smoke: FAIL: router logged no \"bye\" within 3s of SIGTERM" >&2
		cat "$workdir/router.log" >&2
		exit 1
	fi
	sleep 0.1
done
status=0
wait "$pid_r" || status=$?
if [ "$status" -ne 0 ]; then
	echo "rebalance_smoke: FAIL: router drain exited $status, want 0" >&2
	cat "$workdir/router.log" >&2
	exit 1
fi
echo "rebalance_smoke: router drained in under 3s and exited 0"
"$workdir/grbacd" -addr "127.0.0.1:$port_r" \
	-route "a=$shard_a,b=$shard_b" -shard-timeout 2s \
	-data-dir "$workdir/router-data" \
	>"$workdir/router2.log" 2>&1 &
pid_r=$!
wait_until "restarted router healthz" curl -sf "$router/v1/healthz"
map2=$(curl -sf "$router/v1/shard/map")
echo "$map2" | grep -q '"version":2' || {
	echo "rebalance_smoke: FAIL: restarted router lost the committed map: $map2" >&2
	cat "$workdir/router2.log" >&2
	exit 1
}
echo "rebalance_smoke: committed map survived router restart"

# Contract 6: drain shard A under the same load and writer, stop its
# process, and every acked session of both legs still answers.
start_traffic
"$workdir/grbacctl" -server "$router" rebalance remove -id a -wait 60s \
	>"$workdir/rebalance_remove.log" 2>&1 || {
	echo "rebalance_smoke: FAIL: rebalance remove did not complete" >&2
	cat "$workdir/rebalance_remove.log" >&2
	exit 1
}
grep -q '"phase": "done"' "$workdir/rebalance_remove.log" || {
	echo "rebalance_smoke: FAIL: rebalance remove never reached done" >&2
	cat "$workdir/rebalance_remove.log" >&2
	exit 1
}
map3=$(curl -sf "$router/v1/shard/map")
if ! echo "$map3" | grep -q '"version":3' || echo "$map3" | grep -q '"a"'; then
	echo "rebalance_smoke: FAIL: committed map is not v3 without shard a: $map3" >&2
	exit 1
fi
kill "$pid_a" 2>/dev/null
wait "$pid_a" 2>/dev/null || true
pid_a=
echo "rebalance_smoke: rebalance remove committed; shard A stopped"
sleep 1
stop_traffic
check_traffic remove
echo "rebalance_smoke: OK"
