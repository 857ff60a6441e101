#!/bin/sh
# Crash-recovery smoke for CI: boot grbacd with a durable data directory,
# flood it with admin mutations, kill -9 mid-flood, restart from the same
# directory, and assert the durability contract with only the shipped
# binaries:
#   - the replication epoch survives the crash;
#   - the policy generation never regresses;
#   - every mutation acked before the kill is present after recovery;
#   - /v1/statsz shows the WAL replay that rebuilt the state;
#   - the recovered policy still serves decisions.
set -eu

cd "$(dirname "$0")/.."

smoke=crash_smoke
smoke_pids="server_pid"
. scripts/lib.sh

port=${SMOKE_CRASH_PORT:-18137}
server="http://127.0.0.1:$port"
datadir="$workdir/data"

go build -o "$workdir/grbacd" ./cmd/grbacd
go build -o "$workdir/grbacctl" ./cmd/grbacctl

cat >"$workdir/policy.grbac" <<'EOF'
subject role family-member;
subject role child extends family-member;
object role entertainment-devices;
env role weekday-free-time;
subject alice is child;
object tv is entertainment-devices;
transaction use;
grant child use entertainment-devices when weekday-free-time;
EOF

# A huge checkpoint interval keeps every flooded mutation in the WAL, so
# the restart has to prove real replay rather than riding a checkpoint.
start_server() {
	"$workdir/grbacd" -addr "127.0.0.1:$port" -admin \
		-policy "$workdir/policy.grbac" \
		-data-dir "$datadir" -wal-checkpoint-every 100000 \
		>>"$workdir/server.log" 2>&1 &
	server_pid=$!
}

# store_field <name>: pull one numeric/string field out of the "store"
# section of /v1/statsz (the section starts after its key; the first
# matching field inside it is the store's).
store_field() {
	"$workdir/grbacctl" -server "$server" stats |
		awk -v key="\"$1\":" '/"store":/ { in_store = 1 } in_store && index($0, key) { print $2; exit }' |
		tr -d '", '
}

start_server
wait_until "first boot healthz" "$workdir/grbacctl" -server "$server" health

epoch_before=$(store_field epoch)
if [ -z "$epoch_before" ]; then
	echo "crash_smoke: FAIL: no store epoch in statsz (is -data-dir wired?)" >&2
	exit 1
fi

# Phase 1: 30 acked mutations. Each curl -sf succeeding means the server
# acked the write, so each of these subjects must survive the crash.
i=0
while [ "$i" -lt 30 ]; do
	curl -sf -X POST "$server/v1/admin/subjects" \
		-H 'Content-Type: application/json' \
		-d "{\"id\":\"crash-sub-$i\"}" >/dev/null
	i=$((i + 1))
done
gen_before=$(store_field generation)

# Phase 2: keep the flood running and yank the process mid-write. Acks
# from this phase are deliberately unobserved — the point is that the
# kill lands while mutations are in flight.
(
	j=30
	while [ "$j" -lt 1000 ]; do
		curl -sf -X POST "$server/v1/admin/subjects" \
			-H 'Content-Type: application/json' \
			-d "{\"id\":\"flood-sub-$j\"}" >/dev/null 2>&1 || exit 0
		j=$((j + 1))
	done
) &
flood_pid=$!
sleep 0.3
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
wait "$flood_pid" 2>/dev/null || true

# Restart from the wreckage.
start_server
wait_until "recovery healthz" "$workdir/grbacctl" -server "$server" health

epoch_after=$(store_field epoch)
gen_after=$(store_field generation)
replayed=$(store_field records)

if [ "$epoch_after" != "$epoch_before" ]; then
	echo "crash_smoke: FAIL: epoch changed across crash: $epoch_before -> $epoch_after" >&2
	exit 1
fi
if [ -z "$gen_after" ] || [ "$gen_after" -lt "$gen_before" ]; then
	echo "crash_smoke: FAIL: generation regressed: $gen_before -> $gen_after" >&2
	exit 1
fi
if [ -z "$replayed" ] || [ "$replayed" -lt 30 ]; then
	echo "crash_smoke: FAIL: statsz reports $replayed WAL records replayed, want >= 30" >&2
	exit 1
fi

state=$("$workdir/grbacctl" -server "$server" state)
i=0
while [ "$i" -lt 30 ]; do
	echo "$state" | grep -q "\"crash-sub-$i\"" || {
		echo "crash_smoke: FAIL: acked mutation crash-sub-$i lost in the crash" >&2
		exit 1
	}
	i=$((i + 1))
done

check=$(curl -sf -X POST "$server/v1/check" \
	-H 'Content-Type: application/json' \
	-d '{"subject":"alice","object":"tv","transaction":"use","environment":["weekday-free-time"]}')
echo "$check" | grep -q '"allowed": *true' || {
	echo "crash_smoke: FAIL: recovered policy no longer permits alice: $check" >&2
	exit 1
}

echo "crash_smoke: epoch $epoch_after preserved, generation $gen_before -> $gen_after, $replayed WAL records replayed"
echo "crash_smoke: OK"
