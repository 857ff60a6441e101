#!/bin/sh
# Decision-log + signed-bundle smoke for CI: boot grbacd with the export
# pipeline aimed at a file sink whose uploads stall mid-run (fault
# injection), flood decides through it, and assert the shipped binaries
# honor the pipeline's contracts end to end:
#   1. a stalled sink never blocks Decide — the flood keeps answering
#      within its deadline while the uploader is wedged;
#   2. loss under backpressure is counted, never silent —
#      grbac_declog_dropped_total moves while the sink is stalled;
#   3. uploads resume once the stall clears: chunk files appear,
#      gunzip + parse as JSONL decision records;
#   4. the bounded audit ring evicts with a counter
#      (grbac_audit_evicted_total) instead of growing without bound;
#   5. only signed, fresh bundles activate: grbacctl bundle
#      keygen/build/push flips a decision, a tampered bundle is refused
#      with 403 and changes nothing.
set -eu

cd "$(dirname "$0")/.."

smoke=declog_smoke
smoke_pids="flood_pids server_pid"
wait_tries=150
. scripts/lib.sh

port=${SMOKE_DECLOG_PORT:-18129}
server="http://127.0.0.1:$port"
chunks="$workdir/chunks"

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

# The bundle later adds bob to the household, so his permit proves the
# push actually activated.
sed 's/subject alice is child;/subject alice is child;\nsubject bob is child;/' \
	"$workdir/policy.grbac" >"$workdir/policy2.grbac"

"$workdir/grbacctl" bundle keygen -key "$workdir/bundle.key" -pub "$workdir/bundle.pub"

# A 50ms flush interval seals a chunk per tick under load; the fault plan
# fails the first upload attempt (exercising retry/backoff) and stalls the
# second for 5s, so the bounded chunk queue overflows and sheds while the
# uploader is wedged, then delivery resumes on its own.
"$workdir/grbacd" -addr "127.0.0.1:$port" \
	-policy "$workdir/policy.grbac" \
	-audit-capacity 256 \
	-declog "$chunks" -declog-buffer 512 -declog-flush 50ms \
	-bundle-pub "$workdir/bundle.pub" \
	-faults 'declog.upload:error=stalled-collector,limit=1;declog.upload:delay=5s,after=1,limit=1' \
	>"$workdir/server.log" 2>&1 &
server_pid=$!

wait_until "server healthz" curl -sf "$server/v1/healthz"

# metric_above <name> <floor>: scrape /metrics and require name > floor.
metric_above() {
	curl -s "$server/metrics" |
		awk -v name="$1" -v floor="$2" \
			'$1 == name && $2 + 0 > floor + 0 { found = 1 } END { exit !found }'
}

body='{"subject":"alice","object":"tv","transaction":"use","environment":["weekday-free-time"]}'

# Flood decides from four background loops for the whole stall window.
flood_pids=""
for _ in 1 2 3 4; do
	(
		while :; do
			curl -s -o /dev/null -X POST "$server/v1/decide" \
				-H 'Content-Type: application/json' -d "$body"
		done
	) &
	flood_pids="$flood_pids $!"
done

# Contract 2: while the uploader is wedged the bounded pipeline sheds and
# counts what it sheds.
wait_until "upload stall observed (grbac_declog_upload_failures_total > 0)" \
	metric_above grbac_declog_upload_failures_total 0
wait_until "loss counted under stall (grbac_declog_dropped_total > 0)" \
	metric_above grbac_declog_dropped_total 0
echo "declog_smoke: stalled sink sheds with a counter OK"

# Contract 1: with the uploader still wedged, a decide must answer well
# inside its deadline — export pressure never reaches the hot path.
curl -sf -m 2 -X POST "$server/v1/decide" \
	-H 'Content-Type: application/json' -d "$body" |
	grep -q '"allowed": *true' || {
	echo "declog_smoke: FAIL: decide blocked or denied during the sink stall" >&2
	cat "$workdir/server.log" >&2
	exit 1
}
echo "declog_smoke: Decide unaffected by the stalled sink OK"

# Contract 3: the stall clears on its own (fault limits exhausted) and
# delivery resumes — chunk files land and parse as JSONL records.
wait_until "uploads resumed (grbac_declog_uploaded_chunks_total > 0)" \
	metric_above grbac_declog_uploaded_chunks_total 0
wait_until "chunk files on disk" ls "$chunks"/chunk-*.jsonl.gz

for pid in $flood_pids; do kill "$pid" 2>/dev/null || true; done
flood_pids=""

first_chunk=$(ls "$chunks"/chunk-*.jsonl.gz | head -1)
gunzip -c "$first_chunk" | head -1 | grep -q '"subject":"alice"' || {
	echo "declog_smoke: FAIL: $first_chunk does not decode to decision JSONL" >&2
	gunzip -c "$first_chunk" | head -3 >&2 || true
	exit 1
}
echo "declog_smoke: uploads resumed, chunks decode OK"

# Contract 4: the flood pushed far more than 256 records through a
# 256-slot audit ring — eviction must be counted, not silent.
metric_above grbac_audit_evicted_total 0 || {
	echo "declog_smoke: FAIL: audit ring overflowed without counting evictions" >&2
	curl -s "$server/metrics" | grep grbac_audit >&2 || true
	exit 1
}
echo "declog_smoke: audit eviction counted OK"

# Contract 5: signed bundles. Build + sign revision 1 from the policy
# that adds bob; before activation bob is denied.
"$workdir/grbacctl" bundle build -policy "$workdir/policy2.grbac" \
	-revision 1 -key "$workdir/bundle.key" -out "$workdir/policy.bundle"
"$workdir/grbacctl" bundle verify -in "$workdir/policy.bundle" -pub "$workdir/bundle.pub"

if "$workdir/grbacctl" -server "$server" check -subject bob -object tv \
	-transaction use -env weekday-free-time >/dev/null 2>&1; then
	echo "declog_smoke: FAIL: bob permitted before the bundle activated" >&2
	exit 1
fi

# A tampered bundle must be refused (403) and change nothing.
sed 's/"bob"/"eve"/g' "$workdir/policy.bundle" >"$workdir/tampered.bundle"
if "$workdir/grbacctl" -server "$server" bundle push -in "$workdir/tampered.bundle" \
	>"$workdir/tampered.log" 2>&1; then
	echo "declog_smoke: FAIL: tampered bundle accepted" >&2
	cat "$workdir/tampered.log" >&2
	exit 1
fi
grep -q '403' "$workdir/tampered.log" || {
	echo "declog_smoke: FAIL: tampered bundle not refused with 403" >&2
	cat "$workdir/tampered.log" >&2
	exit 1
}
if "$workdir/grbacctl" -server "$server" check -subject bob -object tv \
	-transaction use -env weekday-free-time >/dev/null 2>&1; then
	echo "declog_smoke: FAIL: tampered bundle changed policy" >&2
	exit 1
fi

# The genuine bundle activates and flips the decision.
"$workdir/grbacctl" -server "$server" bundle push -in "$workdir/policy.bundle" >/dev/null
"$workdir/grbacctl" -server "$server" bundle status |
	grep -q '"revision": *1' || {
	echo "declog_smoke: FAIL: bundle status did not advance to revision 1" >&2
	"$workdir/grbacctl" -server "$server" bundle status >&2 || true
	exit 1
}
"$workdir/grbacctl" -server "$server" check -subject bob -object tv \
	-transaction use -env weekday-free-time >/dev/null || {
	echo "declog_smoke: FAIL: signed bundle did not activate" >&2
	exit 1
}
echo "declog_smoke: signed bundle activates, tampered bundle refused OK"
echo "declog_smoke: OK"
