#!/bin/sh
# Benchmark-regression smoke for CI: run the mediation benches (E11, E16,
# E17) with -benchmem and fail if the decision cache or the lock-free
# mediation path has regressed.
#
# Guards (allocation counts are stable across CI hardware, unlike ns/op;
# the numbers are identifiers other documents cite, so 4, retired, leaves a
# gap):
#   1. the warm cached path must allocate strictly less than the uncached
#      path on the same workload;
#   2. the warm cached path must stay under an absolute allocation budget,
#      so a key- or clone-heavy change cannot hide behind guard 1;
#   3. a replicated follower must not allocate more than its primary;
#   5. warm CheckAccess must allocate nothing;
#   6. warm mediation must show no sync.Mutex or sync.RWMutex contention
#      under the mutex profiler, at 2 and at 8 goroutines, anywhere below
#      System.Decide, System.CheckAccess or Puller.Stale;
#   7. a disabled fault-injection hook (faults.Inject with no active plan)
#      must allocate nothing and cost at most BENCHGUARD_MAX_FAULT_NS
#      (default 100ns) — the hooks are compiled into the hot paths that
#      guards 1-6 measure, so they must stay free when idle;
#   8. the disabled observability hooks (nil obs.Counter/Histogram/Tracer)
#      must allocate nothing and cost at most BENCHGUARD_MAX_OBS_NS
#      (default 100ns) combined, the same idle-freedom discipline for the
#      metrics layer;
#   9. the warm Decide path behind the durable store (WAL journal attached)
#      must allocate exactly as much as the plain in-memory system and stay
#      within BENCHGUARD_WAL_RATIO x (default 3) of its latency — the
#      journal engages on mutation only, never on reads.
#  10. the embedded SDK's warm CheckAccess must allocate nothing — it is
#      the server's own zero-alloc cache hit running in the caller's
#      address space — and beat the HTTP round trip to the primary by
#      BENCHGUARD_SDK_SPEEDUP x (default 10);
#  11. sharded scaling (E22): aggregate decide throughput at 4 shards must
#      be at least BENCHGUARD_SHARD_SPEEDUP x the 1-shard baseline
#      (default 3). The scaling is algorithmic — partitioning shrinks the
#      per-shard snapshot recompile that session churn forces — so the
#      guard holds on single-core CI runners too.
#  12. the disabled hedging hook on the router's scatter fan-out path
#      (hedgedFetch with no hedger configured) must allocate nothing and
#      cost at most BENCHGUARD_MAX_HEDGE_NS (default 100ns) — routers
#      that never opt into hedging must not pay for it per shard call.
#  13. the disabled decision-log hook (a nil *declog.Exporter's Offer,
#      threaded into the audit hot path) must allocate nothing and cost
#      at most BENCHGUARD_MAX_DECLOG_NS (default 100ns) — PDPs that never
#      turn on export must not pay for the pipeline per decision.
set -eu

cd "$(dirname "$0")/.."

budget=${BENCHGUARD_MAX_WARM_ALLOCS:-64}
out=$(go test -run '^$' \
	-bench 'E1RBACMediation|E3EntertainmentPolicy|E11CachedMediation' \
	-benchtime 100x -benchmem .)
echo "$out"

allocs_of() {
	echo "$out" | awk -v pat="$1" '$1 ~ pat { print $(NF-1); exit }'
}

warm=$(allocs_of 'E11CachedMediation/warm')
uncached=$(allocs_of 'E11CachedMediation/uncached')
if [ -z "$warm" ] || [ -z "$uncached" ]; then
	echo "benchguard: missing E11CachedMediation results" >&2
	exit 1
fi

echo "benchguard: warm=$warm allocs/op, uncached=$uncached allocs/op, budget=$budget"
if [ "$warm" -ge "$uncached" ]; then
	echo "benchguard: FAIL: warm cached path allocates as much as uncached ($warm >= $uncached)" >&2
	exit 1
fi
if [ "$warm" -gt "$budget" ]; then
	echo "benchguard: FAIL: warm cached path exceeds allocation budget ($warm > $budget)" >&2
	exit 1
fi

# Guard 3: a follower PDP's warm Decide path must not allocate more than
# the primary's on the same request — replication must hand back a System
# structurally identical to the original (E16).
rout=$(go test -run '^$' -bench 'E16ReplicatedMediation' \
	-benchtime 100x -benchmem ./internal/replica)
echo "$rout"

ralloc_of() {
	echo "$rout" | awk -v pat="$1" '$1 ~ pat { print $(NF-1); exit }'
}

primary=$(ralloc_of 'E16ReplicatedMediation/primary')
follower=$(ralloc_of 'E16ReplicatedMediation/follower')
if [ -z "$primary" ] || [ -z "$follower" ]; then
	echo "benchguard: missing E16ReplicatedMediation results" >&2
	exit 1
fi

echo "benchguard: primary=$primary allocs/op, follower=$follower allocs/op"
if [ "$follower" -gt "$primary" ]; then
	echo "benchguard: FAIL: replicated follower allocates more than its primary ($follower > $primary)" >&2
	exit 1
fi

# Guard 5: the warm CheckAccess fast path answers from the cache without
# cloning the decision — zero allocations, exactly.
pout=$(go test -run '^$' -bench 'E17CheckAccessWarm' -benchtime 50000x -benchmem .)
echo "$pout"
warm_check=$(echo "$pout" | awk '$1 ~ /E17CheckAccessWarm/ { print $7; exit }')
if [ -z "$warm_check" ]; then
	echo "benchguard: missing E17CheckAccessWarm result" >&2
	exit 1
fi
echo "benchguard: warm CheckAccess=$warm_check allocs/op"
if [ "$warm_check" -ne 0 ]; then
	echo "benchguard: FAIL: warm CheckAccess allocates ($warm_check allocs/op, want 0)" >&2
	exit 1
fi

# Guard 6: warm mediation takes no lock. Run the lock-free Decide bench
# and the embedded SDK's parallel CheckAccess under the mutex profiler, at
# 2 and at 8 goroutines, and fail on any sync.(*Mutex) or sync.(*RWMutex)
# contention sample whose stack passes through System.CheckAccess,
# System.Decide or Puller.Stale.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
hot='core\.\(\*System\)\.(CheckAccess|Decide)$|replica\.\(\*Puller\)\.Stale$'
mutex_guard() { # package, bench pattern
	go test -run '^$' -bench "$2" -benchtime 50000x -cpu 2,8 \
		-mutexprofile "$tmpdir/mutex.out" -o "$tmpdir/bench.bin" "$1" >/dev/null
	mtop=$(go tool pprof -top -focus "$hot" "$tmpdir/bench.bin" "$tmpdir/mutex.out" 2>&1)
	if echo "$mtop" | grep -E 'sync\.\(\*(RW)?Mutex\)'; then
		echo "benchguard: FAIL: $2 contended a lock on the warm mediation path (see pprof -top above)" >&2
		exit 1
	fi
}
mutex_guard . 'E17ParallelDecide/lockfree'
mutex_guard ./sdk 'E21EmbeddedMediation/parallel'
echo "benchguard: mutex profile clean (no Mutex or RWMutex contention below Decide, CheckAccess or Stale)"

# Guard 7: the disabled fault-injection hook. Every guard above already
# runs with the hooks compiled in (Decide's handlers, the event bus, the
# replication transport all call faults.Inject), so a regression there
# would trip guards 1-6 too; this measures the hook itself so a slow
# Inject cannot hide inside benchmark noise.
fault_ns_budget=${BENCHGUARD_MAX_FAULT_NS:-100}
fout=$(go test -run '^$' -bench 'DisabledInject' -benchtime 1000000x -benchmem \
	./internal/faults)
echo "$fout"

ffield_of() {
	echo "$fout" | awk -v pat="$1" -v f="$2" '$1 ~ pat { print $f; exit }'
}

# GOMAXPROCS >1 suffixes the name with "-N"; a 1-core runner does not.
fault_ns=$(ffield_of '^BenchmarkDisabledInject(-[0-9]+)?$' 3)
fault_allocs=$(ffield_of '^BenchmarkDisabledInject(-[0-9]+)?$' 7)
if [ -z "$fault_ns" ] || [ -z "$fault_allocs" ]; then
	echo "benchguard: missing DisabledInject results" >&2
	exit 1
fi

echo "benchguard: disabled fault hook=${fault_ns}ns/op, $fault_allocs allocs/op, budget=${fault_ns_budget}ns"
if [ "$fault_allocs" -ne 0 ]; then
	echo "benchguard: FAIL: disabled fault hook allocates ($fault_allocs allocs/op, want 0)" >&2
	exit 1
fi
if ! awk -v ns="$fault_ns" -v max="$fault_ns_budget" 'BEGIN { exit !(ns <= max) }'; then
	echo "benchguard: FAIL: disabled fault hook costs ${fault_ns}ns/op (budget ${fault_ns_budget}ns)" >&2
	exit 1
fi

# Guard 8: the disabled observability hooks. One op is a nil-counter Inc,
# a nil-histogram ObserveSince, and a nil-tracer Record back to back — the
# three hooks an instrumented-but-disabled hot path pays per decision.
obs_ns_budget=${BENCHGUARD_MAX_OBS_NS:-100}
oout=$(go test -run '^$' -bench 'DisabledObsHook' -benchtime 1000000x -benchmem \
	./internal/obs)
echo "$oout"

ofield_of() {
	echo "$oout" | awk -v pat="$1" -v f="$2" '$1 ~ pat { print $f; exit }'
}

obs_ns=$(ofield_of '^BenchmarkDisabledObsHook(-[0-9]+)?$' 3)
obs_allocs=$(ofield_of '^BenchmarkDisabledObsHook(-[0-9]+)?$' 7)
if [ -z "$obs_ns" ] || [ -z "$obs_allocs" ]; then
	echo "benchguard: missing DisabledObsHook results" >&2
	exit 1
fi

echo "benchguard: disabled obs hooks=${obs_ns}ns/op, $obs_allocs allocs/op, budget=${obs_ns_budget}ns"
if [ "$obs_allocs" -ne 0 ]; then
	echo "benchguard: FAIL: disabled obs hooks allocate ($obs_allocs allocs/op, want 0)" >&2
	exit 1
fi
if ! awk -v ns="$obs_ns" -v max="$obs_ns_budget" 'BEGIN { exit !(ns <= max) }'; then
	echo "benchguard: FAIL: disabled obs hooks cost ${obs_ns}ns/op (budget ${obs_ns_budget}ns)" >&2
	exit 1
fi

# Guard 9: the durable store must be free on the read path. The WAL
# journal hooks into mutations; a decision on a recovered system is the
# same cached lookup as on a plain in-memory one. Allocations must match
# exactly; latency gets a generous ratio because both numbers sit in the
# low hundreds of ns where scheduler noise is proportionally large.
wal_ratio=${BENCHGUARD_WAL_RATIO:-3}
sout=$(go test -run '^$' -bench 'WarmDecide' -benchtime 20000x -benchmem \
	./internal/store)
echo "$sout"

sfield_of() {
	echo "$sout" | awk -v pat="$1" -v f="$2" '$1 ~ pat { print $f; exit }'
}

mem_ns=$(sfield_of 'WarmDecide/memory' 3)
mem_allocs=$(sfield_of 'WarmDecide/memory' 7)
dur_ns=$(sfield_of 'WarmDecide/durable' 3)
dur_allocs=$(sfield_of 'WarmDecide/durable' 7)
if [ -z "$mem_ns" ] || [ -z "$mem_allocs" ] || [ -z "$dur_ns" ] || [ -z "$dur_allocs" ]; then
	echo "benchguard: missing WarmDecide results" >&2
	exit 1
fi

echo "benchguard: warm Decide memory=${mem_ns}ns/op ($mem_allocs allocs/op), durable=${dur_ns}ns/op ($dur_allocs allocs/op), ratio budget=x$wal_ratio"
if [ "$dur_allocs" -ne "$mem_allocs" ]; then
	echo "benchguard: FAIL: durable warm Decide allocates differently ($dur_allocs vs $mem_allocs allocs/op)" >&2
	exit 1
fi
if ! awk -v d="$dur_ns" -v m="$mem_ns" -v need="$wal_ratio" \
	'BEGIN { exit !(d <= m * need) }'; then
	echo "benchguard: FAIL: durable warm Decide ${dur_ns}ns/op exceeds x$wal_ratio of in-memory ${mem_ns}ns/op" >&2
	exit 1
fi

# Guard 10: the embedded SDK (E21). Warm CheckAccess through the SDK is
# the same zero-alloc cache hit guard 5 pins, just replicated into the
# caller's process — so it must stay at exactly 0 allocs/op, and the
# whole point of embedding is dodging the HTTP round trip, so it must
# beat the remote path by BENCHGUARD_SDK_SPEEDUP x (default 10; the
# measured gap on loopback is >100x, so 10 leaves CI headroom).
sdk_speedup=${BENCHGUARD_SDK_SPEEDUP:-10}
kout=$(go test -run '^$' -bench 'E21EmbeddedMediation' -benchtime 5000x \
	-benchmem ./sdk)
echo "$kout"

kfield_of() {
	echo "$kout" | awk -v pat="$1" -v f="$2" '$1 ~ pat { print $f; exit }'
}

emb_ns=$(kfield_of 'E21EmbeddedMediation/embedded' 3)
emb_allocs=$(kfield_of 'E21EmbeddedMediation/embedded' 7)
rem_ns=$(kfield_of 'E21EmbeddedMediation/remote' 3)
if [ -z "$emb_ns" ] || [ -z "$emb_allocs" ] || [ -z "$rem_ns" ]; then
	echo "benchguard: missing E21EmbeddedMediation results" >&2
	exit 1
fi

echo "benchguard: embedded=${emb_ns}ns/op ($emb_allocs allocs/op), remote=${rem_ns}ns/op, required=x$sdk_speedup"
if [ "$emb_allocs" -ne 0 ]; then
	echo "benchguard: FAIL: embedded warm CheckAccess allocates ($emb_allocs allocs/op, want 0)" >&2
	exit 1
fi
if ! awk -v e="$emb_ns" -v r="$rem_ns" -v need="$sdk_speedup" \
	'BEGIN { exit !(r / e >= need) }'; then
	echo "benchguard: FAIL: embedded mediation only x$(awk -v e="$emb_ns" -v r="$rem_ns" 'BEGIN { printf "%.2f", r / e }') of remote (need x$sdk_speedup)" >&2
	exit 1
fi

# Guard 11: sharded scaling (E22). Run the shard sweep and hold the
# 4-shard aggregate decide throughput to BENCHGUARD_SHARD_SPEEDUP x the
# 1-shard baseline. E22 writes BENCH_SHARD.json into the working
# directory; run it from a temp dir so the guard never dirties the
# committed proof, then read the speedup back out of the JSON.
shard_speedup=${BENCHGUARD_SHARD_SPEEDUP:-3}
e22dir=$(mktemp -d)
go build -o "$e22dir/grbac-bench" ./cmd/grbac-bench
e22out=$(cd "$e22dir" && ./grbac-bench -run E22) || {
	rm -rf "$e22dir"
	echo "benchguard: FAIL: grbac-bench -run E22 errored" >&2
	exit 1
}
echo "$e22out"
at4=$(awk -F'[:,]' '/"speedup_at_4_shards"/ { gsub(/[ \t]/, "", $2); print $2 }' \
	"$e22dir/BENCH_SHARD.json")
rm -rf "$e22dir"
if [ -z "$at4" ]; then
	echo "benchguard: missing speedup_at_4_shards in BENCH_SHARD.json" >&2
	exit 1
fi

echo "benchguard: 4-shard aggregate decide speedup=x$at4, required=x$shard_speedup"
if ! awk -v got="$at4" -v need="$shard_speedup" 'BEGIN { exit !(got >= need) }'; then
	echo "benchguard: FAIL: 4-shard speedup only x$at4 (need x$shard_speedup)" >&2
	exit 1
fi

# Guard 12: the disabled hedging hook. Every scatter call on the router
# runs through hedgedFetch; with hedging off (the default) that wrapper
# must collapse to a nil check — zero allocations, single-digit ns — so
# the resilience knobs stay free for routers that never turn them on.
hedge_ns_budget=${BENCHGUARD_MAX_HEDGE_NS:-100}
hout=$(go test -run '^$' -bench 'DisabledHedgeHook' -benchtime 1000000x -benchmem \
	./internal/pdp)
echo "$hout"

hfield_of() {
	echo "$hout" | awk -v pat="$1" -v f="$2" '$1 ~ pat { print $f; exit }'
}

hedge_ns=$(hfield_of '^BenchmarkDisabledHedgeHook(-[0-9]+)?$' 3)
hedge_allocs=$(hfield_of '^BenchmarkDisabledHedgeHook(-[0-9]+)?$' 7)
if [ -z "$hedge_ns" ] || [ -z "$hedge_allocs" ]; then
	echo "benchguard: missing DisabledHedgeHook results" >&2
	exit 1
fi

echo "benchguard: disabled hedge hook=${hedge_ns}ns/op, $hedge_allocs allocs/op, budget=${hedge_ns_budget}ns"
if [ "$hedge_allocs" -ne 0 ]; then
	echo "benchguard: FAIL: disabled hedge hook allocates ($hedge_allocs allocs/op, want 0)" >&2
	exit 1
fi
if ! awk -v ns="$hedge_ns" -v max="$hedge_ns_budget" 'BEGIN { exit !(ns <= max) }'; then
	echo "benchguard: FAIL: disabled hedge hook costs ${hedge_ns}ns/op (budget ${hedge_ns_budget}ns)" >&2
	exit 1
fi

# Guard 13: the disabled decision-log hook. Every audit append calls the
# export hook; with no -declog sink that hook is a nil Exporter whose
# Offer must collapse to a single pointer check — zero allocations,
# single-digit ns — so instrumenting the audit path costs nothing for
# PDPs that never export.
declog_ns_budget=${BENCHGUARD_MAX_DECLOG_NS:-100}
dout=$(go test -run '^$' -bench 'DisabledDeclogHook' -benchtime 1000000x -benchmem \
	./internal/declog)
echo "$dout"

dfield_of() {
	echo "$dout" | awk -v pat="$1" -v f="$2" '$1 ~ pat { print $f; exit }'
}

declog_ns=$(dfield_of '^BenchmarkDisabledDeclogHook(-[0-9]+)?$' 3)
declog_allocs=$(dfield_of '^BenchmarkDisabledDeclogHook(-[0-9]+)?$' 7)
if [ -z "$declog_ns" ] || [ -z "$declog_allocs" ]; then
	echo "benchguard: missing DisabledDeclogHook results" >&2
	exit 1
fi

echo "benchguard: disabled declog hook=${declog_ns}ns/op, $declog_allocs allocs/op, budget=${declog_ns_budget}ns"
if [ "$declog_allocs" -ne 0 ]; then
	echo "benchguard: FAIL: disabled declog hook allocates ($declog_allocs allocs/op, want 0)" >&2
	exit 1
fi
if ! awk -v ns="$declog_ns" -v max="$declog_ns_budget" 'BEGIN { exit !(ns <= max) }'; then
	echo "benchguard: FAIL: disabled declog hook costs ${declog_ns}ns/op (budget ${declog_ns_budget}ns)" >&2
	exit 1
fi
echo "benchguard: OK"
