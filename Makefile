# Standard developer entry points; everything is plain `go` underneath.

.PHONY: all build vet test race bench bench-test bench-e2e guards replication-smoke chaos-smoke crash-smoke sdk-smoke shard-smoke rebalance-smoke declog-smoke fuzz cover fmt

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

bench:
	go test -bench=. -benchmem ./...

# The repository's benchmark (bench/, contract in BENCHMARK.json) is a
# module of its own, so `go test ./...` above does not reach it:
# bench-test runs its generator, oracle, rot-guard and compare tests,
# bench-e2e the benchmark itself, every workload measured and traced four
# times over; compare two such documents with
# `go run -C bench . -compare a.json b.json`.
bench-test:
	cd bench && go test ./...

bench-e2e:
	go run -C bench . -repeat 4 > bench-out.json

# The TestGuard… family: allocation, zero-cost-hook and lock-contention
# guards that sit beside the code they pin. They skip under -race, so this
# is their one run.
guards:
	go test -count=1 -run '^TestGuard' ./...

# End-to-end replication drill: boots a primary/follower grbacd pair on
# loopback and asserts convergence with the shipped binaries.
replication-smoke:
	./scripts/replication_smoke.sh

# End-to-end chaos drill: boots grbacd with fault injection + admission
# control armed, floods it, and asserts the overload-protection contract
# (429 + Retry-After, recovered panics, follower convergence).
chaos-smoke:
	./scripts/chaos_smoke.sh

# End-to-end durability drill: boots grbacd with a data directory, kills
# it -9 mid-mutation-flood, restarts it, and asserts the epoch survived,
# no acked mutation was lost, and the recovered policy still decides.
crash-smoke:
	./scripts/crash_recovery_smoke.sh

# End-to-end embedded-SDK drill: boots a primary grbacd and drives the
# examples/embedded program through local mediation, remote fallback,
# and watch-driven invalidation after an admin mutation.
sdk-smoke:
	./scripts/sdk_smoke.sh

# End-to-end sharding drill: boots two shards + a routing tier + a
# follower and asserts partitioning, routed decides, scatter unions,
# replication behind the router, and shard-down degradation.
shard-smoke:
	./scripts/shard_smoke.sh

# End-to-end online-rebalance drill: grows a two-shard cluster to three
# under continuous decide load and asserts zero failed decides, balanced
# residency, SDK map-watch convergence, and map durability on restart.
rebalance-smoke:
	./scripts/rebalance_smoke.sh

# End-to-end decision-log + bundle drill: floods decides through an
# export sink that stalls mid-run and asserts loss is counted (never
# silent, never blocking Decide), uploads resume, chunks decode, audit
# eviction is counted, and only signed fresh bundles activate.
declog-smoke:
	./scripts/declog_smoke.sh

# Run every native fuzz target for a short budget each. FuzzOpenLog checks
# the shared line log under the WAL and the rebalance journal. The two pdp
# targets are differential: whatever the decide wire codec accepts must
# decode exactly as encoding/json decodes it. FuzzSnapshotCodec holds the
# replica's snapshot decoder to the same contract; its seeds include a
# 40 KB policy snapshot, whose default minimisation (up to a minute per
# new input) would spend the whole budget, so it minimises for 100 runs.
fuzz:
	go test -run '^$$' -fuzz FuzzDecide -fuzztime 10s ./internal/core
	go test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/temporal
	go test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/policy
	go test -run '^$$' -fuzz FuzzWALReplay -fuzztime 10s ./internal/store
	go test -run '^$$' -fuzz FuzzOpenLog -fuzztime 10s ./internal/disk
	go test -run '^$$' -fuzz FuzzDecideRequestCodec -fuzztime 10s ./internal/pdp
	go test -run '^$$' -fuzz FuzzDecideResponseCodec -fuzztime 10s ./internal/pdp
	go test -run '^$$' -fuzz FuzzSnapshotCodec -fuzztime 10s -fuzzminimizetime 100x ./internal/replica

cover:
	go test -cover ./...

fmt:
	gofmt -w .
