package main

import (
	"runtime"
	"time"

	"github.com/aware-home/grbac/internal/baseline/rbac"
	"github.com/aware-home/grbac/internal/core"
)

// untracedShare is the part of a traced run spent with the tracer switched
// off, on the same booted topology and the same single goroutine; the gap
// between its median decision latency and the traced one is the tracing
// overhead.
const untracedShare = 4 // one quarter

// runTraced is the run that yields the per-layer metrics: one operation in
// flight, spans at every boundary the public API lets the benchmark wrap,
// and shadow probes for the layers it cannot see into.
func runTraced(wl workload, cfg config) (outcome, error) {
	// The writer's schedule covers the traced part only; the untraced part
	// before it is decisions alone.
	off := cfg.seconds / untracedShare
	on := cfg.seconds - off
	in, err := drawInputs(wl, cfg, on)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{opStream: in.stream.hash(in.schedule)}
	tr := newTracer(cfg.traceOut != "")
	sh, err := newShadow(wl, in.w)
	if err != nil {
		return out, err
	}
	b, _, err := setUp(wl, in, cfg, tr, sh)
	if err != nil {
		return out, err
	}
	torn := false
	defer func() {
		if !torn {
			_, _, _ = b.tearDown(nil)
		}
	}()
	l := b.loaders[0]

	l.lat = newLatencies(1 << 16)
	l.run(time.Now(), off, 1)
	offP50 := median(toFloats(l.lat.ns)) / float64(wl.block)

	before, err := b.topo.counters()
	if err != nil {
		return out, err
	}
	usage := readProcUsage()
	opsBefore := b.tally().attempted
	l.lat = newLatencies(1 << 16)
	l.inline = in.schedule
	tr.on.Store(true)
	l.run(time.Now(), on, 1)
	b.writes.runProbe(in.probe)
	tr.on.Store(false)
	spent := readProcUsage()
	ops := float64(b.tally().attempted - opsBefore)
	after, err := b.topo.counters()
	if err != nil {
		return out, err
	}
	onP50 := median(toFloats(l.lat.ns)) / float64(wl.block)

	out.tally = b.tally()
	torn = true
	recoverMs, lost, err := b.tearDown(in.w)
	if err != nil {
		return out, err
	}
	out.attempted += int64(len(b.writes.acked))
	out.failed += int64(lost)
	if cfg.traceOut != "" {
		if err := tr.writeSpans(cfg.traceOut); err != nil {
			return out, err
		}
	}

	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	ns := func(d time.Duration) float64 { return float64(d) }
	perDecision := func(d time.Duration) time.Duration {
		if sh.decisions == 0 {
			return 0
		}
		return d / time.Duration(sh.decisions)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ws := b.writes
	m := make(map[string]metric)
	set := func(name string, v float64, unit string, n int) { m[name] = metric{Value: v, Unit: unit, N: n} }
	med := func(name string, v []float64, scale float64, unit string) {
		set(name, median(v)/scale, unit, len(v))
	}

	// core: probes on the shadow, counts from the real system.
	hits := float64(after.core.DecisionHits - before.core.DecisionHits)
	misses := float64(after.core.DecisionMisses - before.core.DecisionMisses)
	compiles := float64(after.core.SnapshotCompiles - before.core.SnapshotCompiles)
	med("core.hit_ns", sh.hitNs, 1, "ns")
	med("core.walk_ns", sh.walkNs, 1, "ns")
	med("core.compile_us", sh.compileNs, 1e3, "us")
	med("core.session_us", sh.sessionNs, 1e3, "us")
	med("core.mutate_us", sh.mutateNs, 1e3, "us")
	set("core.hit_ratio", ratio(hits, hits+misses), "ratio", int(hits+misses))
	set("core.compiles_per_kdecide", ratio(compiles*1000, float64(sh.decisions)), "count", sh.decisions)
	set("core.invalidations", float64(after.core.Invalidations-before.core.Invalidations), "count", 1)
	set("core.allocs_per_decide", allocsPerDecide(sh, in.stream.table), "count", allocRuns)

	// sdk
	med("sdk.local_ns", sh.sdkLocalNs, 1, "ns")
	local := float64(after.sdk.LocalDecisions - before.sdk.LocalDecisions)
	remote := float64(after.sdk.RemoteFallbacks - before.sdk.RemoteFallbacks)
	failSafe := float64(after.sdk.FailSafeDenies - before.sdk.FailSafeDenies)
	set("sdk.local_share", ratio(local, local+remote+failSafe), "ratio", int(local+remote+failSafe))
	set("sdk.remote_fallbacks", remote, "count", 1)

	// wire, client, net, router, server: spans, and probes for the JSON.
	decides := tr.ops[opDecide]
	med("wire.req_encode_ns", sh.reqEncNs, 1, "ns")
	med("wire.req_decode_ns", sh.reqDecNs, 1, "ns")
	med("wire.resp_encode_ns", sh.respEncNs, 1, "ns")
	med("wire.resp_decode_ns", sh.respDecNs, 1, "ns")
	roundTrips := tr.spansPerOp(opDecide, spanClientRT) * float64(decides)
	allTrips := 0
	for _, kind := range []string{opDecide, opSession, opFlip} {
		if sum := tr.sums[kind+"/"+spanClientRT]; sum != nil {
			allTrips += sum.n
		}
	}
	set("wire.req_bytes", ratio(float64(tr.reqBytes.Load()), float64(allTrips)), "bytes", allTrips)
	set("wire.resp_bytes", ratio(float64(tr.respBytes.Load()), float64(allTrips)), "bytes", allTrips)
	clientSelf := time.Duration(0)
	if sh.wire {
		clientSelf = tr.selfPerOp(opDecide, spanRoot)
	}
	set("client.self_us", us(clientSelf), "us", decides)
	retries := 0.0
	if sh.wire {
		retries = max(0, roundTrips-float64(decides))
	}
	set("client.retries", retries, "count", decides)
	set("client.conns_opened", float64(tr.connsOpened.Load()), "count", 1)
	set("net.client_hop_us", us(tr.selfPerOp(opDecide, spanClientRT)), "us", decides)
	set("net.router_hop_us", us(tr.selfPerOp(opDecide, spanRouterRT)), "us", decides)
	set("router.self_us", us(tr.selfPerOp(opDecide, spanRouter)), "us", decides)
	med("shard.owner_ns", sh.ownerNs, 1, "ns")
	set("router.retries", float64(after.retries-before.retries), "count", 1)
	set("router.hedges", float64(after.hedges-before.hedges), "count", 1)
	set("router.redirects_421", float64(tr.status421.Load()), "count", 1)
	serve := tr.selfPerOp(opDecide, spanServer)
	attributed := perDecision(sh.coreSum + sh.auditSum + sh.reqDecSum + sh.respEncSum)
	other := time.Duration(0)
	if sh.wire {
		other = serve - attributed
	}
	set("server.serve_us", us(serve+tr.selfPerOp(opDecide, spanOffer)), "us", decides)
	med("server.inproc_us", sh.inprocNs, 1e3, "us")
	set("server.other_us", us(other), "us", decides)
	set("server.shed", float64(after.shed-before.shed), "count", 1)

	// audit, declog
	med("audit.log_ns", sh.auditNs, 1, "ns")
	set("audit.evicted", float64(after.auditEvict-before.auditEvict), "count", 1)
	set("declog.offer_ns", ns(tr.selfPerOp(opDecide, spanOffer)), "ns", decides)
	set("declog.upload_ms", mean(tr.bg[bgUpload]), "ms", len(tr.bg[bgUpload]))
	received := float64(after.declog.Received - before.declog.Received)
	dropped := float64(after.declog.Dropped - before.declog.Dropped)
	set("declog.received", received, "count", 1)
	set("declog.dropped", dropped, "count", 1)
	set("declog.drop_ratio", ratio(dropped, received), "ratio", int(received))

	// store: what durability adds to a mutation, seen from outside the shard.
	flips := tr.ops[opFlip]
	commit := time.Duration(0)
	if after.walAppends > before.walAppends {
		commit = tr.selfPerOp(opFlip, spanServer) - time.Duration(median(sh.mutateNs))
	}
	appends := float64(after.walAppends - before.walAppends)
	set("store.commit_us", us(commit), "us", flips)
	set("store.fsyncs_per_mutation", ratio(float64(after.walFsyncs-before.walFsyncs), appends), "count", int(appends))
	set("store.wal_bytes_per_mutation", ratio(float64(after.walBytes), float64(after.walRecords)), "bytes", after.walRecords)
	set("store.checkpoints", float64(after.checkpoints-before.checkpoints), "count", 1)
	set("store.recover_ms", recoverMs, "ms", 1)

	// replica: the SDK's feed.
	fetches := append(append([]float64(nil), tr.bg[bgFetchDelta]...), tr.bg[bgFetchSnap]...)
	set("replica.fetch_ms", mean(fetches), "ms", len(fetches))
	set("replica.snapshot_ms", mean(tr.bg[bgFetchSnap]), "ms", len(tr.bg[bgFetchSnap]))
	snapBytes := 0.0
	if tr.fetcher != nil {
		snapBytes = float64(tr.fetcher.snapBytes.Load())
	}
	set("replica.snapshot_bytes", snapBytes, "bytes", 1)
	rep, rep0 := after.sdk.Replication, before.sdk.Replication
	set("replica.delta_syncs", float64(rep.DeltaSyncs-rep0.DeltaSyncs), "count", 1)
	set("replica.full_syncs", float64(rep.Syncs-rep0.Syncs), "count", 1)
	set("replica.watch_reconnects", float64(rep.WatchReconnects-rep0.WatchReconnects), "count", 1)
	set("replica.lag_max", float64(ws.lagMax), "count", len(ws.acked))
	set("replica.propagate_p90_ms", quantile(sortedCopy(ws.propagateNs), 0.9)/1e6, "ms", len(ws.propagateNs))

	// baseline: the paper's cost of generality on the embedded-warm stream.
	baseNs, walkNs, n := generality(in.w)
	set("baseline.rbac_check_ns", baseNs, "ns", n)
	set("core.generality_x", ratio(walkNs, baseNs), "x", n)

	// proc
	set("proc.cpu_us_per_op", ratio(us(spent.cpu-usage.cpu), ops), "us", int(ops))
	set("proc.allocs_per_op", ratio(float64(spent.mallocs-usage.mallocs), ops), "count", int(ops))
	set("proc.alloc_bytes_per_op", ratio(float64(spent.allocBytes-usage.allocBytes), ops), "bytes", int(ops))
	set("proc.gc_cpu_pct", 100*ratio(spent.gcCPU-usage.gcCPU, spent.totalCPU-usage.totalCPU), "pct", 1)

	// The caller's view on this run's single goroutine: the tail, and the
	// write path, which a measured run reports beside its result only.
	set("client.decide_p99_us", quantile(sortedCopy(toFloats(l.lat.ns)), 0.99)/1e3/float64(wl.block), "us", len(l.lat.ns))
	med("client.session_p50_us", ws.sessionNs, 1e3, "us")
	med("client.mutate_p50_us", ws.mutateNs, 1e3, "us")
	med("client.propagate_p50_ms", ws.propagateNs, 1e6, "ms")

	// gen, trace
	set("gen.writer_late_p99_ms", quantile(sortedCopy(ws.lateNs), 0.99)/1e6, "ms", len(ws.lateNs))
	set("trace.overhead_pct", 100*ratio(onP50-offP50, offP50), "pct", len(l.lat.ns))
	root := perDecision(sh.rootSum)
	unattributed := time.Duration(0)
	switch {
	case sh.wire:
		unattributed = max(0, other)
	case sh.audit:
		unattributed = max(0, root-perDecision(sh.coreSum+sh.auditSum))
	}
	set("trace.unattributed_pct", 100*ratio(float64(unattributed), float64(root)), "pct", sh.decisions)
	set("fail_ratio", ratio(float64(out.failed), float64(out.attempted)), "ratio", int(out.attempted))
	out.metrics = m
	return out, nil
}

const allocRuns = 2000

// allocsPerDecide counts heap allocations of a warm decision on the shadow,
// with the call the real path makes.
func allocsPerDecide(sh *shadow, table []request) float64 {
	var p *shadowPart
	for _, part := range sh.parts {
		p = part
		break
	}
	var r *request
	for i := range table {
		if p.sys.HasSubject(table[i].core.Subject) {
			r = &table[i]
			break
		}
	}
	if r == nil {
		return 0
	}
	call := func() { _, _ = p.sys.Decide(r.core) }
	if sh.check {
		call = func() { _, _ = p.sys.CheckAccess(r.core) }
	}
	call()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocRuns; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / allocRuns
}

// generality runs Figure 1's plain RBAC rule and core's uncached GRBAC rule
// over the embedded-warm request stream; the ratio is what the generalised
// model costs per decision when no cache helps.
func generality(w *world) (rbacNs, grbacNs float64, n int) {
	wl, _ := findWorkload("embedded-warm")
	traf := wl.traffic
	stream := w.drawStream(traf, 1)
	base := rbac.NewSystem()
	for i, roles := range w.subjRoles {
		for _, r := range roles {
			_ = base.AuthorizeRole(core.SubjectID(w.subjects[i]), w.roleName[r])
		}
	}
	for _, p := range w.state.Permissions {
		if p.Effect == core.Permit {
			_ = base.AuthorizeTransaction(p.Subject, p.Transaction)
		}
	}
	uncached, err := importState(core.NewSystem(core.WithoutDecisionCache()), w.state)
	if err != nil {
		return 0, 0, 0
	}
	ops := stream.ops[0]
	var sink bool
	start := time.Now()
	for _, op := range ops {
		r := &stream.table[op]
		sink = base.Exec(r.core.Subject, r.core.Transaction) != sink
	}
	rbacNs = float64(time.Since(start)) / float64(len(ops))
	start = time.Now()
	for _, op := range ops {
		ok, _ := uncached.CheckAccess(stream.table[op].core)
		sink = ok != sink
	}
	grbacNs = float64(time.Since(start)) / float64(len(ops))
	_ = sink
	return rbacNs, grbacNs, len(ops)
}
