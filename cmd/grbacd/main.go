// Command grbacd serves a GRBAC policy decision point over HTTP.
//
// The policy comes from either a policy-language source file (-policy) or
// a JSON snapshot (-snapshot); with neither, the built-in Aware Home
// policy is served, which is convenient for trying the API:
//
//	grbacd -addr :8125 &
//	curl -s localhost:8125/v1/check -d \
//	  '{"subject":"alice","object":"tv","transaction":"use",
//	    "environment":["weekday-free-time"]}'
//
// Every grbacd exposes the replication feed (/v1/replica/*), so any node
// can act as the primary of a cluster. Started with -follow, grbacd is
// instead a read-only follower: it pulls the primary's snapshot, serves
// Decide traffic from the replicated policy at local speed, long-polls
// for changes, and redirects mutations to the primary:
//
//	grbacd -addr :8125 -admin &                         # primary
//	grbacd -addr :8126 -follow http://localhost:8125 &  # follower
//
// Past -max-staleness without primary contact the follower keeps serving
// (decisions marked "stale": true) while /v1/healthz degrades to 503.
//
// Started with -route, grbacd is instead a routing tier over a sharded
// cluster: subjects are partitioned across the listed shards by
// consistent hash, each request is forwarded to the shard owning its
// subject, and cross-subject queries scatter-gather across all shards:
//
//	grbacd -addr :8125 -admin -map-source a=http://localhost:8120 &  # shard a
//	grbacd -addr :8126 -admin -map-source b=http://localhost:8120 &  # shard b
//	grbacd -addr :8120 -route 'a=http://localhost:8125,b=http://localhost:8126' &
//
// With -map-source a shard follows the router's shard-map feed under its
// ID in the map, and forwards a request for a subject it does not hold
// to the subject's owner under the published maps; online rebalancing
// (the router's -data-dir) needs every shard to follow it.
//
// With -data-dir the primary's policy is durable: every mutation is
// written to a write-ahead log before it is acknowledged, periodic
// checkpoint snapshots bound replay time, and a restart recovers the
// exact pre-crash policy, generation, and replication epoch — so
// followers catch up through a delta fetch instead of a full resync:
//
//	grbacd -addr :8125 -admin -data-dir /var/lib/grbacd &
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	grbac "github.com/aware-home/grbac"
	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/bundle"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/declog"
	"github.com/aware-home/grbac/internal/event"
	"github.com/aware-home/grbac/internal/faults"
	"github.com/aware-home/grbac/internal/obs"
	"github.com/aware-home/grbac/internal/pdp"
	"github.com/aware-home/grbac/internal/replica"
	"github.com/aware-home/grbac/internal/shard"
	"github.com/aware-home/grbac/internal/store"
	"github.com/aware-home/grbac/internal/watch"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("grbacd: ")
	addr := flag.String("addr", ":8125", "listen address")
	policyPath := flag.String("policy", "", "policy-language source file")
	snapshotPath := flag.String("snapshot", "", "JSON policy snapshot file")
	threshold := flag.Float64("min-confidence", 0, "system-wide authentication threshold override (0 = keep policy value)")
	admin := flag.Bool("admin", false, "enable the policy administration and session endpoints")
	dataDir := flag.String("data-dir", "", "durable policy store directory (WAL + checkpoints): mutations survive restarts and followers resume via delta sync")
	walCheckpointEvery := flag.Int("wal-checkpoint-every", store.DefaultCheckpointEvery, "WAL records between checkpoint snapshots in -data-dir")
	route := flag.String("route", "", "router mode: comma-separated shard list 'id=url,id=url' (or bare URLs for auto IDs); this node forwards requests to the shard owning each subject instead of deciding itself")
	shardTimeout := flag.Duration("shard-timeout", pdp.DefaultShardTimeout, "router mode: per-shard call deadline — a down shard costs one deadline, not a hang")
	mapSource := flag.String("map-source", "", "shard mode: 'id=url' follows the shard-map feed of the router at url as shard id, forwarding requests for subjects this shard does not hold by the published maps (required for online rebalance)")
	follow := flag.String("follow", "", "primary PDP base URL to replicate from (follower mode: read-only, policy comes from the primary)")
	maxStaleness := flag.Duration("max-staleness", 30*time.Second, "follower mode: degrade health and mark decisions stale after this long without primary contact (0 disables)")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second, "how long to let in-flight requests drain on SIGINT/SIGTERM")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent decision requests; overflow waits -inflight-wait then sheds with 429 + Retry-After (0 disables admission control)")
	inflightWait := flag.Duration("inflight-wait", 50*time.Millisecond, "how long an over-limit decision request may wait for an admission slot before shedding")
	faultSpec := flag.String("faults", "", "chaos drills: fault-injection spec, e.g. 'pdp.decide:delay=50ms,prob=0.5;replica.watch:error=dropped,every=3'")
	faultSeed := flag.Int64("faults-seed", 1, "seed for the fault plan's probability draws, for reproducible chaos runs")
	auditCapacity := flag.Int("audit-capacity", 10000, "audit-trail ring capacity; older records are evicted (and counted in grbac_audit_evicted_total) beyond it")
	declogSink := flag.String("declog", "", "decision-log export sink: an http(s):// collector URL or a directory for numbered gzip JSONL chunks (empty disables export)")
	declogBuffer := flag.Int("declog-buffer", 0, "decision-log intake buffer in records; overflow is dropped and counted, never blocking Decide (0 = default)")
	declogFlush := flag.Duration("declog-flush", 0, "decision-log flush interval: a partial chunk is sealed and queued for upload after this much quiet time (0 = default 1s)")
	bundlePub := flag.String("bundle-pub", "", "trusted bundle public key file (hex ed25519): enables POST /v1/bundle, verified before activation")
	bundlePath := flag.String("bundle", "", "signed policy bundle to verify and activate at boot (requires -bundle-pub)")
	metricsOn := flag.Bool("metrics", true, "expose Prometheus metrics at GET /metrics")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (opt-in; CPU profiles longer than the write timeout are truncated)")
	flag.Parse()

	if *faultSpec != "" {
		rules, err := faults.ParseRules(*faultSpec)
		if err != nil {
			log.Fatal(err)
		}
		faults.Activate(faults.NewPlan(*faultSeed, rules...))
		log.Printf("FAULT INJECTION ACTIVE (seed %d): %s", *faultSeed, *faultSpec)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The bundle trust root is shared by every mode: a primary, follower,
	// or router started with -bundle-pub accepts signed policy bundles at
	// POST /v1/bundle and rejects unsigned, tampered, or stale ones.
	var verifier *bundle.Verifier
	if *bundlePub != "" {
		pub, err := bundle.LoadPublicKey(*bundlePub)
		if err != nil {
			log.Fatal(err)
		}
		verifier = bundle.NewVerifier(pub)
		log.Printf("bundle verification armed (trusted key %s)", bundle.KeyID(pub))
	}
	if *bundlePath != "" && verifier == nil {
		log.Fatal("-bundle requires -bundle-pub: an unverifiable bundle is never activated")
	}

	if *route != "" {
		if *policyPath != "" || *snapshotPath != "" || *admin || *follow != "" || *mapSource != "" {
			log.Fatal("-route is exclusive with -policy, -snapshot, -admin, -follow, and -map-source: a router holds no policy of its own")
		}
		if *bundlePath != "" {
			log.Fatal("-bundle is exclusive with -route: a router activates no policy at boot; push bundles to POST /v1/bundle instead")
		}
		m, err := parseShardList(*route)
		if err != nil {
			log.Fatal(err)
		}
		// With -data-dir the router is rebalance-capable: the last
		// committed shard map persists across restarts (and overrides the
		// boot flag when newer), and an interrupted rebalance resumes
		// from its journal.
		var mapPath, journalPath string
		if *dataDir != "" {
			if err := os.MkdirAll(*dataDir, 0o755); err != nil {
				log.Fatal(err)
			}
			mapPath = filepath.Join(*dataDir, "shardmap.json")
			journalPath = filepath.Join(*dataDir, "rebalance.journal")
			persisted, err := shard.LoadMap(mapPath)
			if err != nil {
				log.Fatal(err)
			}
			if persisted != nil && persisted.Version() > m.Version() {
				log.Printf("persisted shard map v%d (%d shards) overrides -route list", persisted.Version(), persisted.Len())
				m = persisted
			}
		}
		routerOpts := []pdp.RouterOption{pdp.WithShardTimeout(*shardTimeout)}
		if verifier != nil {
			routerOpts = append(routerOpts, pdp.WithRouterBundleVerifier(verifier))
		}
		if *metricsOn {
			routerOpts = append(routerOpts, pdp.WithRouterMetrics(obs.NewRegistry()))
		}
		rt, err := pdp.NewRouter(m, routerOpts...)
		if err != nil {
			log.Fatal(err)
		}
		handler := http.Handler(rt)
		if *dataDir != "" {
			coord := shard.NewCoordinator(journalPath,
				func(info shard.Info) shard.NodeClient {
					n := pdp.NewMigrationNode(info.Addr)
					n.ID = info.ID
					return n
				},
				func(_ context.Context, nm *shard.Map) error { return rt.SetPending(nm) },
				func(_ context.Context, nm *shard.Map) error {
					// Re-commits during resume may carry the already-active
					// version; that is convergence, not an error.
					if err := rt.SetMap(nm); err != nil && !errors.Is(err, pdp.ErrStaleShardMap) {
						return err
					}
					return shard.SaveMap(mapPath, nm)
				}, log.Printf)
			go func() {
				// Resume in the background so routing starts immediately:
				// the resumed run republishes its pending map, and until it
				// commits, moved subjects decide through their old owners'
				// forwarding.
				if resumed, err := coord.Resume(context.Background()); err != nil {
					log.Printf("rebalance resume: %v", err)
				} else if resumed {
					log.Printf("resumed interrupted rebalance: shard map now v%d", rt.Map().Version())
				}
			}()
			reb := pdp.NewRebalanceHandler(rt, coord, log.Default())
			outer := http.NewServeMux()
			outer.Handle(pdp.ShardRebalancePath, reb)
			outer.Handle(pdp.ShardRebalanceStatusPath, reb)
			outer.Handle("/", rt)
			handler = outer
			log.Printf("rebalance API enabled (journal %s)", journalPath)
		}
		for _, s := range rt.Map().Shards() {
			log.Printf("shard %s -> %s", s.ID, s.Addr)
		}
		log.Printf("serving GRBAC routing tier on %s (%d shards, %d vnodes, shard timeout %v)",
			*addr, rt.Map().Len(), rt.Map().VNodes(), *shardTimeout)
		serve(ctx, stop, *addr, handler, *shutdownGrace, nil)
		return
	}

	var sys *core.System
	var dur *store.Durable
	var serverOpts []pdp.ServerOption

	// The audit trail is a bounded ring; past -audit-capacity the oldest
	// records are evicted and counted. With -declog every record is also
	// handed (without ever blocking Decide) to the export pipeline, which
	// ships gzip JSONL chunks to the sink and sheds with a counter when
	// the sink cannot keep up.
	var exporter *declog.Exporter
	auditOpts := []audit.LoggerOption{audit.WithCapacity(*auditCapacity)}
	if *declogSink != "" {
		sink, err := declog.ParseSink(*declogSink)
		if err != nil {
			log.Fatal(err)
		}
		var dlOpts []declog.Option
		if *declogBuffer > 0 {
			dlOpts = append(dlOpts, declog.WithBufferSize(*declogBuffer))
		}
		if *declogFlush > 0 {
			dlOpts = append(dlOpts, declog.WithFlushInterval(*declogFlush))
		}
		exporter = declog.New(sink, dlOpts...)
		auditOpts = append(auditOpts, audit.WithExportHook(exporter.Offer))
		serverOpts = append(serverOpts, pdp.WithDecisionLog(exporter))
		log.Printf("decision-log export to %s", *declogSink)
	}
	trail := audit.NewLogger(auditOpts...)
	serverOpts = append(serverOpts, pdp.WithAuditLogger(trail))
	if verifier != nil {
		serverOpts = append(serverOpts, pdp.WithBundleVerifier(verifier))
	}

	var reg *obs.Registry
	if *metricsOn {
		reg = obs.NewRegistry()
		serverOpts = append(serverOpts, pdp.WithMetrics(reg))
	}

	if *follow != "" {
		if *policyPath != "" || *snapshotPath != "" || *admin || *dataDir != "" || *mapSource != "" {
			log.Fatal("-follow is exclusive with -policy, -snapshot, -admin, -data-dir, and -map-source: a follower's policy comes from its primary")
		}
		if *bundlePath != "" {
			log.Fatal("-bundle is exclusive with -follow: a follower's boot policy comes from its primary (push bundles to POST /v1/bundle instead)")
		}
		sys = core.NewSystem()
		follower := replica.NewPuller(sys, *follow,
			replica.WithMaxStaleness(*maxStaleness))
		go func() {
			_ = follower.Run(ctx)
		}()
		serverOpts = append(serverOpts, pdp.WithFollower(follower))
		log.Printf("following primary %s (max staleness %v)", *follow, *maxStaleness)
	} else {
		var engine *grbac.EnvironmentEngine
		var err error
		sys, engine, err = loadSystem(*policyPath, *snapshotPath)
		if err != nil {
			log.Fatal(err)
		}
		if *dataDir != "" {
			// The loaded policy only seeds an empty data dir; once the
			// store holds state, the recovered policy wins and -policy /
			// -snapshot are ignored for content (still fine as defaults).
			seedState, _ := sys.Snapshot()
			dur, err = store.Open(*dataDir,
				store.WithCheckpointEvery(*walCheckpointEvery),
				store.WithSeedState(&seedState))
			if err != nil {
				log.Fatal(err)
			}
			sys = dur.System()
			if engine != nil {
				// Re-attach the environment engine to the recovered system:
				// environment definitions are live Go values the snapshot
				// cannot carry.
				sys.SetEnvironmentSource(engine)
			}
			st := dur.Stats()
			log.Printf("durable store %s: epoch %s generation %d (replayed %d WAL records on top of checkpoint gen %d)",
				*dataDir, st.Epoch, st.Generation, st.Replay.Records, st.CheckpointGeneration)
			if reg != nil {
				dur.RegisterMetrics(reg)
			}
		}
		if engine != nil && reg != nil {
			// Wire the event bus so environment role transitions are
			// published and counted, and export the bus and engine gauges
			// alongside the server's own metrics.
			bus := event.NewBus()
			engine.AttachBus(bus)
			bus.RegisterMetrics(reg)
			engine.RegisterMetrics(reg)
		}
		if *threshold > 0 {
			if err := sys.SetMinConfidence(*threshold); err != nil {
				log.Fatal(err)
			}
		}
		if *bundlePath != "" {
			raw, err := os.ReadFile(*bundlePath)
			if err != nil {
				log.Fatal(err)
			}
			b, err := verifier.Admit(raw)
			if err != nil {
				log.Fatalf("boot bundle %s rejected: %v", *bundlePath, err)
			}
			if err := sys.Replace(b.State); err != nil {
				log.Fatalf("boot bundle %s: %v", *bundlePath, err)
			}
			log.Printf("activated boot bundle %s (revision %d, key %s)",
				*bundlePath, b.Manifest.Revision, b.Manifest.KeyID)
		}
		if *admin {
			serverOpts = append(serverOpts, pdp.WithAdmin())
			log.Print("administration endpoints ENABLED")
		}
	}
	// Every node exposes the feed, so followers can chain off followers
	// and any node can be promoted to primary. A durable primary pins the
	// feed epoch to the store's persisted one and serves delta catch-up
	// from its WAL tail, so followers survive its restarts cheaply.
	var srcOpts []replica.SourceOption
	if dur != nil {
		srcOpts = append(srcOpts,
			replica.WithSourceEpoch(dur.Epoch()),
			replica.WithDeltaProvider(dur))
		serverOpts = append(serverOpts, pdp.WithDurableStore(dur))
	}
	serverOpts = append(serverOpts, pdp.WithReplicaSource(replica.NewSource(sys, srcOpts...)))
	if *mapSource != "" {
		id, url, ok := strings.Cut(*mapSource, "=")
		if !ok || id == "" || url == "" {
			log.Fatalf("-map-source %q: want id=url, the shard's ID in the router's map and the router's URL", *mapSource)
		}
		feed := pdp.NewMapFeed(url, log.Default())
		go feed.Run(ctx)
		serverOpts = append(serverOpts, pdp.WithMapFeed(id, feed))
		log.Printf("shard %s follows the shard map feed of %s", id, url)
	}
	if *maxInflight > 0 {
		serverOpts = append(serverOpts, pdp.WithMaxInflight(*maxInflight, *inflightWait))
		log.Printf("admission control: %d in flight, %v wait", *maxInflight, *inflightWait)
	}

	server := pdp.NewServer(sys, serverOpts...)
	handler := http.Handler(server)
	if *pprofOn {
		// pprof rides an outer mux so the PDP mux stays free of debug
		// routes when profiling is off (the default).
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", server)
		handler = outer
		log.Print("pprof ENABLED at /debug/pprof/")
	}
	log.Printf("serving GRBAC PDP on %s (%d permissions, %d subjects)",
		*addr, len(sys.Permissions()), len(sys.Subjects()))
	serve(ctx, stop, *addr, handler, *shutdownGrace, func() {
		if exporter != nil {
			// Flush and upload what the pipeline holds (bounded by its
			// close timeout); anything still stuck is counted as dropped.
			exporter.Close()
		}
		if dur != nil {
			// Final checkpoint: the next boot replays nothing.
			if err := dur.Close(); err != nil {
				log.Printf("store close: %v", err)
			}
		}
	})
}

// newHTTPServer builds the HTTP server every mode serves from.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	srv := &http.Server{
		Addr:    addr,
		Handler: handler,
		// Defense against slow or stuck clients. The long-poll watches
		// (replica feed, shard map; internal/watch) outlive WriteTimeout
		// by design: each extends its own per-request write deadline
		// (http.ResponseController) to cover the long-poll window.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      15 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	// A parked watch answers "nothing new" when the drain starts, so the
	// drain waits out decides and forwards, not park times past its grace.
	watch.DrainOnShutdown(srv)
	return srv
}

// serve runs the HTTP server until the context is cancelled, then drains
// in-flight requests and runs onDrain (when non-nil) before returning.
func serve(ctx context.Context, stop context.CancelFunc, addr string, handler http.Handler, grace time.Duration, onDrain func()) {
	httpServer := newHTTPServer(addr, handler)

	errCh := make(chan error, 1)
	go func() {
		errCh <- httpServer.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal behavior: a second signal kills
		log.Printf("signal received, draining for up to %v", grace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := httpServer.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
			os.Exit(1)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: %v", err)
		}
		if onDrain != nil {
			onDrain()
		}
		log.Print("bye")
	}
}

// parseShardList parses the -route shard list: comma-separated entries,
// each "id=url" or a bare URL (auto-assigned IDs s0, s1, … by position —
// note that renaming or reordering auto-ID shards remaps subjects, so
// production clusters should pin explicit IDs). The ring has
// shard.DefaultVNodes virtual nodes per shard; a persisted shard map
// carries its own.
func parseShardList(spec string) (*shard.Map, error) {
	var infos []shard.Info
	for i, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		if id, url, ok := strings.Cut(entry, "="); ok && !strings.Contains(id, "/") {
			infos = append(infos, shard.Info{ID: strings.TrimSpace(id), Addr: strings.TrimSpace(url)})
		} else {
			infos = append(infos, shard.Info{ID: fmt.Sprintf("s%d", i), Addr: entry})
		}
	}
	return shard.New(shard.DefaultVNodes, infos...)
}

// loadSystem builds the system and, when the policy came from the policy
// language, the environment engine behind it (nil for snapshots, which
// carry no live environment definitions).
func loadSystem(policyPath, snapshotPath string) (*core.System, *grbac.EnvironmentEngine, error) {
	switch {
	case policyPath != "" && snapshotPath != "":
		log.Fatal("-policy and -snapshot are mutually exclusive")
		return nil, nil, nil
	case snapshotPath != "":
		sys, snap, err := store.Load(snapshotPath)
		if err != nil {
			return nil, nil, err
		}
		log.Printf("loaded snapshot %s (saved %s)", snapshotPath, snap.SavedAt.Format(time.RFC3339))
		return sys, nil, nil
	case policyPath != "":
		src, err := os.ReadFile(policyPath)
		if err != nil {
			return nil, nil, err
		}
		sys, engine, err := grbac.BuildPolicy(string(src))
		if err != nil {
			return nil, nil, err
		}
		sys.SetEnvironmentSource(engine)
		log.Printf("compiled policy %s", policyPath)
		return sys, engine, nil
	default:
		sys, engine, err := grbac.BuildPolicy(grbac.DefaultHomePolicy)
		if err != nil {
			return nil, nil, err
		}
		sys.SetEnvironmentSource(engine)
		log.Print("serving the built-in Aware Home policy")
		return sys, engine, nil
	}
}
