package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"time"

	grbac "github.com/aware-home/grbac"
	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/declog"
	"github.com/aware-home/grbac/internal/obs"
	"github.com/aware-home/grbac/internal/pdp"
	"github.com/aware-home/grbac/internal/replica"
	"github.com/aware-home/grbac/internal/shard"
	"github.com/aware-home/grbac/internal/store"
	"github.com/aware-home/grbac/sdk"
)

var quiet = log.New(io.Discard, "", 0)

// sdkMaxStaleness is the SDK's default bound; its feed client asks for
// keepalives at a third of it, as sdk.New would arrange by itself.
const sdkMaxStaleness = 30 * time.Second

// counters is a reading of the booted system's own statistics, summed over
// its nodes.
type counters struct {
	core        core.Stats
	auditEvict  uint64
	declog      declog.Stats
	walAppends  uint64
	walFsyncs   uint64
	walBytes    int64
	walRecords  int
	checkpoints uint64
	shed        uint64
	sdk         sdk.Stats
	retries     uint64
	hedges      uint64
}

// topology is one booted system under test, seen through the calls an
// enforcement point and an administrator make.
type topology interface {
	// decide asks load goroutine client's decision path.
	decide(client int, r *request) (bool, error)
	sessionPair(subject string) error
	// flip assigns the flip role to the subject through the admin path.
	flip(subject string) error
	// visible is the reader's answer to a flip request; changed returns a
	// channel closed at the reader's next policy change, nil if the reader
	// needs no propagation.
	visible(r *request) (bool, error)
	changed() <-chan struct{}
	// lag is how many generations the reader's replica is behind its feed.
	lag() uint64
	counters() (counters, error)
	// close stops everything the boot started. A durable topology then
	// reopens its stores and reports how long recovery took and how many
	// of the acknowledged flips it lost.
	close(w *world, acked []int) (recoverMs float64, lost int, err error)
}

func boot(name string, w *world, dir string, clients int, tr *tracer) (topology, error) {
	switch name {
	case "embedded":
		return bootEmbedded(w, tr)
	case "churn":
		return bootChurn(w)
	case "direct":
		return bootDirect(w, dir, clients, tr)
	case "cluster":
		return bootCluster(w, dir, tr)
	}
	return nil, fmt.Errorf("unknown topology %q", name)
}

func importState(sys *core.System, st core.State) (*core.System, error) {
	if err := sys.Import(st); err != nil {
		return nil, fmt.Errorf("load policy: %w", err)
	}
	return sys, nil
}

// newHTTPClient gives one load goroutine its own connection pool.
func newHTTPClient(tr *tracer, name string) *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	return &http.Client{Transport: tr.transport(name, t)}
}

func closeIdle(clients ...*http.Client) {
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	pdp.PooledHTTPClient().CloseIdleConnections()
}

// node is one pdp.Server with its audit ring and decision-log export, the
// shape grbacd runs.
type node struct {
	sys      *core.System
	dur      *store.Durable
	trail    *audit.Logger
	exporter *declog.Exporter
	http     *httptest.Server
}

func startNode(sys *core.System, dur *store.Durable, declogDir string, tr *tracer) (*node, error) {
	n := &node{sys: sys, dur: dur}
	opts := []pdp.ServerOption{pdp.WithAdmin(), pdp.WithErrorLog(quiet)}
	if declogDir != "" {
		sink, err := declog.NewFileSink(declogDir)
		if err != nil {
			return nil, err
		}
		n.exporter = declog.New(tr.sink(sink), declog.WithLogger(quiet))
		n.trail = audit.NewLogger(audit.WithExportHook(tr.offer(n.exporter.Offer)))
		opts = append(opts, pdp.WithAuditLogger(n.trail), pdp.WithDecisionLog(n.exporter))
	}
	var srcOpts []replica.SourceOption
	if dur != nil {
		srcOpts = append(srcOpts, replica.WithSourceEpoch(dur.Epoch()), replica.WithDeltaProvider(dur))
		opts = append(opts, pdp.WithDurableStore(dur))
	}
	opts = append(opts, pdp.WithReplicaSource(replica.NewSource(sys, srcOpts...)))
	n.http = httptest.NewServer(tr.handler(spanServer, pdp.NewServer(sys, opts...)))
	return n, nil
}

func (n *node) stop() error {
	n.http.Close()
	if n.exporter != nil {
		_ = n.exporter.Close()
	}
	if n.dur != nil {
		return n.dur.Close()
	}
	return nil
}

func (n *node) addCounters(c *counters) {
	st := n.sys.Stats()
	c.core.DecisionHits += st.DecisionHits
	c.core.DecisionMisses += st.DecisionMisses
	c.core.Invalidations += st.Invalidations
	c.core.SnapshotCompiles += st.SnapshotCompiles
	if n.trail != nil {
		c.auditEvict += n.trail.Summary().Evicted
	}
	if n.exporter != nil {
		d := n.exporter.Stats()
		c.declog.Received += d.Received
		c.declog.Dropped += d.Dropped
	}
	if n.dur != nil {
		d := n.dur.Stats()
		c.walAppends += d.WALAppends
		c.walFsyncs += d.WALFsyncs
		c.walBytes += d.WALBytes
		c.walRecords += d.WALRecords
		c.checkpoints += d.Checkpoints
	}
}

// shedOf asks a node for the one counter only /v1/statsz exposes.
func shedOf(url string) (uint64, error) {
	st, err := pdp.NewClient(url, nil).Statsz(context.Background())
	if err != nil {
		return 0, err
	}
	if st.Server == nil {
		return 0, nil
	}
	return st.Server.Shed, nil
}

// --- embedded: sdk.Client mediating locally, fed by an in-process primary ---

type embedded struct {
	primary *node
	admin   *pdp.Client
	adminH  *http.Client
	sdk     *sdk.Client
}

func bootEmbedded(w *world, tr *tracer) (topology, error) {
	sys, err := importState(core.NewSystem(), w.state)
	if err != nil {
		return nil, err
	}
	e := &embedded{}
	if e.primary, err = startNode(sys, nil, "", tr); err != nil {
		return nil, err
	}
	e.adminH = newHTTPClient(tr, spanClientRT)
	e.admin = pdp.NewClient(e.primary.http.URL, e.adminH)
	opts := []sdk.Option{sdk.WithLogger(quiet)}
	if tr != nil {
		opts = append(opts, sdk.WithFetcher(newTracedFetcher(tr, e.primary.http.URL)))
	}
	if e.sdk, err = sdk.New(context.Background(), e.primary.http.URL, opts...); err != nil {
		_ = e.primary.stop()
		return nil, err
	}
	return e, nil
}

func newTracedFetcher(tr *tracer, feedURL string) *tracedFetcher {
	cl := replica.NewClient(feedURL, nil)
	cl.MaxWait = sdkMaxStaleness / 3
	f := &tracedFetcher{base: cl, tr: tr}
	tr.fetcher = f
	return f
}

func (e *embedded) decide(_ int, r *request) (bool, error) {
	return e.sdk.CheckAccess(context.Background(), r.core)
}

func (e *embedded) sessionPair(subject string) error { return sessionPair(e.admin, subject) }

func sessionPair(c *pdp.Client, subject string) error {
	sid, err := c.OpenSession(context.Background(), subject)
	if err != nil {
		return err
	}
	return c.CloseSession(context.Background(), sid)
}

func (e *embedded) flip(subject string) error { return flipVia(e.admin, subject) }

func flipVia(c *pdp.Client, subject string) error {
	return c.UpsertSubject(context.Background(), pdp.BindingRequest{
		ID: subject, Roles: []string{idName("sr", flipRoleIdx, 2)}})
}

func (e *embedded) visible(r *request) (bool, error) { return e.decide(0, r) }
func (e *embedded) changed() <-chan struct{}         { return e.sdk.PolicyChanged() }
func (e *embedded) lag() uint64                      { return e.sdk.Stats().Replication.Lag }

func (e *embedded) counters() (counters, error) {
	// The decisions run in the SDK's replica, so its core counters are the
	// ones that describe the decision path; the primary only takes writes.
	c := counters{sdk: e.sdk.Stats()}
	c.core = c.sdk.Core
	return c, nil
}

func (e *embedded) close(*world, []int) (float64, int, error) {
	e.sdk.Close()
	err := e.primary.stop()
	closeIdle(e.adminH)
	return 0, 0, err
}

// --- churn: the root package's System behind audit.Wrap, no network ---

type churn struct {
	sys     *grbac.System
	audited *audit.AuditedSystem
	trail   *audit.Logger
	role    grbac.RoleID
}

func bootChurn(w *world) (topology, error) {
	sys, err := importState(grbac.NewSystem(), w.state)
	if err != nil {
		return nil, err
	}
	trail := audit.NewLogger()
	return &churn{sys: sys, trail: trail, audited: audit.Wrap(sys, trail), role: w.roleName[flipRoleIdx]}, nil
}

func (c *churn) decide(_ int, r *request) (bool, error) {
	d, err := c.audited.Decide(r.core)
	return d.Allowed, err
}

func (c *churn) sessionPair(subject string) error {
	sid, err := c.sys.CreateSession(grbac.SubjectID(subject))
	if err != nil {
		return err
	}
	return c.sys.CloseSession(sid)
}

func (c *churn) flip(subject string) error {
	return c.sys.AssignSubjectRole(grbac.SubjectID(subject), c.role)
}

func (c *churn) visible(r *request) (bool, error) { return c.decide(0, r) }
func (c *churn) changed() <-chan struct{}         { return nil }
func (c *churn) lag() uint64                      { return 0 }

func (c *churn) counters() (counters, error) {
	return counters{core: c.sys.Stats(), auditEvict: c.trail.Summary().Evicted}, nil
}

func (c *churn) close(*world, []int) (float64, int, error) { return 0, 0, nil }

// --- direct: pdp.Client to one in-memory pdp.Server over loopback HTTP ---

type direct struct {
	node    *node
	https   []*http.Client
	clients []*pdp.Client
	admin   *pdp.Client
}

func bootDirect(w *world, dir string, clients int, tr *tracer) (topology, error) {
	sys, err := importState(core.NewSystem(), w.state)
	if err != nil {
		return nil, err
	}
	d := &direct{}
	if d.node, err = startNode(sys, nil, filepath.Join(dir, "declog"), tr); err != nil {
		return nil, err
	}
	for i := 0; i <= clients; i++ {
		h := newHTTPClient(tr, spanClientRT)
		d.https = append(d.https, h)
		d.clients = append(d.clients, pdp.NewClient(d.node.http.URL, h))
	}
	d.admin = d.clients[clients]
	return d, nil
}

func (d *direct) decide(client int, r *request) (bool, error) {
	resp, err := d.clients[client].Decide(context.Background(), r.wire)
	return resp.Allowed, err
}

func (d *direct) sessionPair(subject string) error { return sessionPair(d.admin, subject) }
func (d *direct) flip(subject string) error        { return flipVia(d.admin, subject) }
func (d *direct) visible(r *request) (bool, error) { return d.decide(len(d.clients)-1, r) }
func (d *direct) changed() <-chan struct{}         { return nil }
func (d *direct) lag() uint64                      { return 0 }

func (d *direct) counters() (counters, error) {
	var c counters
	d.node.addCounters(&c)
	var err error
	c.shed, err = shedOf(d.node.http.URL)
	return c, err
}

func (d *direct) close(*world, []int) (float64, int, error) {
	err := d.node.stop()
	closeIdle(d.https...)
	return 0, 0, err
}

// --- cluster: pdp.Client → Router → 2 durable shards, SDK on shard s0 ---

const homeShard = "s0"

type cluster struct {
	dirs      []string
	shards    []*node
	smap      *shard.Map
	router    *pdp.Router
	reg       *obs.Registry
	routerSrv *httptest.Server
	https     []*http.Client
	reader    *pdp.Client // load goroutine A
	writer    *pdp.Client // load goroutine B
	sdk       *sdk.Client
}

var shardIDs = []string{homeShard, "s1"}

// shardOwner places subjects the way the router will; placement depends on
// shard IDs only, so it is known before the shards have addresses.
func shardOwner() (*shard.Map, error) {
	var infos []shard.Info
	for _, id := range shardIDs {
		infos = append(infos, shard.Info{ID: id, Addr: "http://" + id})
	}
	return shard.New(0, infos...)
}

// partition is what one shard holds: the shared policy and its own subjects.
func partition(st core.State, owner *shard.Map, id string) core.State {
	out := st
	out.Subjects = nil
	for _, s := range st.Subjects {
		if owner.Owner(string(s.ID)).ID == id {
			out.Subjects = append(out.Subjects, s)
		}
	}
	return out
}

func openStore(dir string, seed *core.State) (*store.Durable, error) {
	opts := []store.DurableOption{store.WithDurableLogger(quiet)}
	if seed != nil {
		opts = append(opts, store.WithSeedState(seed))
	}
	return store.Open(dir, opts...)
}

func bootCluster(w *world, dir string, tr *tracer) (topology, error) {
	owner, err := shardOwner()
	if err != nil {
		return nil, err
	}
	c := &cluster{}
	fail := func(err error) (topology, error) {
		_, _, _ = c.close(nil, nil)
		return nil, err
	}
	var infos []shard.Info
	for _, id := range shardIDs {
		seed := partition(w.state, owner, id)
		sdir := filepath.Join(dir, id)
		dur, err := openStore(filepath.Join(sdir, "store"), &seed)
		if err != nil {
			return fail(err)
		}
		n, err := startNode(dur.System(), dur, filepath.Join(sdir, "declog"), tr)
		if err != nil {
			_ = dur.Close()
			return fail(err)
		}
		c.dirs = append(c.dirs, filepath.Join(sdir, "store"))
		c.shards = append(c.shards, n)
		infos = append(infos, shard.Info{ID: id, Addr: n.http.URL})
	}
	if c.smap, err = shard.New(0, infos...); err != nil {
		return fail(err)
	}
	c.reg = obs.NewRegistry()
	ropts := []pdp.RouterOption{pdp.WithRouterLogger(quiet), pdp.WithRouterMetrics(c.reg)}
	if tr != nil {
		shardH := newHTTPClient(tr, spanRouterRT)
		c.https = append(c.https, shardH)
		ropts = append(ropts, pdp.WithRouterClientFactory(func(addr string) *pdp.Client {
			return pdp.NewClient(addr, shardH)
		}))
	}
	if c.router, err = pdp.NewRouter(c.smap, ropts...); err != nil {
		return fail(err)
	}
	c.routerSrv = httptest.NewServer(tr.handler(spanRouter, c.router))
	for _, dst := range []**pdp.Client{&c.reader, &c.writer} {
		h := newHTTPClient(tr, spanClientRT)
		c.https = append(c.https, h)
		*dst = pdp.NewClient(c.routerSrv.URL, h)
	}
	opts := []sdk.Option{sdk.WithLogger(quiet), sdk.WithShardRouting(homeShard)}
	if tr != nil {
		opts = append(opts, sdk.WithFetcher(newTracedFetcher(tr, c.shards[0].http.URL)))
	}
	if c.sdk, err = sdk.New(context.Background(), c.routerSrv.URL, opts...); err != nil {
		return fail(err)
	}
	return c, nil
}

func (c *cluster) decide(_ int, r *request) (bool, error) {
	resp, err := c.reader.Decide(context.Background(), r.wire)
	return resp.Allowed, err
}

func (c *cluster) sessionPair(subject string) error { return sessionPair(c.writer, subject) }
func (c *cluster) flip(subject string) error        { return flipVia(c.writer, subject) }

func (c *cluster) visible(r *request) (bool, error) {
	return c.sdk.CheckAccess(context.Background(), r.core)
}

func (c *cluster) changed() <-chan struct{} { return c.sdk.PolicyChanged() }

func (c *cluster) lag() uint64 { return c.sdk.Stats().Replication.Lag }

func (c *cluster) counters() (counters, error) {
	out := counters{sdk: c.sdk.Stats()}
	for _, n := range c.shards {
		n.addCounters(&out)
		shed, err := shedOf(n.http.URL)
		if err != nil {
			return out, err
		}
		out.shed += shed
	}
	var text strings.Builder
	if err := c.reg.WritePrometheus(&text); err != nil {
		return out, err
	}
	out.retries = sumSeries(text.String(), "grbac_shard_retry_total")
	out.hedges = sumSeries(text.String(), "grbac_shard_hedge_total")
	return out, nil
}

// sumSeries adds up every sample of one metric family in a Prometheus text
// exposition; the router keeps its retry and hedge counts nowhere else.
func sumSeries(exposition, family string) uint64 {
	var total float64
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, family+"{") && !strings.HasPrefix(line, family+" ") {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err == nil {
			total += v
		}
	}
	return uint64(total)
}

func (c *cluster) close(w *world, acked []int) (float64, int, error) {
	if c.sdk != nil {
		c.sdk.Close()
	}
	if c.routerSrv != nil {
		c.routerSrv.Close()
	}
	if c.router != nil {
		c.router.Close()
	}
	var firstErr error
	for _, n := range c.shards {
		if err := n.stop(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	closeIdle(c.https...)
	if firstErr != nil || w == nil {
		return 0, 0, firstErr
	}

	// Recovery: every shard's store is reopened from its directory alone,
	// and each acknowledged flip must still answer permit.
	var recoverMs float64
	lost := len(acked)
	for i, dir := range c.dirs {
		start := time.Now()
		dur, err := openStore(dir, nil)
		if err != nil {
			return 0, lost, fmt.Errorf("recover shard %s: %w", shardIDs[i], err)
		}
		if ms := float64(time.Since(start)) / 1e6; ms > recoverMs {
			recoverMs = ms
		}
		for _, subj := range acked {
			if !dur.System().HasSubject(core.SubjectID(w.subjects[subj])) {
				continue
			}
			r := w.flipRequest(subj, true)
			if ok, err := dur.System().CheckAccess(r.core); err == nil && ok {
				lost--
			}
		}
		if err := dur.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return recoverMs, lost, firstErr
}
