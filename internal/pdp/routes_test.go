package pdp

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/obs"
	"github.com/aware-home/grbac/internal/replica"
	"github.com/aware-home/grbac/internal/shard"
)

// routeMethods maps each route a handler serves to its methods.
type routeMethods map[string][]string

const get, post, del = http.MethodGet, http.MethodPost, http.MethodDelete

// mutationRoutes are the admin and session routes, as both tiers serve
// them and as a follower redirects them.
var mutationRoutes = routeMethods{
	"/v1/admin/roles":        {post, del},
	"/v1/admin/subjects":     {post},
	"/v1/admin/objects":      {post},
	"/v1/admin/transactions": {post},
	"/v1/admin/permissions":  {post, del},
	"/v1/admin/sod":          {post},
	"/v1/sessions":           {post, del},
	"/v1/sessions/roles":     {post},
}

// queryRoutes are the review queries, as both tiers serve them and as a
// follower redirects them.
var queryRoutes = routeMethods{
	"/v1/query/who-can":          {get},
	"/v1/query/what-can":         {get},
	"/v1/query/subjects-in-role": {get},
}

// bothTiers are the routes a shard and the router both serve, besides
// the mutations and the queries.
var bothTiers = routeMethods{
	"/v1/decide":       {post},
	"/v1/check":        {post},
	"/v1/decide/batch": {post},
	"/v1/healthz":      {get},
	"/v1/statsz":       {get},
	"/metrics":         {get},
	BundlePath:         {post},
	BundleStatusPath:   {get},
}

func (rm routeMethods) with(more ...routeMethods) routeMethods {
	out := routeMethods{}
	for _, m := range append(more, rm) {
		for p, ms := range m {
			out[p] = ms
		}
	}
	return out
}

// unrouted reports whether rec is the JSON 404 of a path no route names.
func unrouted(rec *httptest.ResponseRecorder) bool {
	var e ErrorResponse
	return rec.Code == http.StatusNotFound && json.Unmarshal(rec.Body.Bytes(), &e) == nil &&
		strings.HasPrefix(e.Error, "no route ")
}

// TestRouteTable walks every route of a shard server with every optional
// route mounted, of a router with bundles and metrics, and of the
// rebalance handler. Each answers every method it does not serve with
// the JSON 405 whose Allow header lists exactly the methods it does (a
// GET route serves HEAD too), and never refuses one it serves; a path
// none of them routes gets a JSON 404. A follower answers each of its
// methods on every mutation and query route with a 307 to the same URI
// on its primary, and a JSON 404 on the migration routes.
func TestRouteTable(t *testing.T) {
	_, mkVerifier := newBundleKit(t)
	quiet := log.New(io.Discard, "", 0)
	sys := core.NewSystem()
	srv := newHTTPServer(t, NewServer(sys, WithAdmin(),
		WithMetrics(obs.NewRegistry()),
		WithAuditLogger(audit.NewLogger()),
		WithBundleVerifier(mkVerifier()),
		WithReplicaSource(replica.NewSource(sys)),
		WithMapFeed("s0", NewMapFeed("http://127.0.0.1:1", quiet))))
	m, err := shard.New(0, shard.Info{ID: "s0", Addr: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(m, WithRouterBundleVerifier(mkVerifier()), WithRouterMetrics(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	coord := shard.NewCoordinator(filepath.Join(t.TempDir(), "rebalance.journal"),
		func(info shard.Info) shard.NodeClient { return NewMigrationNode(info.Addr) }, nil, nil, t.Logf)

	for _, tier := range []struct {
		name   string
		h      http.Handler
		routes routeMethods
	}{
		{"shard", srv.Config.Handler, mutationRoutes.with(queryRoutes, bothTiers, routeMethods{
			"/v1/state":          {get},
			"/v1/audit":          {get},
			MigrateSubjectsPath:  {get},
			MigrateImportPath:    {post},
			MigrateHandoffPath:   {post},
			replica.SnapshotPath: {get},
			replica.WatchPath:    {get},
			replica.DeltaPath:    {get},
		})},
		{"router", rt, mutationRoutes.with(queryRoutes, bothTiers, routeMethods{
			ShardMapPath:      {get},
			ShardMapWatchPath: {get},
		})},
		{"rebalance", NewRebalanceHandler(rt, coord, quiet), routeMethods{
			ShardRebalancePath:       {post},
			ShardRebalanceStatusPath: {get},
		}},
	} {
		for path, methods := range tier.routes {
			allow := strings.Join(methods, ", ")
			if slices.Contains(methods, get) {
				allow += ", " + http.MethodHead
			}
			for _, method := range []string{get, http.MethodHead, post, http.MethodPut, del, http.MethodPatch} {
				// A wait bounds the long-polls; every other route ignores it.
				rec := httptest.NewRecorder()
				tier.h.ServeHTTP(rec, httptest.NewRequest(method, path+"?wait=10ms", nil))
				if slices.Contains(methods, method) || method == http.MethodHead && slices.Contains(methods, get) {
					if rec.Code == http.StatusMethodNotAllowed || unrouted(rec) {
						t.Errorf("%s %s %s = %d, want it served", tier.name, method, path, rec.Code)
					}
					continue
				}
				var e ErrorResponse
				if rec.Code != http.StatusMethodNotAllowed || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
					t.Errorf("%s %s %s = %d %q, want a JSON 405", tier.name, method, path, rec.Code, rec.Body)
				}
				if got := rec.Header().Get("Allow"); got != allow {
					t.Errorf("%s %s %s: Allow %q, want %q", tier.name, method, path, got, allow)
				}
			}
		}
		for _, path := range []string{"/", "/v1/nope", "/v1/decide/nope", "/v1/shard/rebalance/nope"} {
			for _, method := range []string{get, post} {
				rec := httptest.NewRecorder()
				tier.h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
				if !unrouted(rec) {
					t.Errorf("%s %s %s = %d %q, want a JSON 404", tier.name, method, path, rec.Code, rec.Body)
				}
			}
		}
	}

	const primary = "http://127.0.0.1:1"
	followerSys := core.NewSystem()
	follower := NewServer(followerSys, WithAdmin(), WithFollower(replica.NewPuller(followerSys, primary)))
	for path, methods := range mutationRoutes.with(queryRoutes) {
		for _, method := range methods {
			rec := httptest.NewRecorder()
			follower.ServeHTTP(rec, httptest.NewRequest(method, path+"?x=1", strings.NewReader("{}")))
			if loc := rec.Header().Get("Location"); rec.Code != http.StatusTemporaryRedirect || loc != primary+path+"?x=1" {
				t.Errorf("follower %s %s = %d to %q, want 307 to %s", method, path, rec.Code, loc, primary+path+"?x=1")
			}
		}
	}
	for _, path := range []string{MigrateSubjectsPath, MigrateImportPath, MigrateHandoffPath} {
		rec := httptest.NewRecorder()
		follower.ServeHTTP(rec, httptest.NewRequest(post, path, strings.NewReader("{}")))
		if !unrouted(rec) {
			t.Errorf("follower POST %s = %d %q, want a JSON 404", path, rec.Code, rec.Body)
		}
	}
}
