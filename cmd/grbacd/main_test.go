package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/pdp"
	"github.com/aware-home/grbac/internal/replica"
	"github.com/aware-home/grbac/internal/shard"
	"github.com/aware-home/grbac/internal/store"
)

func TestLoadSystemBuiltin(t *testing.T) {
	sys, engine, err := loadSystem("", "")
	if err != nil {
		t.Fatal(err)
	}
	if !sys.HasSubject("alice") || !sys.HasObject("tv") {
		t.Fatal("built-in Aware Home policy not loaded")
	}
	if engine == nil {
		t.Fatal("built-in policy must come with its environment engine")
	}
}

func TestLoadSystemPolicyFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.policy")
	src := `
subject role r;
object role o;
subject u is r;
object x is o;
transaction t;
grant r t o;
`
	if err := os.WriteFile(path, []byte(src), 0o600); err != nil {
		t.Fatal(err)
	}
	sys, engine, err := loadSystem(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if engine == nil {
		t.Fatal("compiled policy must come with its environment engine")
	}
	ok, err := sys.CheckAccess(core.Request{Subject: "u", Object: "x",
		Transaction: "t", Environment: []core.RoleID{}})
	if err != nil || !ok {
		t.Fatalf("policy file system = %v, %v", ok, err)
	}
}

func TestLoadSystemPolicyFileErrors(t *testing.T) {
	if _, _, err := loadSystem(filepath.Join(t.TempDir(), "missing.policy"), ""); err == nil {
		t.Fatal("missing policy file loaded")
	}
	bad := filepath.Join(t.TempDir(), "bad.policy")
	if err := os.WriteFile(bad, []byte("nonsense;"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadSystem(bad, ""); err == nil {
		t.Fatal("bad policy compiled")
	}
}

func TestLoadSystemSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	src := core.NewSystem()
	if err := src.AddSubject("u"); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(path, src, time.Now()); err != nil {
		t.Fatal(err)
	}
	sys, engine, err := loadSystem("", path)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.HasSubject("u") {
		t.Fatal("snapshot not restored")
	}
	if engine != nil {
		t.Fatal("snapshots carry no environment engine")
	}
	if _, _, err := loadSystem("", filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing snapshot loaded")
	}
}

// TestDrainEndsParkedWatches parks a replica watch on a shard's server
// and a shard-map watch on a router's, each for 20 s, and shuts the
// server down: Shutdown returns at once, and the watcher gets the feed's
// normal "nothing new" reply, 200 with the version it waited past.
func TestDrainEndsParkedWatches(t *testing.T) {
	sys := core.NewSystem()
	src := replica.NewSource(sys)
	m, err := shard.New(0, shard.Info{ID: "s0", Addr: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := pdp.NewRouter(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		handler http.Handler
		path    string
		after   uint64
		version func(body []byte) (uint64, error)
	}{
		{"replica watch", pdp.NewServer(sys, pdp.WithReplicaSource(src)),
			fmt.Sprintf("%s?epoch=%s&after=%d&wait=20s", replica.WatchPath, src.Epoch(), sys.Generation()),
			sys.Generation(), func(body []byte) (uint64, error) {
				var w replica.WatchResponse
				err := json.Unmarshal(body, &w)
				return w.Generation, err
			}},
		{"shard map watch", rt,
			fmt.Sprintf("%s?after=%d&wait=20s", pdp.ShardMapWatchPath, m.Wire().Seq()),
			m.Wire().Seq(), func(body []byte) (uint64, error) {
				var w shard.Wire
				err := json.Unmarshal(body, &w)
				return w.Seq(), err
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := newHTTPServer("", tc.handler)
			active := make(chan struct{}, 1)
			srv.ConnState = func(_ net.Conn, st http.ConnState) {
				if st == http.StateActive {
					select {
					case active <- struct{}{}:
					default:
					}
				}
			}
			go func() { _ = srv.Serve(ln) }()
			type reply struct {
				status  int
				version uint64
				err     error
			}
			got := make(chan reply, 1)
			go func() {
				resp, err := http.Get("http://" + ln.Addr().String() + tc.path)
				if err != nil {
					got <- reply{err: err}
					return
				}
				defer resp.Body.Close()
				var body json.RawMessage
				err = json.NewDecoder(resp.Body).Decode(&body)
				if err == nil {
					var v uint64
					v, err = tc.version(body)
					got <- reply{status: resp.StatusCode, version: v, err: err}
					return
				}
				got <- reply{status: resp.StatusCode, err: err}
			}()
			<-active
			time.Sleep(50 * time.Millisecond) // let the handler park
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			start := time.Now()
			if err := srv.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("Shutdown took %v with a parked watch, want under 1s", d)
			}
			r := <-got
			if r.err != nil || r.status != http.StatusOK || r.version != tc.after {
				t.Fatalf("parked watch got %d version %d (%v), want 200 version %d", r.status, r.version, r.err, tc.after)
			}
		})
	}
}
