package pdp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/bundle"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/policy"
	"github.com/aware-home/grbac/internal/replica"
	"github.com/aware-home/grbac/internal/shard"
)

// bundlePolicy grants a subject the serverPolicy never mentions, so a
// successful activation is observable as a decision flip.
const bundlePolicy = `
subject role guest;
object role entertainment-devices;
subject visitor is guest;
object tv is entertainment-devices;
transaction use;
grant guest use entertainment-devices;
`

// testBundleKit holds one trust domain for a test: a keypair plus a
// signer for fresh revisions.
type testBundleKit struct {
	pub  []byte
	sign func(t *testing.T, rev uint64, src string) []byte
}

func newBundleKit(t *testing.T) (*testBundleKit, func() *bundle.Verifier) {
	t.Helper()
	pub, priv, err := bundle.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	kit := &testBundleKit{
		pub: pub,
		sign: func(t *testing.T, rev uint64, src string) []byte {
			t.Helper()
			compiled, err := policy.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			sys := core.NewSystem()
			if err := compiled.Apply(sys, nil); err != nil {
				t.Fatal(err)
			}
			st, _ := sys.Snapshot()
			b := bundle.Build(st, rev, time.Now())
			if err := b.Sign(priv, bundle.KeyID(pub)); err != nil {
				t.Fatal(err)
			}
			raw, err := b.Encode()
			if err != nil {
				t.Fatal(err)
			}
			return raw
		},
	}
	return kit, func() *bundle.Verifier { return bundle.NewVerifier(pub) }
}

func remoteStatus(t *testing.T, err error) int {
	t.Helper()
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	return re.Status
}

func TestBundleActivateOnPrimary(t *testing.T) {
	kit, mkVerifier := newBundleKit(t)
	srv, sys := newTestServer(t, WithBundleVerifier(mkVerifier()))
	client := NewClient(srv.URL, srv.Client())
	ctx := context.Background()

	visit := core.Request{Subject: "visitor", Object: "tv", Transaction: "use"}
	if _, err := sys.Decide(visit); err == nil {
		t.Fatal("visitor already known before activation")
	}

	resp, err := client.PushBundle(ctx, kit.sign(t, 1, bundlePolicy))
	if err != nil {
		t.Fatalf("PushBundle: %v", err)
	}
	if resp.Status != "activated" || resp.Revision != 1 {
		t.Fatalf("response = %+v", resp)
	}
	d, err := sys.Decide(visit)
	if err != nil || !d.Allowed {
		t.Fatalf("post-activation decision = %+v, %v", d, err)
	}
	st, err := client.BundleStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Revision != 1 || st.Admitted != 1 {
		t.Fatalf("status = %+v", st)
	}
}

func TestBundleRejectionsOnPrimary(t *testing.T) {
	kit, mkVerifier := newBundleKit(t)
	srv, sys := newTestServer(t, WithBundleVerifier(mkVerifier()))
	client := NewClient(srv.URL, srv.Client())
	ctx := context.Background()
	genBefore := sys.Generation()

	t.Run("unsigned", func(t *testing.T) {
		st, _ := sys.Snapshot()
		b := bundle.Build(st, 5, time.Now())
		raw, err := b.Encode()
		if err != nil {
			t.Fatal(err)
		}
		_, err = client.PushBundle(ctx, raw)
		if got := remoteStatus(t, err); got != 403 {
			t.Fatalf("unsigned push status = %d, want 403", got)
		}
	})
	t.Run("tampered", func(t *testing.T) {
		raw := kit.sign(t, 5, bundlePolicy)
		tampered := bytes.Replace(raw, []byte(`"visitor"`), []byte(`"intruder"`), 1)
		if bytes.Equal(tampered, raw) {
			t.Fatal("tamper was a no-op")
		}
		_, err := client.PushBundle(ctx, tampered)
		if got := remoteStatus(t, err); got != 403 {
			t.Fatalf("tampered push status = %d, want 403", got)
		}
	})
	// Nothing activated: the policy generation never moved.
	if sys.Generation() != genBefore {
		t.Fatal("rejected bundles mutated the policy")
	}

	t.Run("stale", func(t *testing.T) {
		if _, err := client.PushBundle(ctx, kit.sign(t, 3, bundlePolicy)); err != nil {
			t.Fatal(err)
		}
		_, err := client.PushBundle(ctx, kit.sign(t, 3, bundlePolicy))
		if got := remoteStatus(t, err); got != 409 {
			t.Fatalf("stale push status = %d, want 409", got)
		}
		_, err = client.PushBundle(ctx, kit.sign(t, 2, bundlePolicy))
		if got := remoteStatus(t, err); got != 409 {
			t.Fatalf("rollback push status = %d, want 409", got)
		}
	})
}

func TestBundleOnFollower(t *testing.T) {
	kit, mkVerifier := newBundleKit(t)
	primarySrv, _ := newTestServerWithSource(t)
	followerSys := core.NewSystem()
	f := replica.NewPuller(followerSys, primarySrv.URL,
		replica.WithBackoff(time.Millisecond, 10*time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() { _ = f.Run(ctx) }()
	// Push only after the first sync: a snapshot landing after activation
	// would replace the bundle's policy with the primary's.
	if err := f.WaitSynced(ctx); err != nil {
		t.Fatal(err)
	}
	fsrv := newHTTPServer(t, NewServer(followerSys, WithFollower(f), WithBundleVerifier(mkVerifier())))
	client := NewClient(fsrv.URL, fsrv.Client())

	// Unsigned and tampered bundles are rejected at the follower's own
	// verification gate — not redirected to the primary, not activated.
	raw := kit.sign(t, 1, bundlePolicy)
	tampered := bytes.Replace(raw, []byte(`"visitor"`), []byte(`"intruder"`), 1)
	_, err := client.PushBundle(ctx, tampered)
	if got := remoteStatus(t, err); got != 403 {
		t.Fatalf("tampered push on follower status = %d, want 403", got)
	}
	// A properly signed bundle is verified and activated locally.
	resp, err := client.PushBundle(ctx, raw)
	if err != nil {
		t.Fatalf("PushBundle on follower: %v", err)
	}
	if resp.Revision != 1 {
		t.Fatalf("response = %+v", resp)
	}
	d, err := followerSys.Decide(core.Request{Subject: "visitor", Object: "tv", Transaction: "use"})
	if err != nil || !d.Allowed {
		t.Fatalf("follower post-activation decision = %+v, %v", d, err)
	}
}

func TestBundleOnRouter(t *testing.T) {
	kit, mkVerifier := newBundleKit(t)
	// Each shard gets its own verifier (same trust root) so the router's
	// broadcast re-verifies at every activation point.
	compiled, err := policy.Compile(sharedPolicy)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2
	shardSys := make([]*core.System, n)
	infos := make([]shard.Info, n)
	for i := 0; i < n; i++ {
		sys := core.NewSystem()
		if err := compiled.Apply(sys, nil); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewServer(sys, WithBundleVerifier(mkVerifier())))
		t.Cleanup(srv.Close)
		shardSys[i] = sys
		infos[i] = shard.Info{ID: fmt.Sprintf("s%d", i), Addr: srv.URL}
	}
	m, err := shard.New(0, infos...)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(m, WithRouterBundleVerifier(mkVerifier()))
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	client := NewClient(front.URL, nil)
	ctx := context.Background()

	tampered := bytes.Replace(kit.sign(t, 1, bundlePolicy), []byte(`"visitor"`), []byte(`"intruder"`), 1)
	_, err = client.PushBundle(ctx, tampered)
	if got := remoteStatus(t, err); got != 403 {
		t.Fatalf("tampered push on router status = %d, want 403", got)
	}
	// The router rejected it locally: no shard saw an activation.
	for i, sys := range shardSys {
		if _, err := sys.Decide(core.Request{Subject: "visitor", Object: "tv", Transaction: "use"}); err == nil {
			t.Fatalf("shard %d activated a tampered bundle", i)
		}
	}

	resp, err := client.PushBundle(ctx, kit.sign(t, 1, bundlePolicy))
	if err != nil {
		t.Fatalf("PushBundle via router: %v", err)
	}
	if resp.Revision != 1 {
		t.Fatalf("response = %+v", resp)
	}
	for i, sys := range shardSys {
		d, err := sys.Decide(core.Request{Subject: "visitor", Object: "tv", Transaction: "use"})
		if err != nil || !d.Allowed {
			t.Fatalf("shard %d post-activation decision = %+v, %v", i, d, err)
		}
	}
	st, err := client.BundleStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Revision != 1 {
		t.Fatalf("router bundle status = %+v", st)
	}
}
