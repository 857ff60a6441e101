package experiments

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/pdp"
	"github.com/aware-home/grbac/internal/policy"
	"github.com/aware-home/grbac/internal/replica"
	"github.com/aware-home/grbac/sdk"
)

// embeddedPolicy is the Aware Home entertainment slice used for the
// embedded-vs-remote mediation comparison: one grant, one locally
// evaluable request.
const embeddedPolicy = `
subject role family-member;
subject role child extends family-member;
object role entertainment-devices;
env role weekday-free-time;
subject alice is child;
object tv is entertainment-devices;
transaction use;
grant child use entertainment-devices when weekday-free-time;
`

// RunE21 measures embedded mediation cost: the same warm CheckAccess
// workload served in-process by the SDK's replicated snapshot versus
// over the HTTP round trip to the primary PDP. The embedded path is the
// server's own zero-alloc cache hit running in the caller's address
// space (allocation profile verified by BenchmarkE21EmbeddedMediation
// in sdk/bench_test.go and enforced by benchguard guard 10), so the gap
// between the two rows is the per-decision cost the SDK removes from a
// high-QPS enforcement point.
func RunE21(w io.Writer) error {
	compiled, err := policy.Compile(embeddedPolicy)
	if err != nil {
		return err
	}
	sys := core.NewSystem()
	if err := compiled.Apply(sys, nil); err != nil {
		return err
	}
	srv := httptest.NewServer(pdp.NewServer(sys,
		pdp.WithReplicaSource(replica.NewSource(sys))))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := sdk.New(ctx, srv.URL, sdk.WithLogger(log.New(io.Discard, "", 0)))
	if err != nil {
		return err
	}
	defer c.Close()

	req := core.Request{
		Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []core.RoleID{"weekday-free-time"},
	}
	bg := context.Background()
	if ok, err := c.CheckAccess(bg, req); err != nil || !ok {
		return fmt.Errorf("embedded warmup = %v, %v; want permit", ok, err)
	}
	rc := pdp.NewClient(srv.URL, srv.Client())
	wreq := pdp.FromCoreRequest(req)
	if ok, err := rc.Check(bg, wreq); err != nil || !ok {
		return fmt.Errorf("remote warmup = %v, %v; want permit", ok, err)
	}

	// The embedded path runs ~100x more iterations so both rows measure
	// steady state rather than timer granularity.
	const embOps, remOps = 200000, 2000
	embPS, embPer := Throughput(embOps, func() { _, _ = c.CheckAccess(bg, req) })
	remPS, remPer := Throughput(remOps, func() { _, _ = rc.Check(bg, wreq) })

	fmt.Fprintln(w, "warm CheckAccess, embedded SDK vs remote PDP over HTTP:")
	fmt.Fprintln(w, "path      ops     per-op        dec/s")
	fmt.Fprintf(w, "embedded  %-6d  %-12v  %.0f\n", embOps, embPer, embPS)
	fmt.Fprintf(w, "remote    %-6d  %-12v  %.0f\n", remOps, remPer, remPS)
	if remPer > 0 {
		fmt.Fprintf(w, "embedded speedup over HTTP round trip: x%.1f\n",
			float64(remPer)/float64(embPer))
	}
	st := c.Stats()
	fmt.Fprintf(w, "all %d embedded decisions served locally at generation %d (remote fallbacks: %d)\n",
		st.LocalDecisions, st.Generation, st.RemoteFallbacks)
	return nil
}
