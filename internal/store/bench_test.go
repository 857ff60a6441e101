package store

import (
	"testing"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/guardtest"
)

// TestGuardDurableWarmRead is guard 9: the journal engages only on
// mutation, so a warm decision on a system behind the durable store must
// allocate exactly as much as on a plain in-memory one, and cost at most
// maxDurableRatio times as much. The ratio is generous because both sides
// sit in the low hundreds of ns, where scheduler noise is proportionally
// large. Run with -v for the two measurements.
func TestGuardDurableWarmRead(t *testing.T) {
	guardtest.SkipUnderRace(t)
	const maxDurableRatio = 3
	req := core.Request{Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []core.RoleID{"weekday-free-time"}}
	seed := buildSystem(t).Export()
	dur, err := Open(t.TempDir(), WithSeedState(&seed), quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()

	measure := func(sys *core.System) (allocs, ns float64) {
		if ok, err := sys.CheckAccess(req); err != nil || !ok {
			t.Fatalf("warmup decision = %v, %v; want permit", ok, err)
		}
		check := func() {
			if ok, _ := sys.CheckAccess(req); !ok {
				t.Error("warm decision flipped to deny")
			}
		}
		allocs = testing.AllocsPerRun(1000, check)
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				check()
			}
		})
		return allocs, float64(r.T.Nanoseconds()) / float64(r.N)
	}
	memAllocs, memNs := measure(buildSystem(t))
	durAllocs, durNs := measure(dur.System())
	t.Logf("warm CheckAccess: memory %.1f ns/op %.0f allocs/op, durable %.1f ns/op %.0f allocs/op",
		memNs, memAllocs, durNs, durAllocs)
	if durAllocs != memAllocs {
		t.Errorf("durable warm read allocates differently (%.0f vs %.0f allocs/op)", durAllocs, memAllocs)
	}
	if durNs > memNs*maxDurableRatio {
		t.Errorf("durable warm read %.1f ns/op exceeds ×%d of in-memory %.1f ns/op", durNs, maxDurableRatio, memNs)
	}
}
