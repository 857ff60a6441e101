package faults

import (
	"testing"

	"github.com/aware-home/grbac/internal/guardtest"
)

// TestGuardDisabledInject is guard 7: with no fault plan active, the hook
// every instrumented hot path calls is one atomic load and a nil check. It
// must allocate nothing and cost at most 100 ns, so the hooks can stay
// compiled into production builds (and into BenchmarkE17ParallelDecide's
// mediation path) at no measurable overhead. Run with -v for the ns/op.
func TestGuardDisabledInject(t *testing.T) {
	Deactivate()
	guardtest.ZeroCost(t, 100, func() {
		if err := Inject(PDPDecide); err != nil {
			t.Error(err)
		}
	})
}

// BenchmarkDisabledInjectParallel is the contended variant: the disabled
// hook must not serialize concurrent mediation goroutines.
func BenchmarkDisabledInjectParallel(b *testing.B) {
	Deactivate()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := Inject(PDPDecide); err != nil {
				b.Fatal(err)
			}
		}
	})
}
