package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// hotPolicy builds a policy shaped like the benchmark's hot set: 64
// subjects over 8 subject roles, 32 objects over 4 object roles, 4
// transactions and 8 environment roles, with one permit per (subject role,
// object role) pair under one environment role.
func hotPolicy(tb testing.TB) *System {
	tb.Helper()
	s := NewSystem()
	must := func(err error) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		must(s.AddRole(Role{ID: RoleID(fmt.Sprintf("sr-%02d", i)), Kind: SubjectRole}))
		must(s.AddRole(Role{ID: RoleID(fmt.Sprintf("env-%02d", i)), Kind: EnvironmentRole}))
	}
	for i := 0; i < 4; i++ {
		must(s.AddRole(Role{ID: RoleID(fmt.Sprintf("or-%02d", i)), Kind: ObjectRole}))
		must(s.AddTransaction(SimpleTransaction(fmt.Sprintf("tx-%02d", i))))
	}
	for i := 0; i < 64; i++ {
		sub := SubjectID(fmt.Sprintf("subject-%03d", i))
		must(s.AddSubject(sub))
		must(s.AssignSubjectRole(sub, RoleID(fmt.Sprintf("sr-%02d", i%8))))
	}
	for i := 0; i < 32; i++ {
		obj := ObjectID(fmt.Sprintf("object-%03d", i))
		must(s.AddObject(obj))
		must(s.AssignObjectRole(obj, RoleID(fmt.Sprintf("or-%02d", i%4))))
	}
	for sr := 0; sr < 8; sr++ {
		for or := 0; or < 4; or++ {
			must(s.Grant(Permission{
				Subject:     RoleID(fmt.Sprintf("sr-%02d", sr)),
				Object:      RoleID(fmt.Sprintf("or-%02d", or)),
				Environment: RoleID(fmt.Sprintf("env-%02d", (sr+or)%8)),
				Transaction: TransactionID(fmt.Sprintf("tx-%02d", (sr*or)%4)),
				Effect:      Permit,
			}))
		}
	}
	return s
}

// hotRequests returns n distinct requests against hotPolicy, each naming
// two environment roles; every odd request lists them in descending order,
// so half the set reaches the cache unsorted.
func hotRequests(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		e1, e2 := i%8, (i/8+1+i%7)%8
		if e1 == e2 {
			e2 = (e2 + 1) % 8
		}
		lo, hi := min(e1, e2), max(e1, e2)
		env := []RoleID{RoleID(fmt.Sprintf("env-%02d", lo)), RoleID(fmt.Sprintf("env-%02d", hi))}
		if i%2 == 1 {
			env[0], env[1] = env[1], env[0]
		}
		reqs[i] = Request{
			Subject:     SubjectID(fmt.Sprintf("subject-%03d", i%64)),
			Object:      ObjectID(fmt.Sprintf("object-%03d", (i/64)%32)),
			Transaction: TransactionID(fmt.Sprintf("tx-%02d", (i/2048+i)%4)),
			Environment: env,
		}
	}
	return reqs
}

// BenchmarkCheckAccessHotParallel measures warm CheckAccess hits from
// every P at once: "one" has every goroutine ask the same request, "set"
// has each walk a 2048-request hot set from its own offset. Both are pure
// cache reads, so what differs between them and a single-goroutine run is
// what the deciders share.
func BenchmarkCheckAccessHotParallel(b *testing.B) {
	for _, bc := range []struct {
		name string
		reqs []Request
	}{
		{"one", hotRequests(1)},
		{"set", hotRequests(2048)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := hotPolicy(b)
			for _, req := range bc.reqs {
				if _, err := s.CheckAccess(req); err != nil {
					b.Fatal(err)
				}
			}
			var offset atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(offset.Add(997))
				for pb.Next() {
					if _, err := s.CheckAccess(bc.reqs[i%len(bc.reqs)]); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// TestStatsExactUnderConcurrentCheckAccess pins that the per-goroutine
// counter stripes lose nothing: 8 goroutines share one hot request and
// also ask requests only they ask, and hits plus misses must equal the
// number of calls exactly.
func TestStatsExactUnderConcurrentCheckAccess(t *testing.T) {
	s := hotPolicy(t)
	reqs := hotRequests(64)
	const goroutines, perGoroutine = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				req := reqs[0]
				if i%2 == 1 {
					req = reqs[1+g*7+i%7]
				}
				if _, err := s.CheckAccess(req); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if got := st.DecisionHits + st.DecisionMisses; got != goroutines*perGoroutine {
		t.Fatalf("hits %d + misses %d = %d, want %d calls", st.DecisionHits, st.DecisionMisses, got, goroutines*perGoroutine)
	}
	if st.DecisionMisses < 1+goroutines*7 {
		t.Fatalf("misses %d, want at least one per distinct request (%d)", st.DecisionMisses, 1+goroutines*7)
	}
}
