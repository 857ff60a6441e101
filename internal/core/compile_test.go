package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/aware-home/grbac/internal/guardtest"
)

// benchShapedSystem builds the shape of the repository benchmark's policy
// (bench/gen.go) with n subjects: 32 subject roles in a depth-4 hierarchy,
// 16 object roles, 64 objects, 8 transactions, 8 environment roles and 256
// permissions, a tenth of them denials and an eighth for any environment.
// Each subject holds one or two roles. Subject u0000 has one open session,
// whose activation of sr02 the compile benchmark toggles.
func benchShapedSystem(tb testing.TB, n int) (*System, SessionID) {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	var st State
	name := func(prefix string, i int) RoleID { return RoleID(fmt.Sprintf("%s%02d", prefix, i)) }
	levels := []int{2, 4, 8, 8, 10}
	for level, start := 0, 0; level < len(levels); start, level = start+levels[level], level+1 {
		for k := 0; k < levels[level]; k++ {
			r := Role{ID: name("sr", start+k), Kind: SubjectRole}
			if level > 0 {
				r.Parents = []RoleID{name("sr", start-levels[level-1]+k%levels[level-1])}
			}
			st.SubjectRoles = append(st.SubjectRoles, r)
		}
	}
	for i := 0; i < 16; i++ {
		r := Role{ID: name("or", i), Kind: ObjectRole}
		if i >= 4 {
			r.Parents = []RoleID{name("or", i%4)}
		}
		st.ObjectRoles = append(st.ObjectRoles, r)
	}
	for i := 0; i < 8; i++ {
		st.EnvironmentRoles = append(st.EnvironmentRoles, Role{ID: name("env", i), Kind: EnvironmentRole})
		st.Transactions = append(st.Transactions, SimpleTransaction(fmt.Sprintf("tx%d", i)))
	}
	for i := 0; i < n; i++ {
		sub := SubjectState{ID: SubjectID(fmt.Sprintf("u%04d", i)), Roles: []RoleID{name("sr", rng.Intn(32))}}
		if i == 0 {
			sub.Roles = []RoleID{name("sr", 2)}
		} else if r2 := name("sr", rng.Intn(32)); rng.Intn(10) < 3 && r2 != sub.Roles[0] {
			sub.Roles = append(sub.Roles, r2)
		}
		st.Subjects = append(st.Subjects, sub)
	}
	for i := 0; i < 64; i++ {
		st.Objects = append(st.Objects, ObjectState{ID: ObjectID(fmt.Sprintf("o%02d", i)), Roles: []RoleID{name("or", rng.Intn(16))}})
	}
	for i := 0; i < 256; i++ {
		p := Permission{
			Subject: name("sr", rng.Intn(32)), Object: name("or", rng.Intn(16)),
			Environment: name("env", rng.Intn(8)), Transaction: TransactionID(fmt.Sprintf("tx%d", i%8)),
			Effect: Permit,
		}
		if i%8 == 0 {
			p.Environment = AnyEnvironment
		}
		if i%10 == 0 {
			p.Effect = Deny
		}
		st.Permissions = append(st.Permissions, p)
	}
	s := NewSystem()
	if err := s.Import(st); err != nil {
		tb.Fatal(err)
	}
	sid, err := s.CreateSession("u0000")
	if err != nil {
		tb.Fatal(err)
	}
	return s, sid
}

// churnStep is one iteration of the compile benchmark: a session change,
// which retires the snapshot, then a Decide, which recompiles it.
func churnStep(tb testing.TB, s *System, sid SessionID, i int) {
	var err error
	if i%2 == 0 {
		err = s.ActivateRole(sid, "sr02")
	} else {
		err = s.DeactivateRole(sid, "sr02")
	}
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Decide(Request{Subject: "u0001", Object: "o00", Transaction: "tx0", Environment: []RoleID{"env0"}}); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkSnapshotCompile times the recompile a session change costs on
// the benchmark's policy shape, at 64 subjects and at the benchmark's 4096.
func BenchmarkSnapshotCompile(b *testing.B) {
	for _, n := range []int{64, 4096} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			s, sid := benchShapedSystem(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				churnStep(b, s, sid, i)
			}
		})
	}
}

// TestGuardCompileAllocsFlatInSubjects is guard 18: the allocations of one
// snapshot compile at 4096 subjects are at most those at 64 subjects plus
// maxExtraAllocs. Every subject, session and object bitset is cut from one
// arena, so only the subject index map grows with the subject count.
func TestGuardCompileAllocsFlatInSubjects(t *testing.T) {
	guardtest.SkipUnderRace(t)
	const maxExtraAllocs = 16
	compileAllocs := func(n int) float64 {
		s, _ := benchShapedSystem(t, n)
		return testing.AllocsPerRun(20, func() {
			s.mu.RLock()
			s.compileSnapshotLocked()
			s.mu.RUnlock()
		})
	}
	small, large := compileAllocs(64), compileAllocs(4096)
	t.Logf("one compile: %.0f allocs at 64 subjects, %.0f at 4096", small, large)
	if large > small+maxExtraAllocs {
		t.Errorf("a compile at 4096 subjects allocates %.0f objects, over %.0f at 64 subjects + %d",
			large, small, maxExtraAllocs)
	}
}
