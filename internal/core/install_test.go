package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"github.com/aware-home/grbac/internal/guardtest"
)

// TestImportRolesErrorParity holds importRoles, which inserts every role
// and edge before deriving closures once, to the errors the role-by-role,
// edge-by-edge insertion through roleGraph.add and addParent gave: the
// same sentinel and the same text. The expected values were taken from
// that insertion's output.
func TestImportRolesErrorParity(t *testing.T) {
	sr := func(id RoleID, parents ...RoleID) Role { return Role{ID: id, Kind: SubjectRole, Parents: parents} }
	tests := []struct {
		name  string
		roles []Role
		kind  error
		text  string
	}{
		{"empty ID", []Role{sr("a"), sr("")}, ErrInvalid,
			`grbac: invalid argument: empty role ID`},
		{"duplicate ID", []Role{sr("a"), sr("b"), sr("a")}, ErrExists,
			`grbac: already exists: subject role "a"`},
		{"kind mismatch", []Role{sr("a"), {ID: "b", Kind: ObjectRole}}, ErrKindMismatch,
			`grbac: role kind mismatch: role "b" has kind object, want subject`},
		{"unknown parent", []Role{sr("a", "ghost")}, ErrNotFound,
			`grbac: not found: subject role "ghost"`},
		{"self parent", []Role{sr("a"), sr("b", "b")}, ErrCycle,
			`grbac: role hierarchy cycle: subject role "b" -> "b"`},
		{"two-cycle", []Role{sr("a", "b"), sr("b", "a")}, ErrCycle,
			`grbac: role hierarchy cycle: subject role "b" -> "a"`},
		{"three-cycle", []Role{sr("a", "c"), sr("b", "a"), sr("c", "b")}, ErrCycle,
			`grbac: role hierarchy cycle: subject role "c" -> "b"`},
		{"repeated edge", []Role{sr("a"), sr("b", "a", "a")}, nil, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := NewSystem()
			err := s.Import(State{SubjectRoles: tt.roles})
			if tt.kind == nil {
				if err != nil {
					t.Fatalf("Import: %v", err)
				}
				want := []Role{sr("a"), sr("b", "a")}
				if got := s.Export().SubjectRoles; !reflect.DeepEqual(got, want) {
					t.Fatalf("roles = %+v, want %+v", got, want)
				}
				return
			}
			if !errors.Is(err, tt.kind) || err.Error() != tt.text {
				t.Fatalf("Import error = %v, want %q (%v)", err, tt.text, tt.kind)
			}
		})
	}
}

// chainState is a policy whose only content is one subject-role chain of
// n roles, c000 ← c001 ← … , each role the parent of the next.
func chainState(n int) State {
	var st State
	for i := 0; i < n; i++ {
		r := Role{ID: RoleID(fmt.Sprintf("c%03d", i)), Kind: SubjectRole}
		if i > 0 {
			r.Parents = []RoleID{RoleID(fmt.Sprintf("c%03d", i-1))}
		}
		st.SubjectRoles = append(st.SubjectRoles, r)
	}
	return st
}

// installCost returns the mean allocations and bytes allocated of one call
// of f over runs calls, after one warm-up call, on one P as
// testing.AllocsPerRun counts them.
func installCost(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestGuardSnapshotInstallCost is guard 19: installing a full policy
// snapshot costs one copy. A journal-less Replace on the benchmark's
// policy shape allocates at most what a fresh Import does plus
// maxExtraAllocs objects and maxExtraBytes bytes, so neither it nor its
// scratch Import exports a policy nobody reads (an export cut from one
// backing array is some 60 objects but about 290 KB, so only the bytes
// show it); and importing a 256-role chain allocates at most
// maxChainGrowth times what a 128-role chain does, so closures are
// derived once per import rather than once per role and per edge.
func TestGuardSnapshotInstallCost(t *testing.T) {
	guardtest.SkipUnderRace(t)
	const maxExtraAllocs, maxExtraBytes, maxChainGrowth = 64, 16 << 10, 3

	s, _ := benchShapedSystem(t, 4096)
	st := s.Export()
	imp, impBytes := installCost(5, func() {
		if err := NewSystem().Import(st); err != nil {
			t.Fatal(err)
		}
	})
	rep, repBytes := installCost(5, func() {
		if err := s.Replace(st); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("4096 subjects: fresh Import %.0f allocs, %.0f B; journal-less Replace %.0f allocs, %.0f B",
		imp, impBytes, rep, repBytes)
	if rep > imp+maxExtraAllocs {
		t.Errorf("a journal-less Replace allocates %.0f objects, over a fresh Import's %.0f + %d",
			rep, imp, maxExtraAllocs)
	}
	if repBytes > impBytes+maxExtraBytes {
		t.Errorf("a journal-less Replace allocates %.0f B, over a fresh Import's %.0f B + %d",
			repBytes, impBytes, maxExtraBytes)
	}

	chain := func(n int) float64 {
		st := chainState(n)
		allocs, _ := installCost(3, func() {
			if err := NewSystem().Import(st); err != nil {
				t.Fatal(err)
			}
		})
		return allocs
	}
	short, long := chain(128), chain(256)
	t.Logf("chain Import: %.0f allocs at 128 roles, %.0f at 256", short, long)
	if long > maxChainGrowth*short {
		t.Errorf("a 256-role chain imports with %.0f allocs, over %d × a 128-role chain's %.0f",
			long, maxChainGrowth, short)
	}
}
