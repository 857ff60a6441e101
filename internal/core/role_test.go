package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustAdd(t *testing.T, g *roleGraph, id RoleID, parents ...RoleID) {
	t.Helper()
	if err := g.add(Role{ID: id, Kind: g.kind, Parents: parents}); err != nil {
		t.Fatalf("add(%q): %v", id, err)
	}
}

// figure2Graph builds the exact subject role hierarchy of the paper's
// Figure 2.
func figure2Graph(t *testing.T) *roleGraph {
	t.Helper()
	g := newRoleGraph(SubjectRole)
	mustAdd(t, g, "home-user")
	mustAdd(t, g, "family-member", "home-user")
	mustAdd(t, g, "authorized-guest", "home-user")
	mustAdd(t, g, "parent", "family-member")
	mustAdd(t, g, "child", "family-member")
	mustAdd(t, g, "service-agent", "authorized-guest")
	mustAdd(t, g, "dishwasher-repair-tech", "service-agent")
	return g
}

func TestRoleGraphAdd(t *testing.T) {
	tests := []struct {
		name    string
		role    Role
		wantErr error
	}{
		{"ok root", Role{ID: "a", Kind: SubjectRole}, nil},
		{"empty ID", Role{ID: "", Kind: SubjectRole}, ErrInvalid},
		{"self parent", Role{ID: "b", Kind: SubjectRole, Parents: []RoleID{"b"}}, ErrCycle},
		{"unknown parent", Role{ID: "c", Kind: SubjectRole, Parents: []RoleID{"nope"}}, ErrNotFound},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := newRoleGraph(SubjectRole)
			err := g.add(tt.role)
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("add(%v) error = %v, want %v", tt.role, err, tt.wantErr)
			}
		})
	}
}

func TestRoleGraphDuplicate(t *testing.T) {
	g := newRoleGraph(ObjectRole)
	mustAdd(t, g, "media")
	if err := g.add(Role{ID: "media", Kind: ObjectRole}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate add error = %v, want ErrExists", err)
	}
}

func TestRoleGraphCycleRejected(t *testing.T) {
	g := newRoleGraph(SubjectRole)
	mustAdd(t, g, "a")
	mustAdd(t, g, "b", "a")
	mustAdd(t, g, "c", "b")
	// a -> c would close the cycle a <- b <- c <- a.
	if err := g.addParent("a", "c"); !errors.Is(err, ErrCycle) {
		t.Fatalf("addParent(a,c) error = %v, want ErrCycle", err)
	}
	// Two-node cycle.
	if err := g.addParent("a", "b"); !errors.Is(err, ErrCycle) {
		t.Fatalf("addParent(a,b) error = %v, want ErrCycle", err)
	}
	// Diamond is fine (DAG, not tree).
	mustAdd(t, g, "d", "a")
	if err := g.addParent("c", "d"); err != nil {
		t.Fatalf("diamond edge rejected: %v", err)
	}
}

func TestRoleGraphAddParentIdempotent(t *testing.T) {
	g := newRoleGraph(SubjectRole)
	mustAdd(t, g, "p")
	mustAdd(t, g, "c", "p")
	if err := g.addParent("c", "p"); err != nil {
		t.Fatalf("re-adding existing edge: %v", err)
	}
	r, _ := g.get("c")
	if len(r.Parents) != 1 {
		t.Fatalf("parents duplicated: %v", r.Parents)
	}
}

func TestRoleGraphRemoveParent(t *testing.T) {
	g := figure2Graph(t)
	if err := g.removeParent("child", "family-member"); err != nil {
		t.Fatalf("removeParent: %v", err)
	}
	if got := g.ancestors("child"); len(got) != 0 {
		t.Fatalf("child still has ancestors %v after unlink", got)
	}
	if err := g.removeParent("child", "family-member"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double removeParent error = %v, want ErrNotFound", err)
	}
	if err := g.removeParent("ghost", "family-member"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("removeParent(ghost) error = %v, want ErrNotFound", err)
	}
}

func TestRoleGraphRemoveCleansEdges(t *testing.T) {
	g := figure2Graph(t)
	if err := g.remove("family-member"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	r, _ := g.get("child")
	if len(r.Parents) != 0 {
		t.Fatalf("child retains dangling parent %v", r.Parents)
	}
	if err := g.remove("family-member"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove error = %v, want ErrNotFound", err)
	}
}

func TestFigure2Closure(t *testing.T) {
	g := figure2Graph(t)
	tests := []struct {
		seed RoleID
		want []RoleID
	}{
		{"child", []RoleID{"child", "family-member", "home-user"}},
		{"parent", []RoleID{"family-member", "home-user", "parent"}},
		{"dishwasher-repair-tech", []RoleID{"authorized-guest", "dishwasher-repair-tech", "home-user", "service-agent"}},
		{"home-user", []RoleID{"home-user"}},
	}
	for _, tt := range tests {
		t.Run(string(tt.seed), func(t *testing.T) {
			got := sortedRoleIDs(g.closure([]RoleID{tt.seed}))
			if !reflect.DeepEqual(got, tt.want) {
				t.Fatalf("closure(%q) = %v, want %v", tt.seed, got, tt.want)
			}
		})
	}
}

// TestFigure2RootGrantCoversHousehold is experiment E2's inheritance
// check: one grant on Figure 2's root, home-user, reaches all five
// household members through the hierarchy.
func TestFigure2RootGrantCoversHousehold(t *testing.T) {
	s := newHomeSystem(t)
	for _, err := range []error{
		s.AddRole(Role{ID: "house-facilities", Kind: ObjectRole}),
		s.AddObject("front-door"),
		s.AssignObjectRole("front-door", "house-facilities"),
		s.AddTransaction(SimpleTransaction("open")),
		s.Grant(Permission{Subject: "home-user", Object: "house-facilities",
			Environment: AnyEnvironment, Transaction: "open", Effect: Permit}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	covered := 0
	for _, sub := range s.Subjects() {
		ok, err := s.CheckAccess(Request{Subject: sub, Object: "front-door",
			Transaction: "open", Environment: []RoleID{}})
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			covered++
		}
	}
	if covered != 5 || len(s.Subjects()) != 5 {
		t.Fatalf("one grant on home-user covers %d of %d subjects, want 5 of 5", covered, len(s.Subjects()))
	}
}

func TestFigure2AncestorsDescendants(t *testing.T) {
	g := figure2Graph(t)
	if got, want := g.ancestors("child"), []RoleID{"family-member", "home-user"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ancestors(child) = %v, want %v", got, want)
	}
	wantDesc := []RoleID{"authorized-guest", "child", "dishwasher-repair-tech", "family-member", "parent", "service-agent"}
	if got := g.descendants("home-user"); !reflect.DeepEqual(got, wantDesc) {
		t.Fatalf("descendants(home-user) = %v, want %v", got, wantDesc)
	}
	if got := g.descendants("child"); len(got) != 0 {
		t.Fatalf("descendants(child) = %v, want none", got)
	}
}

func TestFigure2Depth(t *testing.T) {
	g := figure2Graph(t)
	tests := []struct {
		id   RoleID
		want int
	}{
		{"home-user", 0},
		{"family-member", 1},
		{"child", 2},
		{"dishwasher-repair-tech", 3},
		{"unknown", 0},
	}
	for _, tt := range tests {
		if got := g.depth(tt.id); got != tt.want {
			t.Errorf("depth(%q) = %d, want %d", tt.id, got, tt.want)
		}
	}
}

func TestWeightedClosureTakesMax(t *testing.T) {
	g := figure2Graph(t)
	// Two paths assert family-member: directly at 0.60 and via child at 0.98.
	out := g.weightedClosure(map[RoleID]float64{
		"child":         0.98,
		"family-member": 0.60,
	})
	if got := out["family-member"]; got != 0.98 {
		t.Fatalf("family-member confidence = %v, want 0.98", got)
	}
	if got := out["home-user"]; got != 0.98 {
		t.Fatalf("home-user confidence = %v, want 0.98", got)
	}
	if got := out["child"]; got != 0.98 {
		t.Fatalf("child confidence = %v, want 0.98", got)
	}
	if _, ok := out["parent"]; ok {
		t.Fatal("confidence leaked downward to parent role")
	}
}

func TestClosureUnknownSeedIncluded(t *testing.T) {
	g := figure2Graph(t)
	out := g.closure([]RoleID{"ghost"})
	if !out["ghost"] || len(out) != 1 {
		t.Fatalf("closure(ghost) = %v, want just ghost", out)
	}
}

// randomDAG builds a random role DAG with n roles where each role may have
// parents only among earlier-created roles, guaranteeing acyclicity.
func randomDAG(rng *rand.Rand, n int) *roleGraph {
	g := newRoleGraph(SubjectRole)
	ids := make([]RoleID, 0, n)
	for i := 0; i < n; i++ {
		id := RoleID(fmt.Sprintf("r%d", i))
		var parents []RoleID
		for _, cand := range ids {
			if rng.Intn(4) == 0 {
				parents = append(parents, cand)
			}
		}
		if err := g.add(Role{ID: id, Kind: SubjectRole, Parents: parents}); err != nil {
			panic(err)
		}
		ids = append(ids, id)
	}
	return g
}

// TestClosureProperties checks, over random DAGs, that the closure is
// (1) extensive: seeds ⊆ closure; (2) idempotent; (3) monotone in seeds.
func TestClosureProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(30))
		var seeds []RoleID
		for id := range g.roles {
			if rng.Intn(3) == 0 {
				seeds = append(seeds, id)
			}
		}
		cl := g.closure(seeds)
		for _, s := range seeds { // extensive
			if !cl[s] {
				return false
			}
		}
		again := g.closure(sortedRoleIDs(cl)) // idempotent
		if !reflect.DeepEqual(cl, again) {
			return false
		}
		if len(seeds) > 0 { // monotone: closure of subset ⊆ closure
			sub := g.closure(seeds[:len(seeds)/2])
			for id := range sub {
				if !cl[id] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestWeightedClosureProperty: for every role in the weighted closure, its
// confidence equals the max seed confidence over seeds that reach it.
func TestWeightedClosureProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(20))
		seeds := make(map[RoleID]float64)
		for id := range g.roles {
			if rng.Intn(2) == 0 {
				seeds[id] = float64(rng.Intn(101)) / 100
			}
		}
		out := g.weightedClosure(seeds)
		for target, got := range out {
			want := 0.0
			for s, c := range seeds {
				if g.reaches(s, target) && c > want {
					want = c
				}
			}
			if got != want {
				return false
			}
		}
		// And nothing unreachable appears.
		for target := range out {
			reachable := false
			for s := range seeds {
				if g.reaches(s, target) {
					reachable = true
					break
				}
			}
			if !reachable {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestDepthProperty: depth(child) > depth(parent) for every edge.
func TestDepthProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(25))
		for _, r := range g.roles {
			for _, p := range r.Parents {
				if g.depth(r.ID) <= g.depth(p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestRoleCloneIsDeep(t *testing.T) {
	r := Role{ID: "a", Kind: SubjectRole, Parents: []RoleID{"p"}}
	cp := r.clone()
	cp.Parents[0] = "mutated"
	if r.Parents[0] != "p" {
		t.Fatal("clone shares Parents backing array")
	}
}

func TestRoleKindString(t *testing.T) {
	tests := []struct {
		kind RoleKind
		want string
	}{
		{SubjectRole, "subject"},
		{ObjectRole, "object"},
		{EnvironmentRole, "environment"},
		{RoleKind(0), "unknown"},
		{RoleKind(99), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("RoleKind(%d).String() = %q, want %q", tt.kind, got, tt.want)
		}
	}
	if RoleKind(0).Valid() || !SubjectRole.Valid() {
		t.Fatal("RoleKind.Valid misclassifies")
	}
}

func TestEffectString(t *testing.T) {
	if Permit.String() != "permit" || Deny.String() != "deny" || Effect(0).String() != "unknown" {
		t.Fatal("Effect.String misrenders")
	}
	if Effect(0).Valid() || !Deny.Valid() {
		t.Fatal("Effect.Valid misclassifies")
	}
}
