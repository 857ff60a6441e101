package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Role is the unifying abstraction of GRBAC (paper §4.2): "the basic concept
// of a role [organizes] all entities in a system". A role names a category
// of subjects, objects, or environment states, depending on its Kind.
//
// Parents lists the role's immediate generalizations: a member of a role is
// implicitly a member of every ancestor. This is the is-a reading of the
// paper's Figure 2 hierarchy (Child ⊂ Family Member ⊂ Home User), so a grant
// written against Family Member covers every subject assigned Child. Role
// graphs are DAGs; System rejects edits that would create a cycle.
type Role struct {
	ID          RoleID
	Kind        RoleKind
	Parents     []RoleID
	Description string
}

// clone returns a deep copy of r so callers can never alias internal state.
func (r Role) clone() Role {
	cp := r
	cp.Parents = append([]RoleID(nil), r.Parents...)
	return cp
}

// roleGraph holds all roles of a single kind and answers hierarchy queries.
// It is not safe for concurrent use; System provides locking.
type roleGraph struct {
	kind  RoleKind
	roles map[RoleID]*Role
	// depths caches the longest parent-chain length per role. It is
	// recomputed eagerly on every structural mutation (all of which hold
	// the System write lock), so reads under the read lock are race-free
	// map lookups.
	depths map[RoleID]int
	// closures caches the full upward closure of every role (the role
	// itself plus all ancestors). Like depths it is rebuilt eagerly on
	// every structural mutation, turning the per-decision closure walk
	// into a merge of precomputed sets.
	closures map[RoleID]map[RoleID]bool
}

func newRoleGraph(kind RoleKind) *roleGraph {
	return &roleGraph{
		kind:     kind,
		roles:    make(map[RoleID]*Role),
		depths:   make(map[RoleID]int),
		closures: make(map[RoleID]map[RoleID]bool),
	}
}

func (g *roleGraph) get(id RoleID) (*Role, bool) {
	r, ok := g.roles[id]
	return r, ok
}

// add inserts a role after validating that its parents exist and that the
// new edges do not create a cycle.
func (g *roleGraph) add(r Role) error {
	if err := g.checkNew(r.ID); err != nil {
		return err
	}
	for _, p := range r.Parents {
		if p == r.ID {
			return fmt.Errorf("%w: %s role %q is its own parent", ErrCycle, g.kind, r.ID)
		}
		if _, ok := g.roles[p]; !ok {
			return fmt.Errorf("%w: parent %s role %q", ErrNotFound, g.kind, p)
		}
	}
	cp := r.clone()
	g.roles[r.ID] = &cp
	g.refreshDerived()
	return nil
}

// checkNew rejects an empty role ID and one the graph already holds.
func (g *roleGraph) checkNew(id RoleID) error {
	if id == "" {
		return fmt.Errorf("%w: empty role ID", ErrInvalid)
	}
	if _, ok := g.roles[id]; ok {
		return fmt.Errorf("%w: %s role %q", ErrExists, g.kind, id)
	}
	return nil
}

// addParent links child under parent, rejecting unknown roles and cycles.
func (g *roleGraph) addParent(child, parent RoleID) error {
	c, ok := g.roles[child]
	if !ok {
		return fmt.Errorf("%w: %s role %q", ErrNotFound, g.kind, child)
	}
	if added, err := g.link(c, parent); !added {
		return err
	}
	g.refreshDerived()
	return nil
}

// link appends the edge c→parent unless c has it already, rejecting an
// unknown parent and an edge that would close a cycle. It reports whether
// it added the edge and leaves the derived caches to its caller.
func (g *roleGraph) link(c *Role, parent RoleID) (bool, error) {
	if _, ok := g.roles[parent]; !ok {
		return false, fmt.Errorf("%w: %s role %q", ErrNotFound, g.kind, parent)
	}
	if slices.Contains(c.Parents, parent) {
		return false, nil
	}
	// Adding c→parent creates a cycle iff c is reachable from parent.
	if g.reaches(parent, c.ID) {
		return false, fmt.Errorf("%w: %s role %q -> %q", ErrCycle, g.kind, c.ID, parent)
	}
	c.Parents = append(c.Parents, parent)
	return true, nil
}

// removeParent unlinks child from parent if the edge exists.
func (g *roleGraph) removeParent(child, parent RoleID) error {
	c, ok := g.roles[child]
	if !ok {
		return fmt.Errorf("%w: %s role %q", ErrNotFound, g.kind, child)
	}
	for i, p := range c.Parents {
		if p == parent {
			c.Parents = append(c.Parents[:i], c.Parents[i+1:]...)
			g.refreshDerived()
			return nil
		}
	}
	return fmt.Errorf("%w: %s role %q has no parent %q", ErrNotFound, g.kind, child, parent)
}

// remove deletes a role and every hierarchy edge that references it.
func (g *roleGraph) remove(id RoleID) error {
	if _, ok := g.roles[id]; !ok {
		return fmt.Errorf("%w: %s role %q", ErrNotFound, g.kind, id)
	}
	delete(g.roles, id)
	for _, r := range g.roles {
		for i := 0; i < len(r.Parents); {
			if r.Parents[i] == id {
				r.Parents = append(r.Parents[:i], r.Parents[i+1:]...)
				continue
			}
			i++
		}
	}
	g.refreshDerived()
	return nil
}

// reaches reports whether dst is reachable from src by following parent
// edges (src == dst counts as reachable).
func (g *roleGraph) reaches(src, dst RoleID) bool {
	if src == dst {
		return true
	}
	seen := map[RoleID]bool{src: true}
	stack := []RoleID{src}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		r, ok := g.roles[cur]
		if !ok {
			continue
		}
		for _, p := range r.Parents {
			if p == dst {
				return true
			}
			if !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return false
}

// closure returns the upward closure of the seed set: every seed role plus
// all of its ancestors, merged from the per-role closure cache. Unknown
// seeds are included verbatim so that callers holding stale IDs still get
// deterministic (deny-safe) behaviour.
func (g *roleGraph) closure(seeds []RoleID) map[RoleID]bool {
	out := make(map[RoleID]bool, len(seeds)*2)
	for _, s := range seeds {
		cl, ok := g.closures[s]
		if !ok {
			out[s] = true
			continue
		}
		for r := range cl {
			out[r] = true
		}
	}
	return out
}

// closureContains reports whether target lies in the upward closure of any
// seed, without materializing the closure. It is the allocation-free form
// of closure(...)[target] used by the membership queries.
func (g *roleGraph) closureContains(seeds []RoleID, target RoleID) bool {
	for _, s := range seeds {
		if s == target || g.closures[s][target] {
			return true
		}
	}
	return false
}

// ancestors returns all strict ancestors of id in sorted order.
func (g *roleGraph) ancestors(id RoleID) []RoleID {
	cl := g.closure([]RoleID{id})
	delete(cl, id)
	return sortedRoleIDs(cl)
}

// descendants returns all strict descendants of id in sorted order, read
// off the closure cache (other is a descendant of id iff id is in other's
// upward closure).
func (g *roleGraph) descendants(id RoleID) []RoleID {
	var out []RoleID
	for other := range g.roles {
		if other == id {
			continue
		}
		if g.closures[other][id] {
			out = append(out, other)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// depth returns the length of the longest parent chain from id to a root,
// served from the eagerly maintained cache. Unknown roles have depth 0.
func (g *roleGraph) depth(id RoleID) int {
	return g.depths[id]
}

// refreshDerived rebuilds every derived cache (depths and closures) after a
// structural mutation; callers hold the write lock.
func (g *roleGraph) refreshDerived() {
	g.recomputeDepths()
	g.recomputeClosures()
}

// recomputeClosures rebuilds the per-role upward-closure cache with a
// memoized traversal: closure(r) = {r} ∪ closure(p) for each parent p.
func (g *roleGraph) recomputeClosures() {
	memo := make(map[RoleID]map[RoleID]bool, len(g.roles))
	var rec func(RoleID) map[RoleID]bool
	rec = func(cur RoleID) map[RoleID]bool {
		if cl, ok := memo[cur]; ok {
			return cl
		}
		cl := map[RoleID]bool{cur: true}
		memo[cur] = cl // set before recursing; the graph is a DAG
		for _, p := range g.roles[cur].Parents {
			for a := range rec(p) {
				cl[a] = true
			}
		}
		return cl
	}
	for id := range g.roles {
		rec(id)
	}
	g.closures = memo
}

// recomputeDepths rebuilds the depth cache; callers hold the write lock.
func (g *roleGraph) recomputeDepths() {
	memo := make(map[RoleID]int, len(g.roles))
	var rec func(RoleID) int
	rec = func(cur RoleID) int {
		if d, ok := memo[cur]; ok {
			return d
		}
		memo[cur] = 0 // guards against (impossible) cycles
		r, ok := g.roles[cur]
		if !ok || len(r.Parents) == 0 {
			return 0
		}
		best := 0
		for _, p := range r.Parents {
			if d := rec(p) + 1; d > best {
				best = d
			}
		}
		memo[cur] = best
		return best
	}
	for id := range g.roles {
		rec(id)
	}
	g.depths = memo
}

// all returns copies of every role, sorted by ID.
func (g *roleGraph) all() []Role {
	out := make([]Role, 0, len(g.roles))
	for _, r := range g.roles {
		out = append(out, r.clone())
	}
	slices.SortFunc(out, func(a, b Role) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

func sortedRoleIDs(set map[RoleID]bool) []RoleID {
	out := make([]RoleID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// The role set of a subject, object or session record is a sorted,
// duplicate-free []RoleID: membership is a binary search, and a compile
// walks it as a slice.

// hasRole reports whether the role set holds r.
func hasRole(set []RoleID, r RoleID) bool {
	_, ok := slices.BinarySearch(set, r)
	return ok
}

// insertRole adds r to the role set unless it holds r already.
func insertRole(set []RoleID, r RoleID) []RoleID {
	if i, ok := slices.BinarySearch(set, r); !ok {
		set = slices.Insert(set, i, r)
	}
	return set
}

// deleteRole removes r from the role set, reporting whether it held r.
func deleteRole(set []RoleID, r RoleID) ([]RoleID, bool) {
	i, ok := slices.BinarySearch(set, r)
	if !ok {
		return set, false
	}
	return slices.Delete(set, i, i+1), true
}

// roleSetOf returns the role set of roles, which may be unsorted and
// repeat a role, in memory of its own.
func roleSetOf(roles []RoleID) []RoleID {
	set := slices.Clone(roles)
	slices.Sort(set)
	return slices.Compact(set)
}

// copyRoles returns a copy of a role set that shares no memory with it,
// empty rather than nil when the set is empty.
func copyRoles(set []RoleID) []RoleID {
	return append(make([]RoleID, 0, len(set)), set...)
}
