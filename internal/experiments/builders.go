// Package experiments holds the policy builders that the experiment
// benchmarks in the root bench_test.go and the guards reusing their
// workloads share (DESIGN.md §4). The experiments' exact claims are tests
// beside the mechanisms they exercise, and this package's tests check each
// claim once more on the workload its benchmark times; the timings come
// from those benchmarks (EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"math/rand"

	"github.com/aware-home/grbac/internal/baseline/rbac"
	"github.com/aware-home/grbac/internal/core"
)

// NewRandomRBAC builds a random traditional-RBAC policy with the given
// universe sizes and assignment density 1/3, returning the system and its
// subject/transaction universes.
func NewRandomRBAC(rng *rand.Rand, nSub, nRole, nTx int) (*rbac.System, []core.SubjectID, []core.TransactionID) {
	s := rbac.NewSystem()
	subjects := make([]core.SubjectID, nSub)
	for i := range subjects {
		subjects[i] = core.SubjectID(fmt.Sprintf("s%d", i))
	}
	roles := make([]core.RoleID, nRole)
	for i := range roles {
		roles[i] = core.RoleID(fmt.Sprintf("r%d", i))
	}
	txs := make([]core.TransactionID, nTx)
	for i := range txs {
		txs[i] = core.TransactionID(fmt.Sprintf("t%d", i))
	}
	for _, sub := range subjects {
		assigned := false
		for _, r := range roles {
			if rng.Intn(3) == 0 {
				mustNil(s.AuthorizeRole(sub, r))
				assigned = true
			}
		}
		if !assigned {
			mustNil(s.AuthorizeRole(sub, roles[rng.Intn(len(roles))]))
		}
	}
	for _, r := range roles {
		for _, t := range txs {
			if rng.Intn(3) == 0 {
				mustNil(s.AuthorizeTransaction(r, t))
			}
		}
	}
	return s, subjects, txs
}

// NewFigure2System builds the exact Figure 2 household on a core.System:
// the subject-role hierarchy and its five members.
func NewFigure2System() (*core.System, error) {
	s := core.NewSystem()
	roles := []core.Role{
		{ID: "home-user", Kind: core.SubjectRole},
		{ID: "family-member", Kind: core.SubjectRole, Parents: []core.RoleID{"home-user"}},
		{ID: "authorized-guest", Kind: core.SubjectRole, Parents: []core.RoleID{"home-user"}},
		{ID: "parent", Kind: core.SubjectRole, Parents: []core.RoleID{"family-member"}},
		{ID: "child", Kind: core.SubjectRole, Parents: []core.RoleID{"family-member"}},
		{ID: "service-agent", Kind: core.SubjectRole, Parents: []core.RoleID{"authorized-guest"}},
		{ID: "dishwasher-repair-tech", Kind: core.SubjectRole, Parents: []core.RoleID{"service-agent"}},
	}
	for _, r := range roles {
		if err := s.AddRole(r); err != nil {
			return nil, err
		}
	}
	assignments := map[core.SubjectID]core.RoleID{
		"mom": "parent", "dad": "parent",
		"alice": "child", "bobby": "child",
		"repair-tech": "dishwasher-repair-tech",
	}
	for sub, role := range assignments {
		if err := s.AddSubject(sub); err != nil {
			return nil, err
		}
		if err := s.AssignSubjectRole(sub, role); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// BuildScaledGRBAC constructs a GRBAC system for the E12 latency sweeps:
// nRules permissions over nRoles flat subject roles (the probe subject
// holds the last role, and exactly one rule matches it), a subject-role
// chain of the given depth above the held role, and nEnvRoles environment
// roles of which all are active at decision time.
func BuildScaledGRBAC(nRules, nRoles, depth, nEnvRoles int, opts ...core.Option) (*core.System, core.Request, error) {
	s := core.NewSystem(opts...)
	// Flat role universe.
	roleName := func(i int) core.RoleID { return core.RoleID(fmt.Sprintf("role-%d", i)) }
	for i := 0; i < nRoles; i++ {
		if err := s.AddRole(core.Role{ID: roleName(i), Kind: core.SubjectRole}); err != nil {
			return nil, core.Request{}, err
		}
	}
	// A generalization chain of the requested depth on top of role-0:
	// role-0 extends chain-1 extends chain-2 ... so closure walks `depth`
	// extra hops.
	prev := core.RoleID("")
	for i := depth; i >= 1; i-- {
		id := core.RoleID(fmt.Sprintf("chain-%d", i))
		r := core.Role{ID: id, Kind: core.SubjectRole}
		if prev != "" {
			r.Parents = []core.RoleID{prev}
		}
		if err := s.AddRole(r); err != nil {
			return nil, core.Request{}, err
		}
		prev = id
	}
	if prev != "" {
		if err := s.AddRoleParent(core.SubjectRole, roleName(0), prev); err != nil {
			return nil, core.Request{}, err
		}
	}
	if err := s.AddRole(core.Role{ID: "things", Kind: core.ObjectRole}); err != nil {
		return nil, core.Request{}, err
	}
	envName := func(i int) core.RoleID { return core.RoleID(fmt.Sprintf("env-%d", i)) }
	active := make([]core.RoleID, 0, nEnvRoles)
	for i := 0; i < nEnvRoles; i++ {
		if err := s.AddRole(core.Role{ID: envName(i), Kind: core.EnvironmentRole}); err != nil {
			return nil, core.Request{}, err
		}
		active = append(active, envName(i))
	}
	if err := s.AddSubject("probe"); err != nil {
		return nil, core.Request{}, err
	}
	if err := s.AssignSubjectRole("probe", roleName(0)); err != nil {
		return nil, core.Request{}, err
	}
	if err := s.AddObject("target"); err != nil {
		return nil, core.Request{}, err
	}
	if err := s.AssignObjectRole("target", "things"); err != nil {
		return nil, core.Request{}, err
	}
	if err := s.AddTransaction(core.SimpleTransaction("use")); err != nil {
		return nil, core.Request{}, err
	}
	env := core.AnyEnvironment
	if nEnvRoles > 0 {
		env = envName(nEnvRoles - 1)
	}
	// nRules-1 rules that do not match the probe's role, one that does.
	for i := 0; i < nRules-1; i++ {
		if err := s.Grant(core.Permission{
			Subject:     roleName(1 + i%max(nRoles-1, 1)),
			Object:      "things",
			Environment: env,
			Transaction: "use",
			Effect:      core.Permit,
		}); err != nil {
			return nil, core.Request{}, err
		}
	}
	if err := s.Grant(core.Permission{
		Subject:     roleName(0),
		Object:      "things",
		Environment: env,
		Transaction: "use",
		Effect:      core.Permit,
	}); err != nil {
		return nil, core.Request{}, err
	}
	req := core.Request{
		Subject: "probe", Object: "target", Transaction: "use",
		Environment: active,
	}
	return s, req, nil
}

func mustNil(err error) {
	if err != nil {
		panic(err)
	}
}
