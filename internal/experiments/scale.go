package experiments

import (
	"fmt"
	"io"

	"github.com/aware-home/grbac/internal/baseline/acl"
	"github.com/aware-home/grbac/internal/baseline/rbac"
	"github.com/aware-home/grbac/internal/core"
)

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
			Subject:     roleName(1 + i%maxInt(nRoles-1, 1)),
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RunE12 quantifies the paper's acknowledged complexity cost ("GRBAC
// clearly is a more complex model than RBAC"): decision latency for the
// same effective policy under ACL, traditional RBAC, and GRBAC, plus GRBAC
// latency sweeps along each scale axis (rules, hierarchy depth, active
// environment roles).
func RunE12(w io.Writer) error {
	// Comparative: one permitted (subject, action, object).
	aclSys := acl.NewSystem()
	mustNil(aclSys.Add(acl.Entry{Subject: "probe", Action: "use", Object: "target", Allow: true}))
	rbacSys := rbac.NewSystem()
	mustNil(rbacSys.AuthorizeRole("probe", "role-0"))
	mustNil(rbacSys.AuthorizeTransaction("role-0", "use"))
	grbacSys, req, err := BuildScaledGRBAC(1, 1, 0, 0)
	if err != nil {
		return err
	}
	_, aclPer := Throughput(200000, func() { aclSys.Allowed("probe", "use", "target") })
	_, rbacPer := Throughput(200000, func() { rbacSys.Exec("probe", "use") })
	_, grbacPer := Throughput(100000, func() { _, _ = grbacSys.Decide(req) })
	fmt.Fprintln(w, "model comparison (single matching rule):")
	fmt.Fprintf(w, "  ACL   %8s/op\n", aclPer)
	fmt.Fprintf(w, "  RBAC  %8s/op\n", rbacPer)
	fmt.Fprintf(w, "  GRBAC %8s/op  (generality cost x%.1f over RBAC)\n",
		grbacPer, float64(grbacPer)/float64(rbacPer))

	sweep := func(label string, build func(v int) (*core.System, core.Request, error), values []int) error {
		fmt.Fprintf(w, "GRBAC decision latency vs %s:\n", label)
		for _, v := range values {
			s, r, err := build(v)
			if err != nil {
				return err
			}
			n := 50000
			if v >= 1000 {
				n = 5000
			}
			_, per := Throughput(n, func() { _, _ = s.Decide(r) })
			fmt.Fprintf(w, "  %-6d %8s/op\n", v, per)
		}
		return nil
	}
	if err := sweep("number of rules", func(v int) (*core.System, core.Request, error) {
		return BuildScaledGRBAC(v, 16, 0, 1)
	}, []int{10, 100, 1000, 5000}); err != nil {
		return err
	}
	if err := sweep("hierarchy depth", func(v int) (*core.System, core.Request, error) {
		return BuildScaledGRBAC(16, 4, v, 1)
	}, []int{1, 4, 16, 64}); err != nil {
		return err
	}
	if err := sweep("active environment roles", func(v int) (*core.System, core.Request, error) {
		return BuildScaledGRBAC(16, 4, 0, v)
	}, []int{1, 8, 64, 256}); err != nil {
		return err
	}
	return nil
}

// RunE13 quantifies the §5.1 usability argument: the number of policy
// entries needed as the household grows, for ACL (one entry per child ×
// device), traditional RBAC (one authorized transaction per device,
// because RBAC has no object grouping), and GRBAC (one rule, always —
// growth goes into role *assignments*, which the paper's scenario treats
// as the easy operation: "they could simply map the device to the role").
func RunE13(w io.Writer) error {
	fmt.Fprintln(w, "children devices  ACL-entries  RBAC-grants  GRBAC-rules")
	for _, size := range []struct{ children, devices int }{
		{2, 4}, {5, 10}, {10, 20}, {20, 50}, {50, 100},
	} {
		// ACL: enumerate everything.
		a := acl.NewSystem()
		for c := 0; c < size.children; c++ {
			for d := 0; d < size.devices; d++ {
				mustNil(a.Add(acl.Entry{
					Subject: core.SubjectID(fmt.Sprintf("child%d", c)),
					Action:  "use",
					Object:  core.ObjectID(fmt.Sprintf("dev%d", d)),
					Allow:   true,
				}))
			}
		}
		// RBAC: role "child" + one authorized per-device transaction.
		r := rbac.NewSystem()
		for c := 0; c < size.children; c++ {
			mustNil(r.AuthorizeRole(core.SubjectID(fmt.Sprintf("child%d", c)), "child"))
		}
		rbacGrants := 0
		for d := 0; d < size.devices; d++ {
			mustNil(r.AuthorizeTransaction("child", core.TransactionID(fmt.Sprintf("use-dev%d", d))))
			rbacGrants++
		}
		// GRBAC: always one rule; devices and children are assignments.
		g := core.NewSystem()
		mustNil(g.AddRole(core.Role{ID: "child", Kind: core.SubjectRole}))
		mustNil(g.AddRole(core.Role{ID: "entertainment", Kind: core.ObjectRole}))
		mustNil(g.AddTransaction(core.SimpleTransaction("use")))
		for c := 0; c < size.children; c++ {
			id := core.SubjectID(fmt.Sprintf("child%d", c))
			mustNil(g.AddSubject(id))
			mustNil(g.AssignSubjectRole(id, "child"))
		}
		for d := 0; d < size.devices; d++ {
			id := core.ObjectID(fmt.Sprintf("dev%d", d))
			mustNil(g.AddObject(id))
			mustNil(g.AssignObjectRole(id, "entertainment"))
		}
		mustNil(g.Grant(core.Permission{
			Subject: "child", Object: "entertainment",
			Environment: core.AnyEnvironment, Transaction: "use", Effect: core.Permit,
		}))
		fmt.Fprintf(w, "%8d %7d  %11d  %11d  %11d\n",
			size.children, size.devices, a.Len(), rbacGrants, len(g.Permissions()))
	}
	fmt.Fprintln(w, "note: ACL and RBAC cannot express the time window at all;")
	fmt.Fprintln(w, "GRBAC's one rule carries it in the environment leg")
	return nil
}

// RunE14 exercises §4.1.2's machinery: the teller/account-holder dynamic
// SoD scenario, Bobby's role-precedence conflict under each strategy, and
// activation throughput.
func RunE14(w io.Writer) error {
	// Teller scenario.
	s := core.NewSystem()
	for _, r := range []core.RoleID{"teller", "account-holder"} {
		mustNil(s.AddRole(core.Role{ID: r, Kind: core.SubjectRole}))
	}
	mustNil(s.AddSubject("joe"))
	mustNil(s.AssignSubjectRole("joe", "teller"))
	mustNil(s.AssignSubjectRole("joe", "account-holder"))
	mustNil(s.AddSoDConstraint(core.SoDConstraint{
		Name: "teller-vs-holder", Kind: core.DynamicSoD,
		Roles: []core.RoleID{"teller", "account-holder"},
	}))
	sid, err := s.CreateSession("joe")
	if err != nil {
		return err
	}
	mustNil(s.ActivateRole(sid, "teller"))
	errBoth := s.ActivateRole(sid, "account-holder")
	mustNil(s.DeactivateRole(sid, "teller"))
	errSequential := s.ActivateRole(sid, "account-holder")
	fmt.Fprintf(w, "dynamic SoD: simultaneous activation rejected=%v, sequential allowed=%v\n",
		errBoth != nil, errSequential == nil)

	// Role precedence: Bobby is child (denied records) and family-member
	// (granted records).
	outcomes := make(map[string]string, 3)
	for _, strat := range []core.ConflictStrategy{
		core.DenyOverrides{}, core.PermitOverrides{}, core.MostSpecificWins{},
	} {
		g := core.NewSystem(core.WithConflictStrategy(strat))
		mustNil(g.AddRole(core.Role{ID: "family-member", Kind: core.SubjectRole}))
		mustNil(g.AddRole(core.Role{ID: "child", Kind: core.SubjectRole,
			Parents: []core.RoleID{"family-member"}}))
		mustNil(g.AddRole(core.Role{ID: "medical-records", Kind: core.ObjectRole}))
		mustNil(g.AddSubject("bobby"))
		mustNil(g.AssignSubjectRole("bobby", "child"))
		mustNil(g.AddObject("records"))
		mustNil(g.AssignObjectRole("records", "medical-records"))
		mustNil(g.AddTransaction(core.SimpleTransaction("read")))
		mustNil(g.Grant(core.Permission{Subject: "family-member", Object: "medical-records",
			Environment: core.AnyEnvironment, Transaction: "read", Effect: core.Permit}))
		mustNil(g.Grant(core.Permission{Subject: "child", Object: "medical-records",
			Environment: core.AnyEnvironment, Transaction: "read", Effect: core.Deny}))
		d, err := g.Decide(core.Request{Subject: "bobby", Object: "records",
			Transaction: "read", Environment: []core.RoleID{}})
		if err != nil {
			return err
		}
		outcomes[strat.Name()] = tick(d.Allowed)
	}
	fmt.Fprintf(w, "Bobby's record conflict: deny-overrides=%s permit-overrides=%s most-specific-wins=%s\n",
		outcomes["deny-overrides"], outcomes["permit-overrides"], outcomes["most-specific-wins"])

	// Activation throughput.
	var toggle int
	ops, per := Throughput(20000, func() {
		if toggle%2 == 0 {
			mustNil(s.DeactivateRole(sid, "account-holder"))
		} else {
			mustNil(s.ActivateRole(sid, "account-holder"))
		}
		toggle++
	})
	if toggle%2 == 1 { // leave the session in a consistent state
		mustNil(s.DeactivateRole(sid, "account-holder"))
	}
	fmt.Fprintf(w, "activation toggle throughput (with SoD checks): %.0f ops/sec (%s/op)\n", ops, per)
	return nil
}
