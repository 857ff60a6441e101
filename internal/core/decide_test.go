package core

import (
	"errors"
	"strings"
	"testing"
)

// grantEntertainment installs the §5.1 rule: "any child can use
// entertainment devices on weekdays during free time". The two environment
// legs are modelled by granting against a combined environment role; tests
// that need conjunction semantics use internal/environment, which activates
// a composite role. Here we use the simpler single-role form.
func grantEntertainment(t *testing.T, s *System) Permission {
	t.Helper()
	if err := s.AddRole(Role{ID: "weekday-free-time", Kind: EnvironmentRole}); err != nil {
		t.Fatal(err)
	}
	p := Permission{
		Subject:     "child",
		Object:      "entertainment-devices",
		Environment: "weekday-free-time",
		Transaction: "use",
		Effect:      Permit,
		Description: "any child can use entertainment devices on weekdays during free time",
	}
	if err := s.Grant(p); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDecideSection51Scenario(t *testing.T) {
	s := newHomeSystem(t)
	grantEntertainment(t, s)

	tests := []struct {
		name string
		req  Request
		want bool
	}{
		{
			"alice uses tv during the window",
			Request{Subject: "alice", Object: "tv", Transaction: "use",
				Environment: []RoleID{"weekday-free-time"}},
			true,
		},
		{
			"bobby uses vcr during the window",
			Request{Subject: "bobby", Object: "vcr", Transaction: "use",
				Environment: []RoleID{"weekday-free-time"}},
			true,
		},
		{
			"alice outside the window",
			Request{Subject: "alice", Object: "tv", Transaction: "use",
				Environment: []RoleID{}},
			false,
		},
		{
			"parent not covered by child rule",
			Request{Subject: "mom", Object: "tv", Transaction: "use",
				Environment: []RoleID{"weekday-free-time"}},
			false,
		},
		{
			"repair tech not covered",
			Request{Subject: "repair-tech", Object: "tv", Transaction: "use",
				Environment: []RoleID{"weekday-free-time"}},
			false,
		},
		{
			"child on non-entertainment object",
			Request{Subject: "alice", Object: "oven", Transaction: "use",
				Environment: []RoleID{"weekday-free-time"}},
			false,
		},
		{
			"wrong transaction",
			Request{Subject: "alice", Object: "tv", Transaction: "read",
				Environment: []RoleID{"weekday-free-time"}},
			false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := s.CheckAccess(tt.req)
			if err != nil {
				t.Fatalf("CheckAccess: %v", err)
			}
			if got != tt.want {
				t.Fatalf("CheckAccess = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDecideDefaultDeny(t *testing.T) {
	s := newHomeSystem(t)
	d, err := s.Decide(Request{Subject: "alice", Object: "tv", Transaction: "use", Environment: []RoleID{}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed || !d.DefaultDeny || d.Effect != Deny {
		t.Fatalf("empty policy decision = %+v, want default deny", d)
	}
	if !strings.Contains(d.Reason, "default deny") {
		t.Fatalf("Reason = %q, want default-deny explanation", d.Reason)
	}
}

func TestDecideInputValidation(t *testing.T) {
	s := newHomeSystem(t)
	tests := []struct {
		name    string
		req     Request
		wantErr error
	}{
		{"missing transaction", Request{Subject: "alice", Object: "tv"}, ErrInvalid},
		{"unknown transaction", Request{Subject: "alice", Object: "tv", Transaction: "zap"}, ErrNotFound},
		{"missing object", Request{Subject: "alice", Transaction: "use"}, ErrInvalid},
		{"unknown object", Request{Subject: "alice", Object: "ghost", Transaction: "use"}, ErrNotFound},
		{"unknown subject", Request{Subject: "ghost", Object: "tv", Transaction: "use"}, ErrNotFound},
		{"no subject or credentials", Request{Object: "tv", Transaction: "use"}, ErrInvalid},
		// A session-only request mediates as the session's owner, so an
		// unknown session is the error.
		{"session without subject", Request{Session: "s", Object: "tv", Transaction: "use",
			Credentials: CredentialSet{RoleCredential("child", 0.9, "floor")}}, ErrNoSession},
		{"malformed credential", Request{Subject: "alice", Object: "tv", Transaction: "use",
			Credentials: CredentialSet{{Confidence: 0.5}}}, ErrInvalid},
		{"credential asserting both", Request{Subject: "alice", Object: "tv", Transaction: "use",
			Credentials: CredentialSet{{Subject: "alice", Role: "child", Confidence: 0.5}}}, ErrInvalid},
		{"credential confidence out of range", Request{Subject: "alice", Object: "tv", Transaction: "use",
			Credentials: CredentialSet{IdentityCredential("alice", 1.2, "x")}}, ErrInvalid},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := s.Decide(tt.req); !errors.Is(err, tt.wantErr) {
				t.Fatalf("Decide error = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestDecideWildcards(t *testing.T) {
	s := newHomeSystem(t)
	// "anyone may read anything, anytime".
	if err := s.Grant(Permission{
		Subject: AnySubject, Object: AnyObject, Environment: AnyEnvironment,
		Transaction: "read", Effect: Permit,
	}); err != nil {
		t.Fatal(err)
	}
	ok, err := s.CheckAccess(Request{Subject: "repair-tech", Object: "family-medical-records",
		Transaction: "read", Environment: []RoleID{}})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("wildcard permit did not apply")
	}
	// AnyTransaction covers new transactions too.
	if err := s.Grant(Permission{
		Subject: "parent", Object: AnyObject, Environment: AnyEnvironment,
		Transaction: AnyTransaction, Effect: Permit,
	}); err != nil {
		t.Fatal(err)
	}
	ok, err = s.CheckAccess(Request{Subject: "mom", Object: "oven", Transaction: "use", Environment: []RoleID{}})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("AnyTransaction permit did not apply")
	}
}

func TestDecideNegativeAuthorizationDenyOverrides(t *testing.T) {
	s := newHomeSystem(t)
	// §3: "adult residents may be granted access to all appliances ...
	// children are denied access to potentially dangerous appliances."
	if err := s.Grant(Permission{
		Subject: "family-member", Object: "appliances", Environment: AnyEnvironment,
		Transaction: "use", Effect: Permit,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Grant(Permission{
		Subject: "child", Object: "dangerous-appliances", Environment: AnyEnvironment,
		Transaction: "use", Effect: Deny,
	}); err != nil {
		t.Fatal(err)
	}
	// Alice (child ⊂ family-member) matches both rules on the oven: the
	// family-member permit and the child deny. Deny-overrides wins.
	d, err := s.Decide(Request{Subject: "alice", Object: "oven", Transaction: "use", Environment: []RoleID{}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed {
		t.Fatalf("child allowed on dangerous appliance: %s", d.Explain())
	}
	if len(d.Matches) != 2 {
		t.Fatalf("matches = %d, want 2", len(d.Matches))
	}
	// Mom only matches the permit.
	ok, err := s.CheckAccess(Request{Subject: "mom", Object: "oven", Transaction: "use", Environment: []RoleID{}})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("parent denied on appliance")
	}
}

func TestDecideConflictStrategies(t *testing.T) {
	build := func(t *testing.T) *System {
		s := newHomeSystem(t)
		if err := s.Grant(Permission{
			Subject: "family-member", Object: "medical-records", Environment: AnyEnvironment,
			Transaction: "read", Effect: Permit,
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.Grant(Permission{
			Subject: "child", Object: "medical-records", Environment: AnyEnvironment,
			Transaction: "read", Effect: Deny,
		}); err != nil {
			t.Fatal(err)
		}
		return s
	}
	req := Request{Subject: "bobby", Object: "family-medical-records", Transaction: "read", Environment: []RoleID{}}

	tests := []struct {
		name     string
		strategy ConflictStrategy
		want     bool
	}{
		{"deny-overrides", DenyOverrides{}, false},
		{"permit-overrides", PermitOverrides{}, true},
		// child (depth 2) is more specific than family-member (depth 1),
		// and the child rule denies.
		{"most-specific-wins", MostSpecificWins{}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := build(t)
			s.SetConflictStrategy(tt.strategy)
			d, err := s.Decide(req)
			if err != nil {
				t.Fatal(err)
			}
			if d.Allowed != tt.want {
				t.Fatalf("allowed = %v, want %v (%s)", d.Allowed, tt.want, d.Explain())
			}
			if d.Strategy != tt.strategy.Name() {
				t.Fatalf("strategy = %q, want %q", d.Strategy, tt.strategy.Name())
			}
		})
	}
}

func TestMostSpecificWinsPermitAtDeeperRole(t *testing.T) {
	s := newHomeSystem(t)
	s.SetConflictStrategy(MostSpecificWins{})
	// Generic deny for all home users, specific permit for parents.
	if err := s.Grant(Permission{
		Subject: "home-user", Object: "medical-records", Environment: AnyEnvironment,
		Transaction: "read", Effect: Deny,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Grant(Permission{
		Subject: "parent", Object: "medical-records", Environment: AnyEnvironment,
		Transaction: "read", Effect: Permit,
	}); err != nil {
		t.Fatal(err)
	}
	ok, err := s.CheckAccess(Request{Subject: "mom", Object: "family-medical-records",
		Transaction: "read", Environment: []RoleID{}})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("specific parent permit lost to generic deny")
	}
	// Bobby only matches the generic deny.
	ok, err = s.CheckAccess(Request{Subject: "bobby", Object: "family-medical-records",
		Transaction: "read", Environment: []RoleID{}})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("child allowed by generic deny")
	}
}

func TestMostSpecificWinsTieBreaksToDeny(t *testing.T) {
	s := newHomeSystem(t)
	s.SetConflictStrategy(MostSpecificWins{})
	for _, e := range []Effect{Permit, Deny} {
		if err := s.Grant(Permission{
			Subject: "child", Object: "medical-records", Environment: AnyEnvironment,
			Transaction: "read", Effect: e,
		}); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := s.CheckAccess(Request{Subject: "bobby", Object: "family-medical-records",
		Transaction: "read", Environment: []RoleID{}})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("equal-depth conflict resolved to permit, want deny")
	}
}

func TestDecideHierarchicalEnvironmentRoles(t *testing.T) {
	s := newHomeSystem(t)
	// Environment hierarchy: monday ⊂ weekdays. A rule on weekdays should
	// fire when only "monday" is active.
	if err := s.AddRole(Role{ID: "monday", Kind: EnvironmentRole, Parents: []RoleID{"weekdays"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Grant(Permission{
		Subject: "child", Object: "entertainment-devices", Environment: "weekdays",
		Transaction: "use", Effect: Permit,
	}); err != nil {
		t.Fatal(err)
	}
	ok, err := s.CheckAccess(Request{Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []RoleID{"monday"}})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("weekdays rule did not cover active monday role")
	}
	// Unknown active environment roles are ignored, not errors.
	ok, err = s.CheckAccess(Request{Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []RoleID{"full-moon"}})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("unknown env role granted access")
	}
}

type staticEnv []RoleID

func (e staticEnv) ActiveEnvironmentRoles() []RoleID { return e }

func TestDecideEnvironmentSource(t *testing.T) {
	s := newHomeSystem(t)
	grantEntertainment(t, s)
	s.SetEnvironmentSource(staticEnv{"weekday-free-time"})
	// Nil Environment consults the source.
	ok, err := s.CheckAccess(Request{Subject: "alice", Object: "tv", Transaction: "use"})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("environment source ignored")
	}
	// Explicit empty slice overrides the source.
	ok, err = s.CheckAccess(Request{Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []RoleID{}})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("explicit empty environment did not override source")
	}
}

func TestDecideSessionRestrictsRoles(t *testing.T) {
	s := newHomeSystem(t)
	grantEntertainment(t, s)
	sid, err := s.CreateSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Subject: "alice", Session: sid, Object: "tv", Transaction: "use",
		Environment: []RoleID{"weekday-free-time"}}
	// No roles activated yet: deny.
	ok, err := s.CheckAccess(req)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("session with no active roles was granted")
	}
	if err := s.ActivateRole(sid, "child"); err != nil {
		t.Fatal(err)
	}
	ok, err = s.CheckAccess(req)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("session with active child role was denied")
	}
	if err := s.DeactivateRole(sid, "child"); err != nil {
		t.Fatal(err)
	}
	ok, err = s.CheckAccess(req)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("deactivated role still usable")
	}
}

// TestDecideSessionWithCredentials pins the interaction of role
// activation and partial authentication: active session roles are usable
// only at the identity confidence the evidence supports, and direct role
// credentials bypass the session restriction (the sensor vouches for the
// role itself, not for the login).
func TestDecideSessionWithCredentials(t *testing.T) {
	s := newHomeSystem(t)
	p := grantEntertainment(t, s)
	p.MinConfidence = 0.9
	if err := s.Revoke(grantedCopy(p, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Grant(p); err != nil {
		t.Fatal(err)
	}
	sid, err := s.CreateSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ActivateRole(sid, "child"); err != nil {
		t.Fatal(err)
	}
	env := []RoleID{"weekday-free-time"}

	// Weak identity evidence: the active role is held only at 0.75.
	ok, err := s.CheckAccess(Request{
		Subject: "alice", Session: sid, Object: "tv", Transaction: "use",
		Credentials: CredentialSet{IdentityCredential("alice", 0.75, "floor")},
		Environment: env,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("weak identity satisfied a 0.9 rule through the session")
	}
	// Adding direct role evidence at 0.98 clears the bar.
	ok, err = s.CheckAccess(Request{
		Subject: "alice", Session: sid, Object: "tv", Transaction: "use",
		Credentials: CredentialSet{
			IdentityCredential("alice", 0.75, "floor"),
			RoleCredential("child", 0.98, "floor"),
		},
		Environment: env,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("role credential did not satisfy the rule")
	}
	// Full-trust session (nil credentials) also works.
	ok, err = s.CheckAccess(Request{
		Subject: "alice", Session: sid, Object: "tv", Transaction: "use",
		Environment: env,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("trusted session denied")
	}
}

// grantedCopy strips the mutation applied after grantEntertainment so the
// original permission value can be revoked.
func grantedCopy(p Permission, minConfidence float64) Permission {
	p.MinConfidence = minConfidence
	return p
}

func TestDecideSessionValidation(t *testing.T) {
	s := newHomeSystem(t)
	sid, err := s.CreateSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Decide(Request{Subject: "bobby", Session: sid, Object: "tv",
		Transaction: "use", Environment: []RoleID{}}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("foreign session error = %v, want ErrInvalid", err)
	}
	if _, err := s.Decide(Request{Subject: "alice", Session: "nope", Object: "tv",
		Transaction: "use", Environment: []RoleID{}}); !errors.Is(err, ErrNoSession) {
		t.Fatalf("unknown session error = %v, want ErrNoSession", err)
	}
}

func TestDecidePartialAuthenticationAliceScenario(t *testing.T) {
	// Paper §5.2, reproduced exactly: policy threshold 90%; the Smart
	// Floor identifies Alice at 75% but authenticates her into the Child
	// role at 98%. The identity path fails, the role path succeeds.
	s := newHomeSystem(t)
	grantEntertainment(t, s)
	if err := s.SetMinConfidence(0.90); err != nil {
		t.Fatal(err)
	}

	// Identity-only evidence at 75%: denied.
	d, err := s.Decide(Request{
		Subject: "alice", Object: "tv", Transaction: "use",
		Credentials: CredentialSet{IdentityCredential("alice", 0.75, "smart-floor")},
		Environment: []RoleID{"weekday-free-time"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed {
		t.Fatal("75% identity evidence passed a 90% threshold")
	}

	// Role-level evidence at 98%: granted, even with weak identity.
	d, err = s.Decide(Request{
		Subject: "alice", Object: "tv", Transaction: "use",
		Credentials: CredentialSet{
			IdentityCredential("alice", 0.75, "smart-floor"),
			RoleCredential("child", 0.98, "smart-floor"),
		},
		Environment: []RoleID{"weekday-free-time"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed {
		t.Fatalf("98%% role evidence failed a 90%% threshold: %s", d.Explain())
	}
	if got := d.SubjectRoles["child"]; got != 0.98 {
		t.Fatalf("child confidence = %v, want 0.98", got)
	}

	// The same role evidence works with no identity at all (anonymous
	// child detected by the floor).
	ok, err := s.CheckAccess(Request{
		Object: "tv", Transaction: "use",
		Credentials: CredentialSet{RoleCredential("child", 0.98, "smart-floor")},
		Environment: []RoleID{"weekday-free-time"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("anonymous role credential rejected")
	}
}

func TestDecidePerPermissionMinConfidence(t *testing.T) {
	s := newHomeSystem(t)
	if err := s.AddRole(Role{ID: "anytime", Kind: EnvironmentRole}); err != nil {
		t.Fatal(err)
	}
	// Streaming video needs 90% confidence; a still image needs only 60%
	// (the paper's strong/weak identification example, §3).
	if err := s.AddObject("nursery-camera"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRole(Role{ID: "cameras", Kind: ObjectRole}); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignObjectRole("nursery-camera", "cameras"); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTransaction(SimpleTransaction("view-stream")); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTransaction(SimpleTransaction("view-still")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []Permission{
		{Subject: "parent", Object: "cameras", Environment: "anytime",
			Transaction: "view-stream", Effect: Permit, MinConfidence: 0.90},
		{Subject: "parent", Object: "cameras", Environment: "anytime",
			Transaction: "view-still", Effect: Permit, MinConfidence: 0.60},
	} {
		if err := s.Grant(p); err != nil {
			t.Fatal(err)
		}
	}
	creds := CredentialSet{IdentityCredential("mom", 0.70, "voice-recognition")}
	env := []RoleID{"anytime"}

	ok, err := s.CheckAccess(Request{Subject: "mom", Object: "nursery-camera",
		Transaction: "view-stream", Credentials: creds, Environment: env})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("weak auth allowed streaming video")
	}
	ok, err = s.CheckAccess(Request{Subject: "mom", Object: "nursery-camera",
		Transaction: "view-still", Credentials: creds, Environment: env})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("weak auth denied still image")
	}
}

func TestDecideZeroConfidenceNeverMatches(t *testing.T) {
	s := newHomeSystem(t)
	grantEntertainment(t, s)
	// Credentials present but assert nothing about alice or child.
	ok, err := s.CheckAccess(Request{
		Subject: "alice", Object: "tv", Transaction: "use",
		Credentials: CredentialSet{IdentityCredential("bobby", 0.99, "face")},
		Environment: []RoleID{"weekday-free-time"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("request with zero-confidence subject roles was granted")
	}
}

func TestDecideUnknownRoleCredentialIgnored(t *testing.T) {
	s := newHomeSystem(t)
	grantEntertainment(t, s)
	ok, err := s.CheckAccess(Request{
		Object: "tv", Transaction: "use",
		Credentials: CredentialSet{RoleCredential("space-alien", 1.0, "tinfoil")},
		Environment: []RoleID{"weekday-free-time"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("unknown role credential conferred access")
	}
}

func TestDecideExplain(t *testing.T) {
	s := newHomeSystem(t)
	grantEntertainment(t, s)
	d, err := s.Decide(Request{Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []RoleID{"weekday-free-time"}})
	if err != nil {
		t.Fatal(err)
	}
	text := d.Explain()
	for _, want := range []string{"permit", "child", "entertainment-devices", "weekday-free-time"} {
		if !strings.Contains(text, want) {
			t.Errorf("Explain() missing %q:\n%s", want, text)
		}
	}
}

func TestDecideMatchBindings(t *testing.T) {
	s := newHomeSystem(t)
	grantEntertainment(t, s)
	d, err := s.Decide(Request{Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []RoleID{"weekday-free-time"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Matches) != 1 {
		t.Fatalf("matches = %d, want 1", len(d.Matches))
	}
	m := d.Matches[0]
	if m.SubjectRole != "child" || m.ObjectRole != "entertainment-devices" ||
		m.EnvironmentRole != "weekday-free-time" {
		t.Fatalf("bindings = %+v", m)
	}
	if m.Confidence != 1.0 {
		t.Fatalf("trusted identity confidence = %v, want 1", m.Confidence)
	}
	if m.SubjectDepth != 2 {
		t.Fatalf("SubjectDepth = %d, want 2", m.SubjectDepth)
	}
}

func TestCredentialValidate(t *testing.T) {
	tests := []struct {
		name string
		c    Credential
		ok   bool
	}{
		{"identity ok", IdentityCredential("a", 0.5, "x"), true},
		{"role ok", RoleCredential("r", 1, "x"), true},
		{"neither", Credential{Confidence: 0.5}, false},
		{"both", Credential{Subject: "a", Role: "r", Confidence: 0.5}, false},
		{"low", Credential{Subject: "a", Confidence: -0.1}, false},
		{"high", Credential{Subject: "a", Confidence: 1.1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.c.Validate()
			if (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, ok = %v", err, tt.ok)
			}
		})
	}
}
