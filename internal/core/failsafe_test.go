package core

import (
	"strings"
	"testing"
)

// fakeExpiringSource is an EnvironmentSource whose context freshness is
// script-controlled, standing in for a sensor-fed attribute store with
// TTLs (internal/environment implements the real one).
type fakeExpiringSource struct {
	roles   []RoleID
	expired []string
}

func (f *fakeExpiringSource) ActiveEnvironmentRoles() []RoleID { return f.roles }
func (f *fakeExpiringSource) ExpiredContext() []string         { return f.expired }

func failSafeSystem(t *testing.T, src EnvironmentSource, opts ...Option) *System {
	t.Helper()
	sys := NewSystem(append(opts, WithEnvironmentSource(src))...)
	for _, step := range []error{
		sys.AddRole(Role{ID: "resident", Kind: SubjectRole}),
		sys.AddRole(Role{ID: "appliance", Kind: ObjectRole}),
		sys.AddRole(Role{ID: "daytime", Kind: EnvironmentRole}),
		sys.AddSubject("alice"),
		sys.AssignSubjectRole("alice", "resident"),
		sys.AddObject("tv"),
		sys.AssignObjectRole("tv", "appliance"),
		sys.AddTransaction(SimpleTransaction("use")),
		sys.Grant(Permission{
			Subject: "resident", Object: "appliance",
			Environment: "daytime", Transaction: "use", Effect: Permit,
		}),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
	return sys
}

// TestFailSafeDenyAnnotation drives the full fail-safe chain with and
// without the decision cache: expired context deactivates the environment role, the
// decision falls to default deny, and the reason (hence Explain and the
// audit trail) names the stale context.
func TestFailSafeDenyAnnotation(t *testing.T) {
	paths := []struct {
		name string
		opts []Option
	}{
		{"snapshot", nil},
		{"uncached", []Option{WithoutDecisionCache()}},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			src := &fakeExpiringSource{roles: []RoleID{"daytime"}}
			sys := failSafeSystem(t, src, path.opts...)
			req := Request{Subject: "alice", Object: "tv", Transaction: "use"}

			// Fresh context, role active: allowed, no annotation.
			d, err := sys.Decide(req)
			if err != nil {
				t.Fatal(err)
			}
			if !d.Allowed || strings.Contains(d.Reason, "fail-safe") {
				t.Fatalf("fresh context: %+v", d)
			}

			// Context expires: the source deactivates the role (fail-safe)
			// and reports the stale keys.
			src.roles = nil
			src.expired = []string{"motion.kitchen", "presence.alice"}
			d, err = sys.Decide(req)
			if err != nil {
				t.Fatal(err)
			}
			if d.Allowed {
				t.Fatalf("expired context still allowed: %+v", d)
			}
			for _, want := range []string{"fail-safe", "motion.kitchen", "presence.alice"} {
				if !strings.Contains(d.Reason, want) {
					t.Errorf("Reason %q missing %q", d.Reason, want)
				}
				if !strings.Contains(d.Explain(), want) {
					t.Errorf("Explain missing %q", want)
				}
			}

			// A cache hit must repeat the annotated reason.
			d2, err := sys.Decide(req)
			if err != nil {
				t.Fatal(err)
			}
			if d2.Reason != d.Reason {
				t.Fatalf("cache hit reason %q != cold reason %q", d2.Reason, d.Reason)
			}

			// CheckAccess populates the cache on a miss; a Decide hitting
			// that entry must still carry the annotation. Any mutation
			// bumps the generation and empties the cache.
			if err := sys.AddSubject("cache-buster"); err != nil {
				t.Fatal(err)
			}
			if ok, err := sys.CheckAccess(req); err != nil || ok {
				t.Fatalf("CheckAccess = %v, %v", ok, err)
			}
			d3, err := sys.Decide(req)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(d3.Reason, "fail-safe") {
				t.Fatalf("Decide after CheckAccess-miss lost the annotation: %q", d3.Reason)
			}
		})
	}
}

// TestFailSafeSkipsExplicitEnvironment: a request carrying its own
// environment snapshot never consults the live source, so expired context
// must not leak into its explanation.
func TestFailSafeSkipsExplicitEnvironment(t *testing.T) {
	src := &fakeExpiringSource{expired: []string{"stale.key"}}
	sys := failSafeSystem(t, src)
	d, err := sys.Decide(Request{
		Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []RoleID{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Allowed || strings.Contains(d.Reason, "fail-safe") {
		t.Fatalf("explicit-environment request annotated: %+v", d)
	}
}

// TestFailSafeNeverAnnotatesAllows: if some other permission still grants
// despite the expired context, the reason must stay the granting rule.
func TestFailSafeNeverAnnotatesAllows(t *testing.T) {
	src := &fakeExpiringSource{roles: []RoleID{"daytime"}, expired: []string{"stale.key"}}
	sys := failSafeSystem(t, src)
	d, err := sys.Decide(Request{Subject: "alice", Object: "tv", Transaction: "use"})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed {
		t.Fatalf("want allow: %+v", d)
	}
	if strings.Contains(d.Reason, "fail-safe") {
		t.Fatalf("allow annotated with fail-safe: %q", d.Reason)
	}
}

// TestFailSafeAnnotatedPerCall: the cache keeps the unannotated verdict, so
// every Decide annotates (and counts) against the context as it is at that
// call. A deny cached while context was expired loses the annotation once
// the context is fresh again, even though the same roles stay inactive, and
// a hit on an expired-context deny counts like the miss did.
func TestFailSafeAnnotatedPerCall(t *testing.T) {
	src := &fakeExpiringSource{expired: []string{"motion.kitchen"}}
	sys := failSafeSystem(t, src)
	req := Request{Subject: "alice", Object: "tv", Transaction: "use"}
	for i, want := range []uint64{1, 2} {
		d, err := sys.Decide(req)
		if err != nil {
			t.Fatal(err)
		}
		if d.Allowed || !strings.Contains(d.Reason, "fail-safe: environment context expired (motion.kitchen)") {
			t.Fatalf("decide %d over expired context: %+v", i, d)
		}
		if got := sys.Stats().FailSafeDenies; got != want {
			t.Fatalf("after decide %d FailSafeDenies = %d, want %d", i, got, want)
		}
	}
	src.expired = nil // refreshed, and still no environment role is active
	d, err := sys.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if st := sys.Stats(); st.DecisionHits != 2 || st.FailSafeDenies != 2 {
		t.Fatalf("Stats() = %+v, want 2 hits and 2 fail-safe denies", st)
	}
	if d.Allowed || strings.Contains(d.Reason, "fail-safe") {
		t.Fatalf("deny over fresh context still annotated: %q", d.Reason)
	}
}
