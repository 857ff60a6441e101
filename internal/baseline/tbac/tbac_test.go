package tbac

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/temporal"
)

func mustTime(t *testing.T, s string) time.Time {
	t.Helper()
	out, err := time.Parse(time.RFC3339, s)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPeriodicAuthorization(t *testing.T) {
	s := NewSystem()
	// Managers edit salary data only on the first Monday of each month
	// (the paper's §4.2.2 example, in Bertino's discretionary form).
	if err := s.Add(Authorization{
		Subject: "manager-bob", Object: "salary-db", Action: "edit",
		Period: temporal.NthWeekday{N: 1, Day: time.Monday}, Allow: true,
	}); err != nil {
		t.Fatal(err)
	}
	firstMonday := mustTime(t, "2000-01-03T10:00:00Z")
	secondMonday := mustTime(t, "2000-01-10T10:00:00Z")
	if !s.Allowed("manager-bob", "salary-db", "edit", firstMonday) {
		t.Fatal("denied on first Monday")
	}
	if s.Allowed("manager-bob", "salary-db", "edit", secondMonday) {
		t.Fatal("allowed on second Monday")
	}
	if s.Allowed("intern", "salary-db", "edit", firstMonday) {
		t.Fatal("discretionary grant leaked to another subject")
	}
	if s.Allowed("manager-bob", "salary-db", "read", firstMonday) {
		t.Fatal("grant leaked to another action")
	}
}

func TestNegativeTakesPrecedence(t *testing.T) {
	s := NewSystem()
	if err := s.Add(Authorization{
		Subject: "bob", Object: "db", Action: "read",
		Period: temporal.Always{}, Allow: true,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(Authorization{
		Subject: "bob", Object: "db", Action: "read",
		Period: temporal.WorkWeek(), Allow: false,
	}); err != nil {
		t.Fatal(err)
	}
	monday := mustTime(t, "2000-01-03T10:00:00Z")
	saturday := mustTime(t, "2000-01-08T10:00:00Z")
	if s.Allowed("bob", "db", "read", monday) {
		t.Fatal("weekday denial ignored")
	}
	if !s.Allowed("bob", "db", "read", saturday) {
		t.Fatal("weekend access denied")
	}
}

func TestValidation(t *testing.T) {
	s := NewSystem()
	if err := s.Add(Authorization{}); !errors.Is(err, core.ErrInvalid) {
		t.Fatalf("empty auth error = %v", err)
	}
	if err := s.Add(Authorization{Subject: "a", Object: "o", Action: "read"}); !errors.Is(err, core.ErrInvalid) {
		t.Fatalf("nil period error = %v", err)
	}
	if s.Len() != 0 {
		t.Fatal("invalid auths stored")
	}
}

// randomPeriods are the periods randomTBAC draws from.
var randomPeriods = []temporal.Period{
	temporal.Always{},
	temporal.WorkWeek(),
	temporal.MustParse("daily 09:00-17:00"),
	temporal.MustParse("monthly 1st mon"),
	temporal.Months(time.July),
	temporal.MustParse("daily 22:00-06:00"),
}

// randomTBAC builds a random periodic policy.
func randomTBAC(rng *rand.Rand) (*System, []core.SubjectID, []core.ObjectID, []core.Action) {
	s := NewSystem()
	subjects := []core.SubjectID{"s0", "s1", "s2"}
	objects := []core.ObjectID{"o0", "o1"}
	actions := []core.Action{"read", "write"}
	n := 1 + rng.Intn(10)
	for i := 0; i < n; i++ {
		a := Authorization{
			Subject: subjects[rng.Intn(len(subjects))],
			Object:  objects[rng.Intn(len(objects))],
			Action:  actions[rng.Intn(len(actions))],
			Period:  randomPeriods[rng.Intn(len(randomPeriods))],
			Allow:   rng.Intn(4) != 0,
		}
		if err := s.Add(a); err != nil {
			panic(err)
		}
	}
	return s, subjects, objects, actions
}

// TestEncodeGRBACEquivalence is experiment E8's core assertion: the GRBAC
// encoding agrees with the temporal-authorization baseline at random probe
// instants through a year, and at every membership change of every period
// randomTBAC draws from over the year 2000, probed at the change and 1 ns
// either side of it.
func TestEncodeGRBACEquivalence(t *testing.T) {
	base := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	end := base.AddDate(1, 0, 0)
	var boundaries []time.Time
	for _, p := range randomPeriods {
		for at := base; ; {
			next, ok := temporal.NextTransition(p, at, end.Sub(at))
			if !ok {
				break
			}
			boundaries = append(boundaries, next.Add(-time.Nanosecond), next, next.Add(time.Nanosecond))
			at = next
		}
	}
	if len(boundaries) == 0 {
		t.Fatal("no period changes membership over the year")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, subjects, objects, actions := randomTBAC(rng)
		enc, err := s.EncodeGRBAC()
		if err != nil {
			return false
		}
		agree := func(sub core.SubjectID, obj core.ObjectID, act core.Action, at time.Time) bool {
			want := s.Allowed(sub, obj, act, at)
			got, err := enc.Allowed(sub, obj, act, at)
			if err != nil {
				// Entities that appear in no authorization are absent
				// from the encoding; the baseline denies them too.
				return errors.Is(err, core.ErrNotFound) && !want
			}
			return got == want
		}
		for i := 0; i < 40; i++ {
			at := base.Add(time.Duration(rng.Int63n(int64(366 * 24 * time.Hour))))
			if !agree(subjects[rng.Intn(len(subjects))], objects[rng.Intn(len(objects))],
				actions[rng.Intn(len(actions))], at) {
				return false
			}
		}
		for _, at := range boundaries {
			for _, a := range s.auths {
				if !agree(a.Subject, a.Object, a.Action, at) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodedEnvironmentRoleNames(t *testing.T) {
	s := NewSystem()
	if err := s.Add(Authorization{
		Subject: "bob", Object: "db", Action: "read",
		Period: temporal.WorkWeek(), Allow: true,
	}); err != nil {
		t.Fatal(err)
	}
	enc, err := s.EncodeGRBAC()
	if err != nil {
		t.Fatal(err)
	}
	roles := enc.System.Roles(core.EnvironmentRole)
	if len(roles) != 1 || roles[0].ID != core.RoleID(fmt.Sprintf("period-%d", 0)) {
		t.Fatalf("environment roles = %+v", roles)
	}
}
