package experiments

import (
	"math/rand"
	"testing"
)

func TestBuildScaledGRBACMatchesExactlyOneRule(t *testing.T) {
	s, req, err := BuildScaledGRBAC(100, 16, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Allowed {
		t.Fatalf("probe denied: %s", d.Explain())
	}
	if len(d.Matches) != 1 {
		t.Fatalf("matches = %d, want exactly 1", len(d.Matches))
	}
}

func TestNewRandomRBACShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, subjects, txs := NewRandomRBAC(rng, 10, 5, 8)
	if len(subjects) != 10 || len(txs) != 8 {
		t.Fatalf("universe sizes wrong: %d, %d", len(subjects), len(txs))
	}
	// Every subject has at least one role (guaranteed by the builder).
	for _, sub := range subjects {
		if len(s.AuthorizedRoles(sub)) == 0 {
			t.Fatalf("subject %s has no roles", sub)
		}
	}
}
