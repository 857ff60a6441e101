package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

func TestAllRegistryIsComplete(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("experiments = %d, want 15", len(all))
	}
	seen := make(map[string]bool)
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Source == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := Find("E11"); !ok {
		t.Fatal("Find(E11) failed")
	}
	if _, ok := Find("E99"); ok {
		t.Fatal("Find(E99) succeeded")
	}
}

func runCapture(t *testing.T, id string) string {
	t.Helper()
	e, ok := Find(id)
	if !ok {
		t.Fatalf("unknown experiment %s", id)
	}
	var buf bytes.Buffer
	if err := e.Run(&buf); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return buf.String()
}

func TestE1ReportsFullAgreement(t *testing.T) {
	out := runCapture(t, "E1")
	if !strings.Contains(out, "12000/12000 decisions (100.0%)") {
		t.Fatalf("E1 agreement missing:\n%s", out)
	}
}

func TestE2ReportsFigure2(t *testing.T) {
	out := runCapture(t, "E2")
	for _, want := range []string{
		"alice        possesses [child family-member home-user]",
		"repair-tech  possesses [authorized-guest dishwasher-repair-tech home-user service-agent]",
		"single grant on home-user covers 5/5 subjects",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("E2 missing %q:\n%s", want, out)
		}
	}
}

func TestE3WeekSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("week sweep is slow")
	}
	out := runCapture(t, "E3")
	for _, want := range []string{
		"Monday     180", "Friday     180", "Saturday   0", "Sunday     0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("E3 missing %q:\n%s", want, out)
		}
	}
}

func TestE4CrossoverRows(t *testing.T) {
	out := runCapture(t, "E4")
	// At 0.75 both paths pass; at 0.90 only the role path; at 1.00 neither.
	for _, want := range []string{
		"0.75       permit                permit",
		"0.90       deny                  permit",
		"1.00       deny                  deny",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("E4 missing %q:\n%s", want, out)
		}
	}
}

func TestE5WindowRows(t *testing.T) {
	out := runCapture(t, "E5")
	for _, want := range []string{
		"08:30 outside             deny",
		"08:30 kitchen             permit",
		"13:01 kitchen             deny",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("E5 missing %q:\n%s", want, out)
		}
	}
}

func TestE6Matrix(t *testing.T) {
	out := runCapture(t, "E6")
	if !strings.Contains(out, "alice     permit      permit      deny        deny") {
		t.Fatalf("E6 child row wrong:\n%s", out)
	}
	if !strings.Contains(out, "mom       permit      permit      permit      permit") {
		t.Fatalf("E6 parent row wrong:\n%s", out)
	}
}

func TestEncodingExperimentsReportFullAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("encoding sweeps are slow")
	}
	for _, id := range []string{"E7", "E8", "E9", "E10", "E11"} {
		out := runCapture(t, id)
		if !strings.Contains(out, "(100.0%)") {
			t.Fatalf("%s agreement below 100%%:\n%s", id, out)
		}
	}
}

func TestE11StrictnessWitness(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	out := runCapture(t, "E11")
	if !strings.Contains(out, "0/16 lattice assignments") {
		t.Fatalf("E11 witness missing:\n%s", out)
	}
}

func TestE13Table(t *testing.T) {
	out := runCapture(t, "E13")
	// 20 children × 50 devices: 1000 ACL entries, 50 RBAC grants, 1 rule.
	if !strings.Contains(out, "1000") || !strings.Contains(out, "GRBAC-rules") {
		t.Fatalf("E13 table wrong:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "devices") || strings.Contains(line, "note") ||
			strings.Contains(line, "GRBAC's") || strings.TrimSpace(line) == "" {
			continue
		}
		if !strings.HasSuffix(strings.TrimRight(line, " "), "1") {
			t.Fatalf("GRBAC column not constant 1 in %q", line)
		}
	}
}

func TestE14Outcomes(t *testing.T) {
	out := runCapture(t, "E14")
	for _, want := range []string{
		"simultaneous activation rejected=true, sequential allowed=true",
		"deny-overrides=deny permit-overrides=permit most-specific-wins=deny",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("E14 missing %q:\n%s", want, out)
		}
	}
}

func TestE15RhythmShape(t *testing.T) {
	out := runCapture(t, "E15")
	if !strings.Contains(out, "19:00") || !strings.Contains(out, "trusted log") {
		t.Fatalf("E15 output missing expected sections:\n%s", out)
	}
	// Shape: the after-school hours (15-17) are the permit-rate trough —
	// children's entertainment denials dominate them — while the morning
	// hours run at 100%.
	rate := func(prefix string) int {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, prefix) {
				fields := strings.Fields(line)
				if len(fields) >= 4 {
					var r int
					if _, err := fmt.Sscanf(fields[3], "%d%%", &r); err == nil {
						return r
					}
				}
			}
		}
		return -1
	}
	if r := rate("07:00"); r != 100 {
		t.Fatalf("morning rate = %d%%, want 100%%", r)
	}
	if r := rate("16:00"); r < 0 || r >= 50 {
		t.Fatalf("after-school rate = %d%%, want trough below 50%%", r)
	}
	if rate("19:00") <= rate("16:00") {
		t.Fatalf("evening (%d%%) not above after-school trough (%d%%)",
			rate("19:00"), rate("16:00"))
	}
}

func TestRunAllSucceeds(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite is slow")
	}
	if err := RunAll(io.Discard); err != nil {
		t.Fatal(err)
	}
}

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

func TestThroughputSane(t *testing.T) {
	n := 0
	ops, per := Throughput(1000, func() { n++ })
	if n != 1000 {
		t.Fatalf("fn ran %d times", n)
	}
	if ops <= 0 || per <= 0 {
		t.Fatalf("ops=%v per=%v", ops, per)
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
