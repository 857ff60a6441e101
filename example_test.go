package grbac_test

import (
	"context"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	grbac "github.com/aware-home/grbac"
	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/clock"
	"github.com/aware-home/grbac/internal/pdp"
)

// ExampleSystem_Decide shows the §5.1 policy as library calls: one rule
// over three role kinds, mediated twice.
func ExampleSystem_Decide() {
	sys := grbac.NewSystem()
	_ = sys.AddRole(grbac.Role{ID: "child", Kind: grbac.SubjectRole})
	_ = sys.AddRole(grbac.Role{ID: "entertainment-devices", Kind: grbac.ObjectRole})
	_ = sys.AddRole(grbac.Role{ID: "weekday-free-time", Kind: grbac.EnvironmentRole})
	_ = sys.AddSubject("alice")
	_ = sys.AssignSubjectRole("alice", "child")
	_ = sys.AddObject("tv")
	_ = sys.AssignObjectRole("tv", "entertainment-devices")
	_ = sys.AddTransaction(grbac.SimpleTransaction("use"))
	_ = sys.Grant(grbac.Permission{
		Subject:     "child",
		Object:      "entertainment-devices",
		Environment: "weekday-free-time",
		Transaction: "use",
		Effect:      grbac.Permit,
	})

	inWindow, _ := sys.Decide(grbac.Request{
		Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []grbac.RoleID{"weekday-free-time"},
	})
	outOfWindow, _ := sys.Decide(grbac.Request{
		Subject: "alice", Object: "tv", Transaction: "use",
		Environment: []grbac.RoleID{},
	})
	fmt.Println(inWindow.Effect, outOfWindow.Effect)
	fmt.Print(inWindow.Explain()) // which roles and rules decided, at what confidence
	// Output:
	// permit deny
	// decision: permit (1 matching permission(s) resolved to permit by deny-overrides)
	//   subject role "*subject*" (confidence 1.00)
	//   subject role "child" (confidence 1.00)
	//   matched: permit "use" for (child, entertainment-devices, weekday-free-time) at confidence 1.00
}

// Example_rbac is the RBAC decision table OPA's documentation teaches with
// (users alice and bob, roles engineering, webdev and hr), written as a
// GRBAC policy. RBAC's tables have no column for the world outside the
// request; GRBAC adds one, the environment role: here webdev may write to
// server123 only while "weekday" is active.
func Example_rbac() {
	sys, engine, err := grbac.BuildPolicy(`
subject role engineering;
subject role webdev;
subject role hr;
object role servers;
object role databases;
env role weekday when time "weekly mon-fri";
subject alice is engineering, webdev;
subject bob is hr;
object server123 is servers;
object database456 is databases;
transaction read;
transaction write;
grant engineering read servers;
grant webdev read servers;
grant webdev write servers when weekday;
grant hr read databases;
`)
	if err != nil {
		fmt.Println(err)
		return
	}
	monday := time.Date(2000, 1, 17, 12, 0, 0, 0, time.UTC)
	saturday := time.Date(2000, 1, 22, 12, 0, 0, 0, time.UTC)
	fmt.Println("user   op     resource     monday  saturday")
	for _, q := range []struct {
		user grbac.SubjectID
		op   grbac.TransactionID
		res  grbac.ObjectID
	}{
		{"alice", "read", "server123"},
		{"alice", "write", "server123"},
		{"bob", "read", "database456"},
		{"bob", "read", "server123"},
	} {
		decide := func(at time.Time) grbac.Effect {
			d, _ := sys.Decide(grbac.Request{
				Subject: q.user, Object: q.res, Transaction: q.op,
				Environment: engine.ActiveRolesAt(at, q.user),
			})
			return d.Effect
		}
		fmt.Printf("%-6s %-6s %-12s %-7s %s\n", q.user, q.op, q.res, decide(monday), decide(saturday))
	}
	// Output:
	// user   op     resource     monday  saturday
	// alice  read   server123    permit  permit
	// alice  write  server123    permit  deny
	// bob    read   database456  permit  permit
	// bob    read   server123    deny    deny
}

// ExampleBuildPolicy compiles a declarative policy and mediates with live
// environment-role evaluation.
func ExampleBuildPolicy() {
	sys, engine, err := grbac.BuildPolicy(`
subject role child;
object role toys;
env role playtime when time "daily 15:00-18:00";
subject bobby is child;
object blocks is toys;
transaction use;
grant child use toys when playtime;
`)
	if err != nil {
		fmt.Println(err)
		return
	}
	afternoon := time.Date(2000, 1, 17, 16, 0, 0, 0, time.UTC)
	night := time.Date(2000, 1, 17, 22, 0, 0, 0, time.UTC)
	for _, at := range []time.Time{afternoon, night} {
		ok, _ := sys.CheckAccess(grbac.Request{
			Subject: "bobby", Object: "blocks", Transaction: "use",
			Environment: engine.ActiveRolesAt(at, "bobby"),
		})
		fmt.Println(ok)
	}
	// Output:
	// true
	// false
}

// ExampleBuildPolicyWithStore is the paper's §2 Cyberfridge, whose
// inventory the family reads from anywhere, with §3's repairman, who may
// service it "only while he is inside the home on January 17, 2000, between
// 8:00 a.m. and 1:00 p.m.". The example owns the environment store, so it
// can walk the technician into the kitchen.
func ExampleBuildPolicyWithStore() {
	store := grbac.NewEnvironmentStore()
	sys, engine, err := grbac.BuildPolicyWithStore(`
subject role family-member;
subject role parent extends family-member;
subject role child extends family-member;
subject role service-agent;
subject role fridge-service-tech extends service-agent;
object role inventory;
object role grocery-orders;
object role kitchen-appliances;
env role anytime when time "always";
env role service-window when all(
    time "between 2000-01-17T08:00:00Z and 2000-01-17T13:00:00Z",
    subject-attr location == "kitchen");
subject mom is parent;
subject bobby is child;
subject tech is fridge-service-tech;
object fridge-contents is inventory;
object milk-order is grocery-orders;
object fridge is kitchen-appliances;
transaction read;
transaction reorder;
transaction service;
grant family-member read inventory when anytime;
grant parent reorder grocery-orders when anytime;
grant fridge-service-tech service kitchen-appliances when service-window;
`, store)
	if err != nil {
		fmt.Println(err)
		return
	}
	decide := func(at time.Time, sub grbac.SubjectID, tx grbac.TransactionID, obj grbac.ObjectID) {
		d, _ := sys.Decide(grbac.Request{
			Subject: sub, Object: obj, Transaction: tx,
			Environment: engine.ActiveRolesAt(at, sub),
		})
		fmt.Printf("%s  %-5s %-8s %-15s %s\n", at.Format("Jan 02 15:04"), sub, tx, obj, d.Effect)
	}
	sunday := time.Date(2000, 1, 16, 22, 0, 0, 0, time.UTC)
	inWindow := time.Date(2000, 1, 17, 10, 0, 0, 0, time.UTC)
	afterWindow := time.Date(2000, 1, 17, 14, 0, 0, 0, time.UTC)

	fmt.Println("family access, any time, any place:")
	decide(sunday, "mom", "read", "fridge-contents")
	decide(sunday, "bobby", "read", "fridge-contents")
	decide(sunday, "mom", "reorder", "milk-order")
	decide(sunday, "bobby", "reorder", "milk-order")
	fmt.Println("tech still outside the house:")
	decide(inWindow, "tech", "service", "fridge")
	fmt.Println("tech walks into the kitchen:")
	store.Set("location.tech", grbac.EnvString("kitchen"))
	decide(inWindow, "tech", "service", "fridge")
	fmt.Println("tech lingers past 1:00 p.m.:")
	decide(afterWindow, "tech", "service", "fridge")
	fmt.Println("and the tech never had inventory access:")
	decide(inWindow, "tech", "read", "fridge-contents")
	// Output:
	// family access, any time, any place:
	// Jan 16 22:00  mom   read     fridge-contents permit
	// Jan 16 22:00  bobby read     fridge-contents permit
	// Jan 16 22:00  mom   reorder  milk-order      permit
	// Jan 16 22:00  bobby reorder  milk-order      deny
	// tech still outside the house:
	// Jan 17 10:00  tech  service  fridge          deny
	// tech walks into the kitchen:
	// Jan 17 10:00  tech  service  fridge          permit
	// tech lingers past 1:00 p.m.:
	// Jan 17 14:00  tech  service  fridge          deny
	// and the tech never had inventory access:
	// Jan 17 10:00  tech  read     fridge-contents deny
}

// Example_elderlycare is the paper's §2 aging-in-place home, which shares
// an elderly resident's sensor data with a relative and a nurse. Object
// roles keep the wellness summary apart from medical detail, confidence
// thresholds gate the camera as §3 prescribes (strong authentication
// streams video, weak authentication sees a still), and the audit trail,
// stamped by the same simulated clock the decisions read, answers "who
// looked at grandma's data?".
func Example_elderlycare() {
	sys, engine, err := grbac.BuildPolicy(`
subject role caregiver;
subject role relative extends caregiver;
subject role care-specialist extends caregiver;
object role wellness-data;
object role medical-detail;
object role cameras;
env role anytime when time "always";
env role care-hours when time "daily 08:00-20:00";
subject daughter is relative;
subject nurse is care-specialist;
object activity-summary is wellness-data;
object medication-log is medical-detail;
object living-room-camera is cameras;
transaction read;
transaction view-stream;
transaction view-still;
grant caregiver read wellness-data when anytime;
grant care-specialist read medical-detail when care-hours;
grant caregiver view-stream cameras when anytime with confidence >= 0.9;
grant caregiver view-still cameras when anytime with confidence >= 0.6;
`)
	if err != nil {
		fmt.Println(err)
		return
	}
	clk := clock.NewFake(time.Date(2000, 1, 17, 10, 0, 0, 0, time.UTC))
	trail := audit.NewLogger(audit.WithClock(clk))
	audited := audit.Wrap(sys, trail)
	decide := func(sub grbac.SubjectID, tx grbac.TransactionID, obj grbac.ObjectID, creds grbac.CredentialSet) {
		d, _ := audited.Decide(grbac.Request{
			Subject: sub, Object: obj, Transaction: tx, Credentials: creds,
			Environment: engine.ActiveRolesAt(clk.Now(), sub),
		})
		fmt.Printf("%s %-9s %-12s %-19s %s\n", clk.Now().Format("15:04"), sub, tx, obj, d.Effect)
	}

	fmt.Println("daily care checks:")
	decide("daughter", "read", "activity-summary", nil)
	decide("nurse", "read", "activity-summary", nil)
	decide("daughter", "read", "medication-log", nil)
	decide("nurse", "read", "medication-log", nil)
	fmt.Println("camera, by password (1.0), then by caller ID (0.7):")
	strong := grbac.CredentialSet{grbac.IdentityCredential("daughter", 1.0, "password")}
	weak := grbac.CredentialSet{grbac.IdentityCredential("daughter", 0.7, "caller-id")}
	decide("daughter", "view-stream", "living-room-camera", strong)
	decide("daughter", "view-stream", "living-room-camera", weak)
	decide("daughter", "view-still", "living-room-camera", weak)
	fmt.Println("after hours, even the nurse loses medical detail:")
	clk.Set(time.Date(2000, 1, 17, 22, 30, 0, 0, time.UTC))
	decide("nurse", "read", "medication-log", nil)
	fmt.Println("who looked at grandma's data:")
	fmt.Print(audit.Render(trail.Records()))
	// Output:
	// daily care checks:
	// 10:00 daughter  read         activity-summary    permit
	// 10:00 nurse     read         activity-summary    permit
	// 10:00 daughter  read         medication-log      deny
	// 10:00 nurse     read         medication-log      permit
	// camera, by password (1.0), then by caller ID (0.7):
	// 10:00 daughter  view-stream  living-room-camera  permit
	// 10:00 daughter  view-stream  living-room-camera  deny
	// 10:00 daughter  view-still   living-room-camera  permit
	// after hours, even the nurse loses medical detail:
	// 22:30 nurse     read         medication-log      deny
	// who looked at grandma's data:
	// #1 2000-01-17T10:00:00Z PERMIT daughter "read" on "activity-summary": 1 matching permission(s) resolved to permit by deny-overrides (deny-overrides)
	// #2 2000-01-17T10:00:00Z PERMIT nurse "read" on "activity-summary": 1 matching permission(s) resolved to permit by deny-overrides (deny-overrides)
	// #3 2000-01-17T10:00:00Z DENY daughter "read" on "medication-log": no permission matches transaction "read" on object "medication-log": default deny (deny-overrides)
	// #4 2000-01-17T10:00:00Z PERMIT nurse "read" on "medication-log": 1 matching permission(s) resolved to permit by deny-overrides (deny-overrides)
	// #5 2000-01-17T10:00:00Z PERMIT daughter "view-stream" on "living-room-camera": 1 matching permission(s) resolved to permit by deny-overrides (deny-overrides)
	// #6 2000-01-17T10:00:00Z DENY daughter "view-stream" on "living-room-camera": no permission matches transaction "view-stream" on object "living-room-camera": default deny (deny-overrides)
	// #7 2000-01-17T10:00:00Z PERMIT daughter "view-still" on "living-room-camera": 1 matching permission(s) resolved to permit by deny-overrides (deny-overrides)
	// #8 2000-01-17T22:30:00Z DENY nurse "read" on "medication-log": no permission matches transaction "read" on object "medication-log": default deny (deny-overrides)
}

// Example_community is the paper's "connected community" (§1): the home's
// GRBAC engine serves as a networked policy decision point (cmd/grbacd
// -admin serves the same API on a real socket), and applications elsewhere
// administer and mediate over HTTP. The homeowner shares barbecue photos
// with the neighbors in the evening, and home movies only with family.
func Example_community() {
	server := httptest.NewServer(pdp.NewServer(grbac.NewSystem(), pdp.WithAdmin()))
	defer server.Close()
	client := pdp.NewClient(server.URL, server.Client())
	ctx := context.Background()

	for _, err := range []error{
		client.CreateRole(ctx, pdp.RoleRequest{ID: "family", Kind: "subject"}),
		client.CreateRole(ctx, pdp.RoleRequest{ID: "neighbor", Kind: "subject"}),
		client.CreateRole(ctx, pdp.RoleRequest{ID: "shared-albums", Kind: "object"}),
		client.CreateRole(ctx, pdp.RoleRequest{ID: "private-albums", Kind: "object"}),
		client.CreateRole(ctx, pdp.RoleRequest{ID: "evenings", Kind: "environment"}),
		client.UpsertSubject(ctx, pdp.BindingRequest{ID: "grandma", Roles: []string{"family"}}),
		client.UpsertSubject(ctx, pdp.BindingRequest{ID: "ned", Roles: []string{"neighbor"}}),
		client.UpsertObject(ctx, pdp.BindingRequest{ID: "bbq-photos", Roles: []string{"shared-albums"}}),
		client.UpsertObject(ctx, pdp.BindingRequest{ID: "home-movies", Roles: []string{"private-albums"}}),
		client.CreateTransaction(ctx, pdp.TransactionRequest{ID: "view"}),
		client.GrantPermission(ctx, pdp.PermissionRequest{Subject: "neighbor", Object: "shared-albums",
			Environment: "evenings", Transaction: "view", Effect: "permit"}),
		client.GrantPermission(ctx, pdp.PermissionRequest{Subject: "family", Object: "shared-albums",
			Environment: "*environment*", Transaction: "view", Effect: "permit"}),
		client.GrantPermission(ctx, pdp.PermissionRequest{Subject: "family", Object: "private-albums",
			Environment: "*environment*", Transaction: "view", Effect: "permit"}),
	} {
		if err != nil {
			fmt.Println(err)
			return
		}
	}

	check := func(subject, object string, env []string) {
		ok, err := client.Check(ctx, pdp.DecideRequest{
			Subject: subject, Object: object, Transaction: "view", Environment: env,
		})
		outcome := "deny"
		switch {
		case err != nil:
			outcome = err.Error()
		case ok:
			outcome = "permit"
		}
		fmt.Printf("%-8s views %-12s env=%-10s %s\n", subject, object, fmt.Sprint(env), outcome)
	}
	check("ned", "bbq-photos", []string{"evenings"})
	check("ned", "bbq-photos", []string{})
	check("ned", "home-movies", []string{"evenings"})
	check("grandma", "home-movies", []string{})
	check("grandma", "bbq-photos", []string{})

	who, _ := client.WhoCan(ctx, "view", "bbq-photos", []string{"evenings"})
	fmt.Println("who can view bbq-photos in the evening:", who)
	what, _ := client.WhatCan(ctx, "ned", []string{"evenings"})
	fmt.Println("what can ned do in the evening:", what)
	// Output:
	// ned      views bbq-photos   env=[evenings] permit
	// ned      views bbq-photos   env=[]         deny
	// ned      views home-movies  env=[evenings] deny
	// grandma  views home-movies  env=[]         permit
	// grandma  views bbq-photos   env=[]         permit
	// who can view bbq-photos in the evening: [grandma ned]
	// what can ned do in the evening: [{bbq-photos view}]
}

// ExampleRoleCredential reproduces the paper's partial-authentication
// argument: role-level evidence can clear a threshold that identity-level
// evidence cannot.
func ExampleRoleCredential() {
	sys := grbac.NewSystem(grbac.WithMinConfidence(0.90))
	_ = sys.AddRole(grbac.Role{ID: "child", Kind: grbac.SubjectRole})
	_ = sys.AddRole(grbac.Role{ID: "entertainment", Kind: grbac.ObjectRole})
	_ = sys.AddSubject("alice")
	_ = sys.AssignSubjectRole("alice", "child")
	_ = sys.AddObject("tv")
	_ = sys.AssignObjectRole("tv", "entertainment")
	_ = sys.AddTransaction(grbac.SimpleTransaction("use"))
	_ = sys.Grant(grbac.Permission{
		Subject: "child", Object: "entertainment",
		Environment: grbac.AnyEnvironment, Transaction: "use", Effect: grbac.Permit,
	})

	// The Smart Floor: Alice at 75%, but "a child" at 98%.
	creds := grbac.CredentialSet{
		grbac.IdentityCredential("alice", 0.75, "smart-floor"),
		grbac.RoleCredential("child", 0.98, "smart-floor"),
	}
	d, _ := sys.Decide(grbac.Request{
		Subject: "alice", Object: "tv", Transaction: "use",
		Credentials: creds, Environment: []grbac.RoleID{},
	})
	fmt.Println(d.Allowed)
	// Output: true
}

// TestExamplesAreDriven keeps examples/ honest: a program there prints
// decisions that only a smoke drill checks, so every example directory must
// be built by a scripts/ drill that CI runs. A scenario that runs in
// process belongs in an Example function above, whose output go test checks.
func TestExamplesAreDriven(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var drills []byte
	for _, m := range regexp.MustCompile(`scripts/\w+\.sh`).FindAll(ci, -1) {
		src, err := os.ReadFile(string(m))
		if err != nil {
			t.Fatal(err)
		}
		drills = append(drills, src...)
	}
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		built := regexp.MustCompile(`go build [^\n]*\./examples/` + regexp.QuoteMeta(d.Name()) + `\b`)
		if d.IsDir() && !built.Match(drills) {
			t.Errorf("examples/%s is built by no scripts/ drill that ci.yml runs: make it an Example function", d.Name())
		}
	}
}

// TestExperimentsCiteLiveChecks keeps EXPERIMENTS.md and DESIGN.md §4's
// experiment index honest: every test, benchmark or example either one
// names in backticks must be declared in a _test.go file of this
// repository, so a claim cannot outlive the check that produced it. A name
// ending in * or … stands for every function with that prefix, and must
// match at least one.
func TestExperimentsCiteLiveChecks(t *testing.T) {
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Example)\w*)\(`)
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	experiments, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	index, ok := section(string(design), "## 4.")
	if !ok {
		t.Fatal("DESIGN.md has no §4")
	}
	docs := map[string]string{
		"EXPERIMENTS.md":       string(experiments),
		"DESIGN.md §4's table": strings.Join(regexp.MustCompile(`(?m)^\|.*$`).FindAllString(index, -1), "\n"),
	}
	span := regexp.MustCompile("`([^`\n]+)`")
	cited := regexp.MustCompile(`\b((?:Test|Benchmark|Example)[A-Z_]\w*)([*…]?)`)
	for doc, text := range docs {
		for _, s := range span.FindAllStringSubmatch(text, -1) {
			for _, m := range cited.FindAllStringSubmatch(s[1], -1) {
				name, prefix := m[1], m[2] != ""
				found := declared[name]
				for d := range declared {
					found = found || prefix && strings.HasPrefix(d, name)
				}
				if !found {
					t.Errorf("%s cites `%s`, which no _test.go file declares", doc, s[1])
				}
			}
		}
	}
}

// TestCIRunRegexesSelectTests keeps CI's test selection live: every |
// alternative of every -run regex in ci.yml and the Makefile must match a
// Test, Fuzz, Benchmark or Example function in the packages its command
// names, and every -fuzz target must name exactly one Fuzz function there,
// so renaming a test cannot silently drop it from a repeat or fuzz step.
// The one exemption is the match-nothing -run (XXX or ^$) of a -bench or
// -fuzz step.
func TestCIRunRegexesSelectTests(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	funcs := map[string][]string{} // package directory → its test functions
	var modules []string           // directories holding a go.mod
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.Name() == "go.mod":
			modules = append(modules, filepath.Dir(p))
		case strings.HasSuffix(p, "_test.go"):
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			for _, m := range decl.FindAllSubmatch(src, -1) {
				funcs[filepath.Dir(p)] = append(funcs[filepath.Dir(p)], string(m[1]))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	within := func(dir, root string) bool {
		return root == "." || dir == root || strings.HasPrefix(dir, root+"/")
	}
	moduleOf := func(dir string) (mod string) {
		for _, m := range modules {
			if within(dir, m) && len(m) >= len(mod) {
				mod = m
			}
		}
		return mod
	}
	// named returns the test functions of the packages a go test command
	// run in base names, "./..." staying inside base's module.
	named := func(base string, pkgs []string) []string {
		var out []string
		for dir, fns := range funcs {
			for _, p := range pkgs {
				p = filepath.Join(base, p)
				if root, ok := strings.CutSuffix(p, "..."); ok {
					root = filepath.Clean(root)
					if within(dir, root) && moduleOf(dir) == moduleOf(root) {
						out = append(out, fns...)
						break
					}
				} else if dir == p {
					out = append(out, fns...)
					break
				}
			}
		}
		return out
	}
	matching := func(re string, fns []string) (n int) {
		rx, err := regexp.Compile(re)
		if err != nil {
			t.Fatalf("regex %q: %v", re, err)
		}
		for _, fn := range fns {
			if rx.MatchString(fn) {
				n++
			}
		}
		return n
	}

	cd := regexp.MustCompile(`cd (\S+) && go test`)
	checked := 0
	for _, file := range []string{filepath.Join(".github", "workflows", "ci.yml"), "Makefile"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		if file == "Makefile" {
			text = strings.ReplaceAll(text, "$$", "$")
		}
		for _, line := range strings.Split(text, "\n") {
			_, cmd, ok := strings.Cut(line, "go test ")
			if !ok {
				continue
			}
			base := "."
			if m := cd.FindStringSubmatch(line); m != nil {
				base = m[1]
			}
			flags := map[string]string{}
			var pkgs []string
			args := shellFields(cmd)
		args:
			for i := 0; i < len(args); i++ {
				switch a := args[i]; {
				case a == "&&" || a == ";" || a == "|" || a == "#":
					break args
				case (a == "-run" || a == "-fuzz" || a == "-bench") && i+1 < len(args):
					flags[a] = args[i+1]
					i++
				case strings.HasPrefix(a, "./"):
					pkgs = append(pkgs, a)
				}
			}
			run, fuzz, bench := flags["-run"], flags["-fuzz"], flags["-bench"]
			if len(pkgs) == 0 {
				pkgs = []string{"."}
			}
			fns := named(base, pkgs)
			where := fmt.Sprintf("%s: go test %s", file, strings.TrimSpace(cmd))
			if fuzz != "" {
				checked++
				var targets []string
				for _, fn := range fns {
					if strings.HasPrefix(fn, "Fuzz") {
						targets = append(targets, fn)
					}
				}
				if n := matching(fuzz, targets); n != 1 {
					t.Errorf("%s: -fuzz %s matches %d Fuzz functions, want 1", where, fuzz, n)
				}
			}
			if run == "" || (fuzz != "" || bench != "") && (run == "XXX" || run == "^$") {
				continue
			}
			checked++
			for _, alt := range alternatives(run) {
				if matching(alt, fns) == 0 {
					t.Errorf("%s: -run alternative %q matches no test function", where, alt)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run or -fuzz in ci.yml or the Makefile")
	}
}

// shellFields splits a shell command line into words, honouring single
// and double quotes.
func shellFields(s string) []string {
	var out []string
	var word strings.Builder
	inWord, quote := false, byte(0)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case quote != 0 && c == quote:
			quote = 0
		case quote != 0:
			word.WriteByte(c)
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == ' ' || c == '\t':
			if inWord {
				out = append(out, word.String())
				word.Reset()
				inWord = false
			}
		default:
			word.WriteByte(c)
			inWord = true
		}
	}
	if inWord {
		out = append(out, word.String())
	}
	return out
}

// alternatives splits a regular expression at its top-level |.
func alternatives(re string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, re[start:i])
				start = i + 1
			}
		}
	}
	return append(out, re[start:])
}
