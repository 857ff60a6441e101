package main

import (
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/core"
)

func testConfig(seed int64) config {
	return config{seed: seed, probe: probeCounts{sessions: 20, flips: 10}}
}

func inputHash(t *testing.T, wl workload, seed int64) string {
	t.Helper()
	in, err := drawInputs(wl, testConfig(seed), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return in.stream.hash(append(in.schedule, in.probe...))
}

// The seed alone decides what the systems under test receive.
func TestSameSeedSameInputs(t *testing.T) {
	for _, wl := range workloads {
		a, b, other := inputHash(t, wl, 12), inputHash(t, wl, 12), inputHash(t, wl, 13)
		if a != b {
			t.Errorf("%s: seed 12 drew two different op streams", wl.name)
		}
		if a == other {
			t.Errorf("%s: seeds 12 and 13 drew the same op stream", wl.name)
		}
	}
}

// The generator's oracle is the paper's rule written a second time; it must
// agree with internal/core on the policy it generated, before and after a
// role flip.
func TestOracleAgreesWithCore(t *testing.T) {
	w := newWorld(12)
	sys, err := importState(core.NewSystem(), w.state)
	if err != nil {
		t.Fatal(err)
	}
	permits := 0
	const n = 20000
	for rank := uint64(0); rank < n; rank++ {
		r := w.requestAt(0xabc, rank*7919, 3)
		got, err := sys.CheckAccess(r.core)
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		if got != r.want {
			t.Fatalf("rank %d: core says %v, oracle says %v for %+v", rank, got, r.want, r.core)
		}
		if got {
			permits++
		}
	}
	if share := float64(permits) / n; share < 0.15 || share > 0.85 {
		t.Errorf("permit share %.2f: the policy should mix permits and denies", share)
	}

	subj := w.flipPool(nil)[0]
	before, after := w.flipRequest(subj, false), w.flipRequest(subj, true)
	if before.want || !after.want {
		t.Fatalf("oracle: flip request wants %v before and %v after the flip", before.want, after.want)
	}
	if got, _ := sys.CheckAccess(before.core); got {
		t.Error("core permits the flip request before the flip")
	}
	if err := sys.AssignSubjectRole(core.SubjectID(w.subjects[subj]), w.roleName[flipRoleIdx]); err != nil {
		t.Fatal(err)
	}
	if got, _ := sys.CheckAccess(after.core); !got {
		t.Error("core denies the flip request after the flip")
	}
}

// The traffic shapes are the ones BENCHMARK.json and the README promise.
func TestTrafficShapes(t *testing.T) {
	drawn := make(map[string]*inputs)
	for _, wl := range workloads {
		in, err := drawInputs(wl, testConfig(12), 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		drawn[wl.name] = in
		if len(in.stream.ops) != wl.deciders || wl.deciders > loadGoroutines {
			t.Errorf("%s: %d op streams for %d deciders (at most %d)", wl.name, len(in.stream.ops), wl.deciders, loadGoroutines)
		}
	}

	// embedded-warm: a hot set of at most 2048 requests, well inside core's
	// 8192-entry decision cache.
	if hot := len(drawn["embedded-warm"].stream.table); hot > 2048 || hot < 1024 {
		t.Errorf("embedded-warm hot set is %d requests, want about 2048", hot)
	}

	// embedded-churn: exactly one session pair per 16 ops, over all subjects.
	churn := drawn["embedded-churn"].stream
	sessions := 0
	for i, op := range churn.ops[0] {
		if is := op&sessionOp != 0; is != (i%16 == 15) {
			t.Fatalf("embedded-churn op %d: session=%v", i, is)
		} else if is {
			sessions++
		}
	}
	if want := len(churn.ops[0]) / 16; sessions != want {
		t.Errorf("embedded-churn has %d session ops, want %d", sessions, want)
	}

	// direct-read and cluster-mixed: far more distinct requests than cache.
	for _, name := range []string{"direct-read", "cluster-mixed"} {
		if distinct := len(drawn[name].stream.table); distinct < 4*8192 {
			t.Errorf("%s draws %d distinct requests, want well over the 8192-entry cache", name, distinct)
		}
	}

	// cluster-mixed: 40 session pairs/s and 10 flips/s over 10 s, every
	// flip on a fresh subject of the SDK's home shard.
	mixed := drawn["cluster-mixed"]
	owns, err := flipOwner("cluster")
	if err != nil {
		t.Fatal(err)
	}
	var nSessions, nFlips int
	seen := make(map[int]bool)
	for i, op := range mixed.schedule {
		if i > 0 && op.due < mixed.schedule[i-1].due {
			t.Fatal("schedule is not in due order")
		}
		if !op.flip {
			nSessions++
			continue
		}
		nFlips++
		if seen[op.subj] || !owns(mixed.w.subjects[op.subj]) {
			t.Errorf("flip %d reuses a subject or leaves the home shard", i)
		}
		seen[op.subj] = true
	}
	if nSessions < 398 || nSessions > 400 || nFlips != 100 {
		t.Errorf("10 s schedule has %d session pairs and %d flips, want 400 and 100", nSessions, nFlips)
	}
	if len(mixed.probe) != 0 {
		t.Errorf("cluster-mixed writes in its timed phase and needs no probe, got %d ops", len(mixed.probe))
	}
	if got := len(drawn["direct-read"].probe); got != 30 {
		t.Errorf("direct-read probe has %d ops, want 20 sessions + 10 flips", got)
	}
}
