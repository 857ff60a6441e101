package replica_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/pdp"
	"github.com/aware-home/grbac/internal/replica"
)

// servedSnapshot returns the body a pdp.Server with sys's replication
// feed writes for GET /v1/replica/snapshot.
func servedSnapshot(t testing.TB, sys *core.System) []byte {
	t.Helper()
	srv := pdp.NewServer(sys, pdp.WithReplicaSource(replica.NewSource(sys)))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, replica.SnapshotPath, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot: status %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// importedSystem is a fresh System holding st.
func importedSystem(t testing.TB, st core.State) *core.System {
	t.Helper()
	sys := core.NewSystem()
	if err := sys.Import(st); err != nil {
		t.Fatal(err)
	}
	return sys
}

// checkSnapshotDecode fails t if the snapshot decoder accepts data and
// reads anything but what json.Decoder's Decode reads from it, nil and
// empty slices told apart, or declines and leaves its value non-zero. It
// reports whether the decoder accepted.
func checkSnapshotDecode(t *testing.T, data []byte) bool {
	t.Helper()
	var got replica.Snapshot
	ok := replica.DecodeSnapshot(data, &got)
	if !ok {
		if !reflect.DeepEqual(got, replica.Snapshot{}) {
			t.Fatalf("declined %q but left %+v", data, got)
		}
		return false
	}
	var want replica.Snapshot
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&want); err != nil {
		t.Fatalf("accepted %q, which encoding/json rejects: %v", data, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %q as\n%#v\nencoding/json reads\n%#v", data, got, want)
	}
	return true
}

// FuzzSnapshotCodec is differential: whatever the snapshot decoder accepts
// must decode exactly as encoding/json decodes it.
func FuzzSnapshotCodec(f *testing.F) {
	f.Add(servedSnapshot(f, importedSystem(f, benchShapedState(64))))
	f.Add(servedSnapshot(f, homeSystem(f)))
	for _, seed := range []string{
		`{"epoch":"e","generation":7,"state":{"subjects":null,"subject_roles":[{"ID":"a","Kind":1,"Parents":null,"Description":""}],"permissions":[null]}}`,
		`{"epoch":"e","generation":1,"state":{},"extra":1}`,
		`{"epoch":"e","Generation":1,"state":{}}`,
		`{"epoch":"e","generation":1,"state":{"subject_roles":[{"ID":"a","Kind":1.0,"Parents":[]}]}}`,
		`{"epoch":"e","generation":1,"state":{"objects":[{"id":"o","roles":[]}]}} trailing`,
		`{"epoch":"é😀","generation":18446744073709551615,"state":{"sod_constraints":[{"Name":"n","Kind":2,"Roles":["a","b"]}],"transactions":[{"ID":"t","Description":"<&>","Steps":[{"Action":"use","ObjectRole":""}]}],"min_confidence":0.5}}`,
		`{"epoch":"e","generation":-1,"state":null}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSnapshotDecode(t, data)
	})
}

// randomPolicyState builds a random valid State: a role DAG of each kind,
// subjects and objects holding random roles, transactions with steps,
// permissions with both effects and random confidences, SoD constraints
// of both kinds and a threshold. Names and descriptions draw on every
// class of byte encoding/json escapes.
func randomPolicyState(rng *rand.Rand) core.State {
	pieces := []string{"a", "Z", "7", "-", " ", "é", "日本", "\U0001F600", `"`, `\`, "<", ">", "&",
		"\n", "\t", "\x01", string(rune(0x2028)), "\xff"}
	word := func() string {
		var b strings.Builder
		for n := 1 + rng.Intn(4); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	var st core.State
	kinds := []core.RoleKind{core.SubjectRole, core.ObjectRole, core.EnvironmentRole}
	var byKind [3][]core.RoleID
	for k, kind := range kinds {
		var roles []core.Role
		for i := rng.Intn(6); i >= 0; i-- {
			id := core.RoleID(fmt.Sprintf("r%d-%s", len(roles), word()))
			r := core.Role{ID: id, Kind: kind}
			for _, p := range byKind[k] {
				if rng.Intn(3) == 0 {
					r.Parents = append(r.Parents, p)
				}
			}
			if rng.Intn(2) == 0 {
				r.Description = word()
			}
			byKind[k] = append(byKind[k], id)
			roles = append(roles, r)
		}
		switch kind {
		case core.SubjectRole:
			st.SubjectRoles = roles
		case core.ObjectRole:
			st.ObjectRoles = roles
		default:
			st.EnvironmentRoles = roles
		}
	}
	some := func(ids []core.RoleID) []core.RoleID {
		var out []core.RoleID
		for _, id := range ids {
			if rng.Intn(3) == 0 {
				out = append(out, id)
			}
		}
		return out
	}
	for i := rng.Intn(8); i > 0; i-- {
		st.Subjects = append(st.Subjects, core.SubjectState{ID: core.SubjectID(fmt.Sprintf("s%d-%s", i, word())), Roles: some(byKind[0])})
	}
	for i := rng.Intn(8); i > 0; i-- {
		st.Objects = append(st.Objects, core.ObjectState{ID: core.ObjectID(fmt.Sprintf("o%d-%s", i, word())), Roles: some(byKind[1])})
	}
	var txs []core.TransactionID
	for i := rng.Intn(4); i > 0; i-- {
		t := core.Transaction{ID: core.TransactionID(fmt.Sprintf("t%d-%s", i, word()))}
		for j := rng.Intn(3); j > 0; j-- {
			step := core.Access{Action: core.Action(word())}
			if objRoles := byKind[1]; len(objRoles) > 0 && rng.Intn(2) == 0 {
				step.ObjectRole = objRoles[rng.Intn(len(objRoles))]
			}
			t.Steps = append(t.Steps, step)
		}
		if rng.Intn(2) == 0 {
			t.Description = word()
		}
		txs = append(txs, t.ID)
		st.Transactions = append(st.Transactions, t)
	}
	pick := func(ids []core.RoleID, wildcard core.RoleID) core.RoleID {
		if len(ids) == 0 || rng.Intn(4) == 0 {
			return wildcard
		}
		return ids[rng.Intn(len(ids))]
	}
	for i := rng.Intn(10); i > 0; i-- {
		p := core.Permission{
			Subject:     pick(byKind[0], core.AnySubject),
			Object:      pick(byKind[1], core.AnyObject),
			Environment: pick(byKind[2], core.AnyEnvironment),
			Transaction: core.AnyTransaction,
			Effect:      core.Effect(1 + rng.Intn(2)),
		}
		if len(txs) > 0 && rng.Intn(3) > 0 {
			p.Transaction = txs[rng.Intn(len(txs))]
		}
		if rng.Intn(2) == 0 {
			p.MinConfidence = rng.Float64()
		}
		if rng.Intn(3) == 0 {
			p.Description = word()
		}
		st.Permissions = append(st.Permissions, p)
	}
	if roles := byKind[0]; len(roles) >= 2 && rng.Intn(2) == 0 {
		st.SoDConstraints = append(st.SoDConstraints, core.SoDConstraint{
			Name: word(), Kind: core.SoDKind(1 + rng.Intn(2)), Roles: roles[:2]})
	}
	if rng.Intn(2) == 0 {
		st.MinConfidence = rng.Float64()
	}
	return st
}

// TestSnapshotDecoderAcceptsExports checks that the snapshot decoder never
// declines what a pdp.Server writes: the benchmark's policy shape, the
// Aware Home policy and 500 random policies, each decoded exactly as
// encoding/json decodes it.
func TestSnapshotDecoderAcceptsExports(t *testing.T) {
	systems := map[string]*core.System{
		"bench-shaped": importedSystem(t, benchShapedState(256)),
		"aware-home":   homeSystem(t),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		systems[fmt.Sprintf("random-%d", i)] = importedSystem(t, randomPolicyState(rng))
	}
	for name, sys := range systems {
		if body := servedSnapshot(t, sys); !checkSnapshotDecode(t, body) {
			t.Fatalf("%s: the decoder declined the served snapshot %s", name, body)
		}
	}
}

// TestSnapshotDecoderDeclines pins what the decoder leaves to
// encoding/json and what it reads itself.
func TestSnapshotDecoderDeclines(t *testing.T) {
	for _, tt := range []struct {
		body   string
		accept bool
	}{
		{`{"epoch":"e","generation":1,"state":{"subjects":null,"objects":[]}}`, true},
		{`{"epoch":"e","generation":1,"state":{}} {"trailing":`, true},
		{`{"epoch":"e","generation":1,"state":{},"extra":1}`, false},      // unknown key
		{`{"epoch":"e","generation":1,"generation":2,"state":{}}`, false}, // repeated key
		{`{"Epoch":"e","generation":1,"state":{}}`, false},                // case variant
		{`{"epoch":"e","generation":1,"state":{"subject_roles":[{"id":"a"}]}}`, false},
		{`{"epoch":"e","generation":1.0,"state":{}}`, false},                  // not an integer
		{`{"epoch":"e","generation":-1,"state":{}}`, false},                   // out of range
		{`{"epoch":"e","generation":18446744073709551616,"state":{}}`, false}, // out of range
		{`{"epoch":"e","state":{"permissions":[{"Effect":1e0}]}}`, false},     // not an integer
		{`{"epoch":"e","state":{"permissions":[{"Effect":"1"}]}}`, false},     // not a number
		{`{"epoch":"e","state":{"sod_constraints":[{"Kind":9223372036854775808}]}}`, false},
	} {
		if got := checkSnapshotDecode(t, []byte(tt.body)); got != tt.accept {
			t.Errorf("decoder accepted %s: %v, want %v", tt.body, got, tt.accept)
		}
	}
}
