package replica

import (
	"slices"
	"strconv"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/jsonw"
)

// The snapshot decoder. A follower or SDK installs the primary's whole
// policy from GET /v1/replica/snapshot, and encoding/json spends most of
// that install reflecting over the State, so Client.Snapshot decodes the
// body by hand. encoding/json stays the specification, on the same
// contract as the decide codec in internal/pdp: decodeSnapshot either
// fills its zero value exactly as json.Decoder's Decode would from the
// same bytes, or declines, and the caller hands those bytes to
// encoding/json, which also supplies any error text. It declines on
// anything it does not reproduce: an unknown, repeated or case-variant
// key (encoding/json matches keys case-insensitively and merges repeats),
// a value of an unexpected type, and an integer field holding a fraction,
// an exponent or a value outside its type.

// The keys each object knows. core's Role, Transaction, Access,
// Permission and SoDConstraint carry no tags, so their keys are the Go
// field names.
var (
	snapshotFields    = []string{"epoch", "generation", "state"}
	stateFields       = []string{"subject_roles", "object_roles", "environment_roles", "subjects", "objects", "transactions", "permissions", "sod_constraints", "min_confidence"}
	roleFields        = []string{"ID", "Kind", "Parents", "Description"}
	holderFields      = []string{"id", "roles"}
	transactionFields = []string{"ID", "Description", "Steps"}
	accessFields      = []string{"Action", "ObjectRole"}
	permissionFields  = []string{"Subject", "Object", "Environment", "Transaction", "Effect", "MinConfidence", "Description"}
	sodFields         = []string{"Name", "Kind", "Roles"}
)

// snapshotDecoder scans one snapshot document. Role and transaction IDs
// recur through the document (every holder's roles, every permission's
// legs), so each distinct one is allocated once and shared.
type snapshotDecoder struct {
	s     jsonw.Scanner
	roles map[string]core.RoleID
	txs   map[string]core.TransactionID
}

// decodeSnapshot fills the zero value snap from data, or declines and
// leaves snap zero.
func decodeSnapshot(data []byte, snap *Snapshot) bool {
	d := snapshotDecoder{
		s:     jsonw.NewScanner(data),
		roles: make(map[string]core.RoleID),
		txs:   make(map[string]core.TransactionID),
	}
	s := &d.s
	var seen uint
	for i := 0; ; i++ {
		switch s.Field(i, &seen, snapshotFields) {
		case "epoch":
			snap.Epoch = s.String()
		case "generation":
			snap.Generation = s.Uint(64)
		case "state":
			d.state(&snap.State)
		default: // the object ended, or the scan declined
			if !s.OK() {
				*snap = Snapshot{}
			}
			return s.OK()
		}
	}
}

// decodeSnapshotBody decodes a snapshot body: by decodeSnapshot, or else
// by jsonw.DecodeDeclined over the same bytes, which reads them as
// json.Decoder's Decode would have read them off the wire.
func decodeSnapshotBody(data []byte, readErr error, snap *Snapshot) error {
	if decodeSnapshot(data, snap) {
		return nil
	}
	return jsonw.DecodeDeclined(data, readErr, snap, false)
}

func (d *snapshotDecoder) state(st *core.State) {
	s := &d.s
	if s.Null() {
		return
	}
	var seen uint
	for i := 0; ; i++ {
		switch s.Field(i, &seen, stateFields) {
		case "subject_roles":
			st.SubjectRoles = list(s, d.role)
		case "object_roles":
			st.ObjectRoles = list(s, d.role)
		case "environment_roles":
			st.EnvironmentRoles = list(s, d.role)
		case "subjects":
			st.Subjects = list(s, d.subject)
		case "objects":
			st.Objects = list(s, d.object)
		case "transactions":
			st.Transactions = list(s, d.transaction)
		case "permissions":
			st.Permissions = list(s, d.permission)
		case "sod_constraints":
			st.SoDConstraints = list(s, d.sod)
		case "min_confidence":
			st.MinConfidence = s.Float()
		default:
			return
		}
	}
}

// list reads an array with elem, nil for null and empty for [], as
// encoding/json reads one into a nil slice. A full slice doubles its
// capacity where append would grow it by a quarter past 256 elements, so
// a 4096-subject document allocates its subject array about twice over
// rather than five times.
func list[T any](s *jsonw.Scanner, elem func() T) []T {
	if s.Null() {
		return nil
	}
	out := []T{}
	for j := 0; s.Elem(j); j++ {
		if len(out) == cap(out) {
			out = slices.Grow(out, max(len(out), 1))
		}
		out = append(out, elem())
	}
	return out
}

func (d *snapshotDecoder) role() core.Role {
	var r core.Role
	s := &d.s
	if s.Null() {
		return r
	}
	var seen uint
	for i := 0; ; i++ {
		switch s.Field(i, &seen, roleFields) {
		case "ID":
			r.ID = d.roleID()
		case "Kind":
			r.Kind = core.RoleKind(s.Int(strconv.IntSize))
		case "Parents":
			r.Parents = list(s, d.roleID)
		case "Description":
			r.Description = s.String()
		default:
			return r
		}
	}
}

func (d *snapshotDecoder) subject() core.SubjectState {
	id, roles := d.holder()
	return core.SubjectState{ID: core.SubjectID(id), Roles: roles}
}

func (d *snapshotDecoder) object() core.ObjectState {
	id, roles := d.holder()
	return core.ObjectState{ID: core.ObjectID(id), Roles: roles}
}

// holder reads a subject's or object's record.
func (d *snapshotDecoder) holder() (id string, roles []core.RoleID) {
	s := &d.s
	if s.Null() {
		return "", nil
	}
	var seen uint
	for i := 0; ; i++ {
		switch s.Field(i, &seen, holderFields) {
		case "id":
			id = s.String()
		case "roles":
			roles = list(s, d.roleID)
		default:
			return id, roles
		}
	}
}

func (d *snapshotDecoder) transaction() core.Transaction {
	var t core.Transaction
	s := &d.s
	if s.Null() {
		return t
	}
	var seen uint
	for i := 0; ; i++ {
		switch s.Field(i, &seen, transactionFields) {
		case "ID":
			t.ID = d.transactionID()
		case "Description":
			t.Description = s.String()
		case "Steps":
			t.Steps = list(s, d.access)
		default:
			return t
		}
	}
}

func (d *snapshotDecoder) access() core.Access {
	var a core.Access
	s := &d.s
	if s.Null() {
		return a
	}
	var seen uint
	for i := 0; ; i++ {
		switch s.Field(i, &seen, accessFields) {
		case "Action":
			a.Action = core.Action(s.String())
		case "ObjectRole":
			a.ObjectRole = d.roleID()
		default:
			return a
		}
	}
}

func (d *snapshotDecoder) permission() core.Permission {
	var p core.Permission
	s := &d.s
	if s.Null() {
		return p
	}
	var seen uint
	for i := 0; ; i++ {
		switch s.Field(i, &seen, permissionFields) {
		case "Subject":
			p.Subject = d.roleID()
		case "Object":
			p.Object = d.roleID()
		case "Environment":
			p.Environment = d.roleID()
		case "Transaction":
			p.Transaction = d.transactionID()
		case "Effect":
			p.Effect = core.Effect(s.Int(strconv.IntSize))
		case "MinConfidence":
			p.MinConfidence = s.Float()
		case "Description":
			p.Description = s.String()
		default:
			return p
		}
	}
}

func (d *snapshotDecoder) sod() core.SoDConstraint {
	var c core.SoDConstraint
	s := &d.s
	if s.Null() {
		return c
	}
	var seen uint
	for i := 0; ; i++ {
		switch s.Field(i, &seen, sodFields) {
		case "Name":
			c.Name = s.String()
		case "Kind":
			c.Kind = core.SoDKind(s.Int(strconv.IntSize))
		case "Roles":
			c.Roles = list(s, d.roleID)
		default:
			return c
		}
	}
}

// roleID reads a role ID, interned per document.
func (d *snapshotDecoder) roleID() core.RoleID {
	b := d.s.StringBytes()
	if id, ok := d.roles[string(b)]; ok {
		return id
	}
	id := core.RoleID(b)
	d.roles[string(id)] = id
	return id
}

// transactionID reads a transaction ID, interned per document.
func (d *snapshotDecoder) transactionID() core.TransactionID {
	b := d.s.StringBytes()
	if id, ok := d.txs[string(b)]; ok {
		return id
	}
	id := core.TransactionID(b)
	d.txs[string(id)] = id
	return id
}
