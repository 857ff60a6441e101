package pdp

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"github.com/aware-home/grbac/internal/jsonw"
)

// The decide wire codec. Every decide and check crosses it at each end —
// client, router and server — so DecideRequest, DecideResponse and
// CheckResponse are encoded and decoded by hand rather than by reflection.
// encoding/json stays the specification: the encoders append exactly the
// bytes json.Marshal produces, and a decoder either fills its zero value
// exactly as json.Decoder's Decode would from the same bytes or declines
// (returns false), in which case the caller decodes those bytes with
// encoding/json, which also supplies any error text.

// appendDecideRequest appends r as json.Marshal encodes it.
func appendDecideRequest(b []byte, r *DecideRequest) ([]byte, error) {
	n0 := len(b)
	b = append(b, '{')
	if r.Subject != "" {
		b = append(b, `"subject":`...)
		b = append(jsonw.AppendString(b, r.Subject), ',')
	}
	if r.Session != "" {
		b = append(b, `"session":`...)
		b = append(jsonw.AppendString(b, r.Session), ',')
	}
	b = append(b, `"object":`...)
	b = jsonw.AppendString(b, r.Object)
	b = append(b, `,"transaction":`...)
	b = jsonw.AppendString(b, r.Transaction)
	if len(r.Credentials) > 0 {
		b = append(b, `,"credentials":[`...)
		for i, c := range r.Credentials {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '{')
			if c.Subject != "" {
				b = append(b, `"subject":`...)
				b = append(jsonw.AppendString(b, c.Subject), ',')
			}
			if c.Role != "" {
				b = append(b, `"role":`...)
				b = append(jsonw.AppendString(b, c.Role), ',')
			}
			b = append(b, `"confidence":`...)
			var ok bool
			if b, ok = jsonw.AppendFloat(b, c.Confidence); !ok {
				return marshalDeclined(b[:n0], r)
			}
			if c.Source != "" {
				b = append(b, `,"source":`...)
				b = jsonw.AppendString(b, c.Source)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"environment":`...)
	b = appendStrings(b, r.Environment)
	return append(b, '}'), nil
}

// appendStrings appends ss as a JSON array, nil as null.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonw.AppendString(b, s)
	}
	return append(b, ']')
}

// appendDecideResponse appends r as json.Marshal encodes it.
func appendDecideResponse(b []byte, r *DecideResponse) ([]byte, error) {
	n0 := len(b)
	b = append(b, `{"allowed":`...)
	b = jsonw.AppendBool(b, r.Allowed)
	b = append(b, `,"effect":`...)
	b = jsonw.AppendString(b, r.Effect)
	b = append(b, `,"default_deny":`...)
	b = jsonw.AppendBool(b, r.DefaultDeny)
	b = append(b, `,"strategy":`...)
	b = jsonw.AppendString(b, r.Strategy)
	b = append(b, `,"reason":`...)
	b = jsonw.AppendString(b, r.Reason)
	if len(r.Matches) > 0 {
		b = append(b, `,"matches":[`...)
		for i := range r.Matches {
			m := &r.Matches[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"effect":`...)
			b = jsonw.AppendString(b, m.Effect)
			b = append(b, `,"subject_role":`...)
			b = jsonw.AppendString(b, m.SubjectRole)
			b = append(b, `,"object_role":`...)
			b = jsonw.AppendString(b, m.ObjectRole)
			b = append(b, `,"environment_role":`...)
			b = jsonw.AppendString(b, m.EnvironmentRole)
			b = append(b, `,"transaction":`...)
			b = jsonw.AppendString(b, m.Transaction)
			b = append(b, `,"confidence":`...)
			var ok bool
			if b, ok = jsonw.AppendFloat(b, m.Confidence); !ok {
				return marshalDeclined(b[:n0], r)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return appendReplyTail(b, r.Stale, r.CorrelationID), nil
}

// appendCheckResponse appends r as json.Marshal encodes it.
func appendCheckResponse(b []byte, r *CheckResponse) []byte {
	b = append(b, `{"allowed":`...)
	b = jsonw.AppendBool(b, r.Allowed)
	return appendReplyTail(b, r.Stale, r.CorrelationID)
}

// appendReplyTail appends the omitempty fields both replies end with and
// closes the object.
func appendReplyTail(b []byte, stale bool, corr string) []byte {
	if stale {
		b = append(b, `,"stale":true`...)
	}
	if corr != "" {
		b = append(b, `,"correlation_id":`...)
		b = jsonw.AppendString(b, corr)
	}
	return append(b, '}')
}

// marshalDeclined is the encoders' way out for a value they do not
// reproduce (a non-finite float): encoding/json's own answer, which for
// those values is its error.
func marshalDeclined(b []byte, v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	return append(b, raw...), err
}

// The keys each decoder knows, in wire order.
var (
	requestFields    = []string{"subject", "session", "object", "transaction", "credentials", "environment"}
	credentialFields = []string{"subject", "role", "confidence", "source"}
	responseFields   = []string{"allowed", "effect", "default_deny", "strategy", "reason", "matches", "stale", "correlation_id"}
	matchFields      = []string{"effect", "subject_role", "object_role", "environment_role", "transaction", "confidence"}
	checkFields      = []string{"allowed", "stale", "correlation_id"}
)

// decodeDecideRequest fills the zero value r from data, or declines and
// leaves r zero.
func decodeDecideRequest(data []byte, r *DecideRequest) bool {
	s := jsonw.NewScanner(data)
	var seen uint
	for i := 0; ; i++ {
		switch s.Field(i, &seen, requestFields) {
		case "subject":
			r.Subject = s.String()
		case "session":
			r.Session = s.String()
		case "object":
			r.Object = s.String()
		case "transaction":
			r.Transaction = s.String()
		case "credentials":
			if s.Null() {
				continue
			}
			r.Credentials = []Credential{}
			for j := 0; s.Elem(j); j++ {
				r.Credentials = append(r.Credentials, decodeCredential(&s))
			}
		case "environment":
			if s.Null() {
				continue
			}
			r.Environment = []string{}
			for j := 0; s.Elem(j); j++ {
				r.Environment = append(r.Environment, s.String())
			}
		default: // the object ended, or the scan declined
			if !s.OK() {
				*r = DecideRequest{}
			}
			return s.OK()
		}
	}
}

func decodeCredential(s *jsonw.Scanner) Credential {
	var c Credential
	if s.Null() {
		return c
	}
	var seen uint
	for i := 0; ; i++ {
		switch s.Field(i, &seen, credentialFields) {
		case "subject":
			c.Subject = s.String()
		case "role":
			c.Role = s.String()
		case "confidence":
			c.Confidence = s.Float()
		case "source":
			c.Source = s.String()
		default:
			return c
		}
	}
}

// decodeDecideResponse fills the zero value r from data, or declines and
// leaves r zero.
func decodeDecideResponse(data []byte, r *DecideResponse) bool {
	s := jsonw.NewScanner(data)
	var seen uint
	for i := 0; ; i++ {
		switch s.Field(i, &seen, responseFields) {
		case "allowed":
			r.Allowed = s.Bool()
		case "effect":
			r.Effect = s.String()
		case "default_deny":
			r.DefaultDeny = s.Bool()
		case "strategy":
			r.Strategy = s.String()
		case "reason":
			r.Reason = s.String()
		case "matches":
			if s.Null() {
				continue
			}
			r.Matches = []Match{}
			for j := 0; s.Elem(j); j++ {
				r.Matches = append(r.Matches, decodeMatch(&s))
			}
		case "stale":
			r.Stale = s.Bool()
		case "correlation_id":
			r.CorrelationID = s.String()
		default:
			if !s.OK() {
				*r = DecideResponse{}
			}
			return s.OK()
		}
	}
}

func decodeMatch(s *jsonw.Scanner) Match {
	var m Match
	if s.Null() {
		return m
	}
	var seen uint
	for i := 0; ; i++ {
		switch s.Field(i, &seen, matchFields) {
		case "effect":
			m.Effect = s.String()
		case "subject_role":
			m.SubjectRole = s.String()
		case "object_role":
			m.ObjectRole = s.String()
		case "environment_role":
			m.EnvironmentRole = s.String()
		case "transaction":
			m.Transaction = s.String()
		case "confidence":
			m.Confidence = s.Float()
		default:
			return m
		}
	}
}

// decodeCheckResponse fills the zero value r from data, or declines and
// leaves r zero.
func decodeCheckResponse(data []byte, r *CheckResponse) bool {
	s := jsonw.NewScanner(data)
	var seen uint
	for i := 0; ; i++ {
		switch s.Field(i, &seen, checkFields) {
		case "allowed":
			r.Allowed = s.Bool()
		case "stale":
			r.Stale = s.Bool()
		case "correlation_id":
			r.CorrelationID = s.String()
		default:
			if !s.OK() {
				*r = CheckResponse{}
			}
			return s.OK()
		}
	}
}

// maxPooledBuf caps the buffers bufPool keeps: a rare large body is
// garbage-collected instead of pinning its memory in the pool.
const maxPooledBuf = 64 << 10

// bufPool recycles the buffers decide and check bodies are read into and
// replies are encoded into.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// readAll reads r to its end into (*buf)[:0], keeping the grown buffer in
// *buf, and returns the bytes with the error that ended the read (nil at
// EOF).
func readAll(buf *[]byte, r io.Reader) ([]byte, error) {
	b := (*buf)[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			*buf = b
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
	}
}

// readDecide reads a decide or check body, bounded by maxBodyBytes, into
// buf and decodes it into the zero value req: by the codec, or else by
// encoding/json over the same bytes.
func readDecide(w http.ResponseWriter, r *http.Request, buf *[]byte, req *DecideRequest, strict bool) error {
	data, err := readAll(buf, http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if decodeDecideRequest(data, req) {
		return nil
	}
	return jsonw.DecodeDeclined(data, err, req, strict)
}

// writeEncoded sends a 200 reply whose body an encoder produced, with the
// trailing newline json.Encoder writes. On an encode error the status goes
// out with an empty body, as it did from json.Encoder.
func writeEncoded(w http.ResponseWriter, b []byte, err error) {
	if err != nil {
		b = nil
	} else {
		b = append(b, '\n')
	}
	writeReply(w, b)
}

// writeReply sends a 200 JSON reply whose body is b as it stands.
func writeReply(w http.ResponseWriter, b []byte) {
	w.Header()["Content-Type"] = []string{"application/json"}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}
