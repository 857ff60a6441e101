// Package jsonw holds the JSON primitives under the hand-written codecs of
// the hot wire shapes: pdp's decide request and reply, audit's record, and
// the replica's decode of a full policy snapshot.
// encoding/json is the specification. Every Append function produces
// exactly the bytes encoding/json produces for the same value, and the
// Scanner accepts only input whose meaning it reproduces exactly; on
// anything else it declines, and the caller hands the same bytes to
// encoding/json, which then also supplies the error text.
package jsonw

import (
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string, escaped as encoding/json does
// with HTML escaping on (its default): `"` and `\` backslashed; \b \f \n
// \r \t by name; other control characters, <, > and & as \u00XX; U+2028
// and U+2029 escaped the same way; each byte of invalid UTF-8 as U+FFFD's
// escape.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			start = i
			continue
		}
		if c == 0x2028 || c == 0x2029 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f as encoding/json encodes a float64: the shortest
// representation, in 'f' form except below 1e-6 or from 1e21 up, where it
// switches to 'e' form with a negative exponent's leading zero dropped
// (1e-07 becomes 1e-7). ok is false for NaN and ±Inf, which encoding/json
// refuses to encode; dst is then returned unchanged.
func AppendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

// AppendBool appends true or false.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// AppendTime appends t as time.Time's MarshalJSON does: a quoted RFC 3339
// timestamp with nanoseconds. ok is false for the instants MarshalJSON
// rejects — a year outside [0,9999] or a zone offset of 24 hours or more —
// and dst is then returned unchanged.
func AppendTime(dst []byte, t time.Time) ([]byte, bool) {
	n0 := len(dst)
	b := append(dst, '"')
	b = t.AppendFormat(b, time.RFC3339Nano)
	if b[n0+1+len("9999")] != '-' {
		return dst[:n0], false
	}
	if b[len(b)-1] != 'Z' {
		c := b[len(b)-len("Z07:00")]
		h := b[len(b)-len("07:00"):]
		if ('0' <= c && c <= '9') || 10*(h[0]-'0')+(h[1]-'0') >= 24 {
			return dst[:n0], false
		}
	}
	return append(b, '"'), true
}
