package jsonw

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Scanner reads one JSON object from the front of a byte slice for a
// hand-written decoder filling a zero value. It stops at the object's
// closing brace and ignores whatever follows, as json.Decoder's Decode
// does. Anything it cannot reproduce exactly makes it decline — a syntax
// error, a value of an unexpected type, a key the decoder does not know
// or a repeated one, whose merge rules it does not reproduce — after
// which every call returns a zero value and OK reports false. A literal
// null reads as the zero value, which is what encoding/json leaves in a
// zero field.
type Scanner struct {
	data     []byte
	pos      int
	declined bool
}

// DecodeDeclined decodes what a hand-written decoder declined with
// encoding/json, exactly as json.Decoder's Decode would have read it off
// the wire: data is everything the body yielded and readErr what ended
// the read (nil at EOF), so a body cut short or over its size bound fails
// with the same error it always did. strict rejects unknown fields.
func DecodeDeclined(data []byte, readErr error, v any, strict bool) error {
	var r io.Reader = bytes.NewReader(data)
	if readErr != nil {
		r = io.MultiReader(r, errReader{readErr})
	}
	dec := json.NewDecoder(r)
	if strict {
		dec.DisallowUnknownFields()
	}
	return dec.Decode(v)
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// NewScanner returns a Scanner over data.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

// OK reports whether the scan has not declined.
func (s *Scanner) OK() bool { return !s.declined }

// Field steps through an object: call it with i = 0, 1, 2, ... for the
// members in turn. The first call consumes the opening brace, later ones
// the comma before the next member. It returns the member's key with the
// colon consumed, or "" once the closing brace is consumed or the scan
// declines. The key must be one of known, matched exactly and escape-free,
// and not already recorded in *seen, a bit per entry of known; any other
// key declines.
func (s *Scanner) Field(i int, seen *uint, known []string) string {
	if !s.open(i, '{', '}') {
		return ""
	}
	if s.peek() != '"' {
		s.declined = true
		return ""
	}
	start := s.pos + 1
	end := start
	for end < len(s.data) && s.data[end] != '"' && s.data[end] != '\\' {
		end++
	}
	if end >= len(s.data) || s.data[end] != '"' {
		s.declined = true
		return ""
	}
	s.pos = end + 1
	if s.peek() != ':' {
		s.declined = true
		return ""
	}
	s.pos++
	for j, k := range known {
		if string(s.data[start:end]) == k && *seen&(1<<j) == 0 {
			*seen |= 1 << j
			return k
		}
	}
	s.declined = true
	return ""
}

// Elem steps through an array the way Field steps through an object,
// reporting whether element i follows.
func (s *Scanner) Elem(i int) bool { return s.open(i, '[', ']') }

// open consumes the opener on the first step and the separator on later
// ones, reporting whether another item follows.
func (s *Scanner) open(i int, opener, closer byte) bool {
	if s.declined {
		return false
	}
	c := s.peek()
	if i == 0 {
		if c != opener {
			s.declined = true
			return false
		}
		s.pos++
		c = s.peek()
		if c == closer {
			s.pos++
			return false
		}
		return true
	}
	switch c {
	case closer:
		s.pos++
		return false
	case ',':
		s.pos++
		return true
	}
	s.declined = true
	return false
}

// Null consumes a literal null if one is next.
func (s *Scanner) Null() bool { return s.literal("null") }

// String reads a string value, unquoted as encoding/json unquotes it:
// escapes resolved, a \u surrogate that does not pair with the escape
// right after it and every byte of invalid UTF-8 replaced by U+FFFD.
func (s *Scanner) String() string { return string(s.StringBytes()) }

// StringBytes reads a string value as String does and returns its bytes:
// the scanned data itself when unquoting changes nothing, so a caller that
// only looks the value up allocates nothing. The bytes are valid while the
// data is and must not be written.
func (s *Scanner) StringBytes() []byte {
	if s.declined || s.Null() {
		return nil
	}
	if s.peek() != '"' {
		s.declined = true
		return nil
	}
	start := s.pos + 1
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			return s.data[start:i:i]
		case c == '\\' || c < 0x20 || c >= utf8.RuneSelf:
			return s.unquote(start, i)
		}
	}
	s.declined = true
	return nil
}

// unquote finishes a string from i, the first byte needing more than a
// copy; start is the first byte after the opening quote.
func (s *Scanner) unquote(start, i int) []byte {
	d := s.data
	b := make([]byte, 0, i-start+16)
	b = append(b, d[start:i]...)
	for i < len(d) {
		switch c := d[i]; {
		case c == '"':
			s.pos = i + 1
			return b
		case c < 0x20:
			s.declined = true
			return nil
		case c < utf8.RuneSelf && c != '\\':
			b = append(b, c)
			i++
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(d[i:])
			b = utf8.AppendRune(b, r)
			i += size
		default: // a backslash escape
			if i+1 >= len(d) {
				s.declined = true
				return nil
			}
			switch e := d[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d[i+2:])
				if r < 0 {
					s.declined = true
					return nil
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if r2 := escapedHex4(d[i:]); r2 >= 0 {
						if pair := utf16.DecodeRune(r, r2); pair != unicode.ReplacementChar {
							b = utf8.AppendRune(b, pair)
							i += 6
							continue
						}
					}
					r = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				s.declined = true
				return nil
			}
			i += 2
		}
	}
	s.declined = true
	return nil
}

// escapedHex4 decodes a \uXXXX escape at the front of b, or returns -1.
func escapedHex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	return hex4(b[2:])
}

// hex4 decodes four hex digits at the front of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// Bool reads true or false.
func (s *Scanner) Bool() bool {
	switch {
	case s.declined || s.Null():
		return false
	case s.literal("true"):
		return true
	case s.literal("false"):
		return false
	}
	s.declined = true
	return false
}

// Float reads a number into a float64 as encoding/json does, declining
// where encoding/json would fail (a value out of float64's range).
func (s *Scanner) Float() float64 {
	if s.declined || s.Null() {
		return 0
	}
	d := s.data
	start := s.pos
	i := start
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		s.declined = true
		return 0
	}
	if i < len(d) && d[i] == '.' {
		if i = digits(d, i+1); !isDigit(d[i-1]) {
			s.declined = true
			return 0
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i = digits(d, i); !isDigit(d[i-1]) {
			s.declined = true
			return 0
		}
	}
	f, err := strconv.ParseFloat(string(d[start:i]), 64)
	if err != nil {
		s.declined = true
		return 0
	}
	s.pos = i
	return f
}

// Int reads a number into an int64 as encoding/json reads one into a
// signed integer of bitSize bits, declining where encoding/json would
// fail: a fraction, an exponent, or a value outside the type's range.
func (s *Scanner) Int(bitSize int) int64 {
	lit, ok := s.integer()
	if !ok {
		return 0
	}
	n, err := strconv.ParseInt(string(lit), 10, bitSize)
	if err != nil {
		s.declined = true
		return 0
	}
	s.pos += len(lit)
	return n
}

// Uint reads a number into a uint64 as encoding/json reads one into an
// unsigned integer of bitSize bits, declining where encoding/json would
// fail: a sign, a fraction, an exponent, or a value outside the type's
// range.
func (s *Scanner) Uint(bitSize int) uint64 {
	lit, ok := s.integer()
	if !ok {
		return 0
	}
	n, err := strconv.ParseUint(string(lit), 10, bitSize)
	if err != nil {
		s.declined = true
		return 0
	}
	s.pos += len(lit)
	return n
}

// integer returns the integer literal next in the data, unconsumed. ok is
// false, and the scan declined, for anything but a number without a
// fraction or an exponent; it is also false, with the scan going on, for
// a literal null.
func (s *Scanner) integer() (lit []byte, ok bool) {
	if s.declined || s.Null() {
		return nil, false
	}
	d := s.data
	i := s.pos
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		s.declined = true
		return nil, false
	}
	if i < len(d) && (d[i] == '.' || d[i] == 'e' || d[i] == 'E') {
		s.declined = true
		return nil, false
	}
	return d[s.pos:i], true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits returns the index of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && isDigit(d[i]) {
		i++
	}
	return i
}

// literal consumes word if it is next.
func (s *Scanner) literal(word string) bool {
	s.peek()
	if len(s.data)-s.pos >= len(word) && string(s.data[s.pos:s.pos+len(word)]) == word {
		s.pos += len(word)
		return true
	}
	return false
}

// peek skips JSON whitespace and returns the next byte, or 0 at the end.
func (s *Scanner) peek() byte {
	for s.pos < len(s.data) {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return c
		}
	}
	return 0
}
