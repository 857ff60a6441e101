package jsonw

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// pieces are the fragments random strings are built from: plain text plus
// every class AppendString and the Scanner treat specially.
var pieces = []string{
	"a", "Z", "subject-7", " ", "/", "\x7f", "é", "日本", "\U0001F600",
	`"`, `\`, "<", ">", "&", "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f",
	string(rune(0x2028)), string(rune(0x2029)), string(rune(0xfffd)),
	"\xff", "\xc0", "\xe2\x80", "\xed\xa0\x80", "\xf4\x90\x80\x80",
}

// randomString returns a string of random pieces.
func randomString(rng *rand.Rand) string {
	var b strings.Builder
	for n := rng.Intn(8); n > 0; n-- {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, encoding/json %s", s, got, want)
		}
	}
	for _, p := range pieces {
		check(p)
	}
	for i := 0; i < 20000; i++ {
		check(randomString(rng))
	}
	// Every single byte, alone and between plain text.
	for c := 0; c < 256; c++ {
		check(string([]byte{byte(c)}))
		check("x" + string([]byte{byte(c)}) + "y")
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 0.75, 0.98, 1.0 / 3,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789, 1e20, 1e-7}
	for _, edge := range []float64{1e-6, 1e21} {
		for _, f := range []float64{edge, math.Nextafter(edge, 0), math.Nextafter(edge, math.Inf(1))} {
			vals = append(vals, f, -f)
		}
	}
	for i := 0; i < 20000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()), rng.Float64(), rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	for _, f := range vals {
		want, werr := json.Marshal(f)
		got, ok := AppendFloat(nil, f)
		if ok != (werr == nil) {
			t.Fatalf("AppendFloat(%v) ok=%v, encoding/json err=%v", f, ok, werr)
		}
		if ok && !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) = %s, encoding/json %s", f, got, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, ok := AppendFloat([]byte("x"), f); ok || string(got) != "x" {
			t.Fatalf("AppendFloat(%v) = %q, %v; want refused and dst untouched", f, got, ok)
		}
	}
}

func TestAppendTimeMatchesMarshalJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	zones := []*time.Location{time.UTC, time.Local,
		time.FixedZone("east", 5*3600+30*60), time.FixedZone("west", -8*3600),
		time.FixedZone("secs", 3600+17), time.FixedZone("far", 24*3600), time.FixedZone("farwest", -25*3600)}
	times := []time.Time{{}, time.Unix(1700000000, 0), time.Unix(1700000000, 120000000),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC)}
	for i := 0; i < 5000; i++ {
		times = append(times, time.Unix(rng.Int63n(1<<40)-1<<39, rng.Int63n(1e9)))
	}
	for _, tm := range times {
		for _, z := range zones {
			tz := tm.In(z)
			want, werr := tz.MarshalJSON()
			got, ok := AppendTime([]byte("x"), tz)
			if ok != (werr == nil) {
				t.Fatalf("AppendTime(%v) ok=%v, MarshalJSON err=%v", tz, ok, werr)
			}
			if !ok && string(got) != "x" {
				t.Fatalf("refused AppendTime(%v) changed dst to %q", tz, got)
			}
			if ok && !bytes.Equal(got[1:], want) {
				t.Fatalf("AppendTime(%v) = %s, MarshalJSON %s", tz, got[1:], want)
			}
		}
	}
}

func TestAppendBool(t *testing.T) {
	if got := string(AppendBool(AppendBool(nil, true), false)); got != "truefalse" {
		t.Fatalf("AppendBool = %q", got)
	}
}

// randomLiteral returns a JSON string literal, often with escapes of every
// kind (lone and paired surrogates included) and raw invalid UTF-8, and
// sometimes malformed.
func randomLiteral(rng *rand.Rand) string {
	u := func(hex string) string { return `\` + "u" + hex }
	escapes := []string{`\"`, `\\`, `\/`, `\b`, `\f`, `\n`, `\r`, `\t`, u("0041"), u("00e9"), u("00E9"),
		u("d83d") + u("de00"), u("d83d"), u("de00"), u("d83d") + "x", u("d83d") + u("0041"),
		u("dbff") + u("dfff"), u("12"), u("12zz"), `\x`, `\'`}
	var b strings.Builder
	b.WriteByte('"')
	for n := rng.Intn(6); n > 0; n-- {
		if rng.Intn(2) == 0 {
			b.WriteString(escapes[rng.Intn(len(escapes))])
		} else {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
	}
	if rng.Intn(10) > 0 {
		b.WriteByte('"')
	}
	return b.String()
}

// TestScannerStringMatchesUnmarshal checks that whenever String accepts a
// literal, encoding/json reads the same string from it.
func TestScannerStringMatchesUnmarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	accepted := 0
	for i := 0; i < 20000; i++ {
		lit := randomLiteral(rng)
		s := NewScanner([]byte(lit))
		got := s.String()
		var want string
		werr := json.NewDecoder(strings.NewReader(lit)).Decode(&want)
		if !s.OK() {
			continue
		}
		accepted++
		if werr != nil || got != want {
			t.Fatalf("String(%s) = %q; encoding/json %q, %v", lit, got, want, werr)
		}
	}
	if accepted < 10000 {
		t.Fatalf("only %d of 20000 literals accepted; the scanner declines too much", accepted)
	}
}

func TestScannerFloatMatchesUnmarshal(t *testing.T) {
	for _, lit := range []string{"0", "-0", "1", "-1.5", "0.98", "1e3", "1E+3", "2.5e-7", "123456789012345678901234567890",
		"1e400", "-1e400", "01", "1.", ".5", "1e", "1e+", "+1", "-", "0x10", "1_0", "Infinity", "NaN", "null"} {
		s := NewScanner([]byte(lit))
		got := s.Float()
		// A number followed by more input read only a prefix; the caller's
		// next step declines on the rest.
		ok := s.OK() && s.pos == len(lit)
		var want float64
		werr := json.Unmarshal([]byte(lit), &want)
		if ok != (werr == nil) || (werr == nil && got != want) {
			t.Fatalf("Float(%s) = %v ok=%v; encoding/json %v, %v", lit, got, ok, want, werr)
		}
	}
}

func TestScannerIntMatchesUnmarshal(t *testing.T) {
	lits := []string{"0", "-0", "1", "-1", "42", "007", "1.0", "1.5", "1e3", "1E0", "-1e0", "1.", "-", "+1", "0x10",
		"127", "128", "-128", "-129", "255", "256", "9223372036854775807", "9223372036854775808",
		"-9223372036854775808", "-9223372036854775809", "18446744073709551615", "18446744073709551616",
		`"1"`, "true", "null", "nul"}
	// Each check reads lit into a value of one integer type both ways.
	checks := []struct {
		name string
		read func(*Scanner) any
		want func() any
	}{
		{"int64", func(s *Scanner) any { return s.Int(64) }, func() any { return new(int64) }},
		{"int8", func(s *Scanner) any { return int8(s.Int(8)) }, func() any { return new(int8) }},
		{"uint64", func(s *Scanner) any { return s.Uint(64) }, func() any { return new(uint64) }},
		{"uint8", func(s *Scanner) any { return uint8(s.Uint(8)) }, func() any { return new(uint8) }},
	}
	for _, c := range checks {
		for _, lit := range lits {
			s := NewScanner([]byte(lit))
			got := c.read(&s)
			// As for Float, a number followed by more input read only a
			// prefix; the caller's next step declines on the rest.
			ok := s.OK() && s.pos == len(lit)
			want := c.want()
			werr := json.Unmarshal([]byte(lit), want)
			wantVal := reflect.ValueOf(want).Elem().Interface()
			if ok && (werr != nil || got != wantVal) {
				t.Fatalf("%s(%s) = %v accepted; encoding/json %v, %v", c.name, lit, got, wantVal, werr)
			}
			if !ok && werr == nil {
				t.Fatalf("%s(%s) declined; encoding/json reads %v", c.name, lit, wantVal)
			}
		}
	}
}

// TestScannerStringBytesMatchesString checks that StringBytes reads what
// String reads and, for a literal unquoting leaves as it is, aliases the
// scanned data.
func TestScannerStringBytesMatchesString(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		lit := randomLiteral(rng)
		s1, s2 := NewScanner([]byte(lit)), NewScanner([]byte(lit))
		want, got := s1.String(), s2.StringBytes()
		if s1.OK() != s2.OK() || string(got) != want || s1.pos != s2.pos {
			t.Fatalf("StringBytes(%s) = %q ok=%v; String %q ok=%v", lit, got, s2.OK(), want, s1.OK())
		}
	}
	data := []byte(`"plain-id"`)
	s := NewScanner(data)
	if b := s.StringBytes(); string(b) != "plain-id" || &b[0] != &data[1] {
		t.Fatalf("StringBytes of a plain literal = %q, not the scanned bytes", b)
	}
}
