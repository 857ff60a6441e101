package pdp

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/aware-home/grbac/internal/core"
)

// wireStrings are the string values random wire structs draw from: the
// identifiers real requests carry plus every class of byte the codec
// escapes or repairs.
var wireStrings = []string{
	"", "alice", "tv", "use", "weekday-free-time", "s1/sess-9", "permit", "deny",
	"deny-overrides", "1 matching permission(s) resolved to permit by deny-overrides",
	`say "hi"`, `back\slash`, "<script>&", "tab\tnew\nline", "\x00\x1f\x7f",
	"é日本\U0001F600", string(rune(0x2028)) + string(rune(0x2029)), "bad\xffutf8\xc0",
}

var wireFloats = []float64{0, 1, 0.75, 0.9, 0.98, 1e-7, 2.5e-9, 1e21, 1.5e300, -0.5, 1.0 / 3}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// randomStrings returns nil, an empty slice or a few strings.
func randomStrings(rng *rand.Rand) []string {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, 1+rng.Intn(3))
	for i := range out {
		out[i] = pick(rng, wireStrings)
	}
	return out
}

func randomDecideRequest(rng *rand.Rand) DecideRequest {
	r := DecideRequest{
		Subject:     pick(rng, wireStrings),
		Session:     pick(rng, wireStrings),
		Object:      pick(rng, wireStrings),
		Transaction: pick(rng, wireStrings),
		Environment: randomStrings(rng),
	}
	switch rng.Intn(3) {
	case 1:
		r.Credentials = []Credential{}
	case 2:
		for n := 1 + rng.Intn(3); n > 0; n-- {
			r.Credentials = append(r.Credentials, Credential{
				Subject: pick(rng, wireStrings), Role: pick(rng, wireStrings),
				Confidence: pick(rng, wireFloats), Source: pick(rng, wireStrings),
			})
		}
	}
	return r
}

func randomDecideResponse(rng *rand.Rand) DecideResponse {
	r := DecideResponse{
		Allowed: rng.Intn(2) == 0, Effect: pick(rng, wireStrings), DefaultDeny: rng.Intn(2) == 0,
		Strategy: pick(rng, wireStrings), Reason: pick(rng, wireStrings),
		Stale: rng.Intn(2) == 0, CorrelationID: pick(rng, wireStrings),
	}
	switch rng.Intn(3) {
	case 1:
		r.Matches = []Match{}
	case 2:
		for n := 1 + rng.Intn(3); n > 0; n-- {
			r.Matches = append(r.Matches, Match{
				Effect: pick(rng, wireStrings), SubjectRole: pick(rng, wireStrings),
				ObjectRole: pick(rng, wireStrings), EnvironmentRole: pick(rng, wireStrings),
				Transaction: pick(rng, wireStrings), Confidence: pick(rng, wireFloats),
			})
		}
	}
	return r
}

// TestCodecEncodersMatchEncodingJSON holds every encoder to json.Marshal's
// bytes on random values, and to its error on non-finite floats.
func TestCodecEncodersMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	same := func(v any, got []byte, gotErr error) {
		t.Helper()
		want, wantErr := json.Marshal(v)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("encode %+v: error %v, encoding/json %v", v, gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("encode %+v:\n got %s\nwant %s", v, got, want)
		}
	}
	for i := 0; i < 5000; i++ {
		req := randomDecideRequest(rng)
		b, err := appendDecideRequest(nil, &req)
		same(req, b, err)
		resp := randomDecideResponse(rng)
		b, err = appendDecideResponse(nil, &resp)
		same(resp, b, err)
		check := CheckResponse{Allowed: resp.Allowed, Stale: resp.Stale, CorrelationID: resp.CorrelationID}
		same(check, appendCheckResponse(nil, &check), nil)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		req := DecideRequest{Object: "tv", Credentials: []Credential{{Subject: "alice", Confidence: bad}}}
		b, err := appendDecideRequest(nil, &req)
		same(req, b, err)
		resp := DecideResponse{Matches: []Match{{Confidence: bad}}}
		b, err = appendDecideResponse(nil, &resp)
		same(resp, b, err)
	}
}

// TestCodecEncodeZeroAllocs pins the point of the encoders: a reply
// encoded into a reused buffer allocates nothing.
func TestCodecEncodeZeroAllocs(t *testing.T) {
	resp := DecideResponse{Allowed: true, Effect: "permit", Strategy: "deny-overrides",
		Reason: "1 matching permission(s) resolved to permit by deny-overrides", CorrelationID: "c0ffee",
		Matches: []Match{{Effect: "permit", SubjectRole: "child", ObjectRole: "entertainment-devices",
			EnvironmentRole: "weekday-free-time", Transaction: "use", Confidence: 0.98}}}
	check := CheckResponse{Allowed: true, Stale: true, CorrelationID: "c0ffee"}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() {
		buf, _ = appendDecideResponse(buf[:0], &resp)
		buf = appendCheckResponse(buf[:0], &check)
	}); n != 0 {
		t.Fatalf("encoding replies into a reused buffer made %v allocations, want 0", n)
	}
}

// refDecode is the reference every codec decoder is held to:
// json.Decoder's Decode of the first value in data.
func refDecode(data []byte, v any, strict bool) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if strict {
		dec.DisallowUnknownFields()
	}
	return dec.Decode(v)
}

// refReadBody is how a decide body was read before the codec: strict
// JSON straight off the size-bounded body.
func refReadBody(body []byte, v any, strict bool) error {
	dec := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), maxBodyBytes))
	if strict {
		dec.DisallowUnknownFields()
	}
	return dec.Decode(v)
}

func sameResult(t *testing.T, what string, data []byte, got, want any, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s(%q): error %v, encoding/json %v", what, data, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s(%q):\n got %+v\nwant %+v", what, data, got, want)
	}
}

// checkRequestDecode holds the request decoder and the server and router
// read path built on it to encoding/json.
func checkRequestDecode(t *testing.T, data []byte) {
	var fast DecideRequest
	if decodeDecideRequest(data, &fast) {
		for _, strict := range []bool{true, false} {
			var want DecideRequest
			sameResult(t, "decodeDecideRequest", data, fast, want, nil, refDecode(data, &want, strict))
		}
	} else if !reflect.DeepEqual(fast, DecideRequest{}) {
		t.Fatalf("declined decode of %q left %+v, want the zero value", data, fast)
	}
	for _, strict := range []bool{true, false} {
		r := httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(data))
		buf := getBuf()
		var got, want DecideRequest
		err := readDecide(httptest.NewRecorder(), r, buf, &got, strict)
		putBuf(buf)
		sameResult(t, "readDecide", data, got, want, err, refReadBody(data, &want, strict))
	}
}

// checkReplyDecode holds the reply decoders to encoding/json.
func checkReplyDecode(t *testing.T, data []byte) {
	var fast, want DecideResponse
	if decodeDecideResponse(data, &fast) {
		sameResult(t, "decodeDecideResponse", data, fast, want, nil, refDecode(data, &want, false))
	} else if !reflect.DeepEqual(fast, DecideResponse{}) {
		t.Fatalf("declined decode of %q left %+v, want the zero value", data, fast)
	}
	var cfast, cwant CheckResponse
	if decodeCheckResponse(data, &cfast) {
		sameResult(t, "decodeCheckResponse", data, cfast, cwant, nil, refDecode(data, &cwant, false))
	} else if cfast != (CheckResponse{}) {
		t.Fatalf("declined decode of %q left %+v, want the zero value", data, cfast)
	}
}

// u writes a \u escape without spelling one in this source.
func u(hex string) string { return `\` + "u" + hex }

// requestSeeds covers canonical output, whitespace, case-variant and
// duplicate keys, unknown fields, nulls, \u escapes with surrogate pairs,
// invalid UTF-8, trailing garbage and bodies at the size bound.
func requestSeeds() []string {
	canon := `{"subject":"alice","object":"tv","transaction":"use","environment":["weekday-free-time"]}`
	seeds := []string{
		canon,
		`{"session":"s0/7","object":"tv","transaction":"use","credentials":[{"subject":"alice","confidence":0.75,"source":"floor"},{"role":"child","confidence":0.98}],"environment":[]}`,
		`{"object":"tv","transaction":"use","environment":null}`,
		" \t\r\n{ \"subject\" :\n\"alice\" ,\t\"object\":\"tv\" , \"transaction\" : \"use\" , \"environment\" : [ \"a\" , \"b\" ] }\n",
		`{"Subject":"alice","object":"tv","transaction":"use"}`,
		`{"OBJECT":"tv","transaction":"use"}`,
		`{"subject":"alice","subject":"bob","object":"tv","transaction":"use"}`,
		`{"object":"tv","transaction":"use","environment":["a"],"environment":["b","c"]}`,
		`{"subject":"alice","object":"tv","transaction":"use","bogus":1}`,
		`{"subject":null,"session":null,"object":"tv","transaction":"use","credentials":[null,{"subject":null,"confidence":null}],"environment":[null,"a"]}`,
		`{"credentials":null,"object":"tv","transaction":"use"}`,
		`{"subject":"` + u("0061") + `lice ` + u("d83d") + u("de00") + ` ` + u("d83d") + ` ` + u("DE00") + `x\"\\\/\b\f\n\r\t","object":"tv","transaction":"use"}`,
		`{"subject":"` + u("d800") + u("0041") + `","object":"` + u("12") + `","transaction":"use"}`,
		"{\"subject\":\"al\xffice\xc0\",\"object\":\"t\xe2\x80v\",\"transaction\":\"use\"}",
		"{\"subject\":\"a\x01b\",\"object\":\"tv\",\"transaction\":\"use\"}",
		canon + "garbage",
		canon + "}",
		canon + `{"subject":"bob"}`,
		`{"subject":"alice","object":"tv","transaction":"use",}`,
		`{"subject":7,"object":"tv","transaction":"use"}`,
		`{"object":"tv","transaction":"use","environment":"weekday-free-time"}`,
		`{"object":"tv","transaction":"use","credentials":{"subject":"alice"}}`,
		`{"object":"tv","transaction":"use","credentials":[{"confidence":"0.9"}]}`,
		`{"object":"tv","transaction":"use","credentials":[{"confidence":1e400}]}`,
		`{"object":"tv","transaction":"use","credentials":[{"confidence":-0.0e-0}]}`,
		`{"object":"tv","transaction":"use","credentials":[{"confidence":01}]}`,
		`{"object":"tv","transaction":"use","credentials":[{"confidence":true}]}`,
		`{"object":"tv"`,
		`{"object":tv}`,
		"",
		"null",
		"[]",
		`"alice"`,
		"\xef\xbb\xbf" + canon,
	}
	// At the size bound: padded to exactly maxBodyBytes, and one byte over.
	pad := strings.Repeat(" ", maxBodyBytes-len(canon))
	return append(seeds, pad+canon, pad+" "+canon)
}

// replySeeds covers the same classes for the reply shapes.
func replySeeds() []string {
	canon := `{"allowed":true,"effect":"permit","default_deny":false,"strategy":"deny-overrides","reason":"1 matching permission(s) resolved to permit by deny-overrides","matches":[{"effect":"permit","subject_role":"child","object_role":"entertainment-devices","environment_role":"weekday-free-time","transaction":"use","confidence":1}],"correlation_id":"c0ffee"}`
	return []string{
		canon + "\n",
		`{"allowed":false,"effect":"deny","default_deny":true,"strategy":"deny-overrides","reason":"no matching permission","stale":true}`,
		`{"allowed":true,"stale":true,"correlation_id":"c0ffee"}` + "\n",
		`{"allowed":false}`,
		" {\n \"allowed\" : true ,\t\"matches\" : [ ] } ",
		`{"Allowed":true}`,
		`{"allowed":true,"allowed":false}`,
		`{"allowed":true,"future_field":{"nested":[1,2]}}`,
		`{"allowed":null,"effect":null,"matches":null,"stale":null,"correlation_id":null}`,
		`{"matches":[null,{"confidence":null,"effect":null}]}`,
		`{"reason":"` + u("2028") + u("d83d") + u("de00") + u("dbff") + ` \"quoted\" ` + u("003c") + `","effect":"permit"}`,
		"{\"reason\":\"bad \xff utf8\"}",
		canon + "garbage",
		`{"allowed":"true"}`,
		`{"matches":[{"confidence":"high"}]}`,
		`{"matches":{}}`,
		`{"allowed":tru}`,
		"",
		"null",
	}
}

// TestDecodersAcceptCanonicalOutput checks the codec is not declining its
// own output: every random value the encoders write decodes by hand.
func TestDecodersAcceptCanonicalOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		req := randomDecideRequest(rng)
		b, _ := appendDecideRequest(nil, &req)
		var got DecideRequest
		if !decodeDecideRequest(b, &got) {
			t.Fatalf("request decoder declined canonical %s", b)
		}
		checkRequestDecode(t, b)
		resp := randomDecideResponse(rng)
		b, _ = appendDecideResponse(nil, &resp)
		var gotResp DecideResponse
		if !decodeDecideResponse(b, &gotResp) {
			t.Fatalf("reply decoder declined canonical %s", b)
		}
		checkReplyDecode(t, b)
	}
}

// The fuzz targets run their seeds on every go test; `make fuzz` explores
// from them.
func FuzzDecideRequestCodec(f *testing.F) {
	for _, s := range requestSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(checkRequestDecode)
}

func FuzzDecideResponseCodec(f *testing.F) {
	for _, s := range replySeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(checkReplyDecode)
}

// TestMalformedDecideBodies holds the server's and the router's replies to
// bad bodies to what they were before the codec: the same status and the
// same error text, and for bodies encoding/json accepts (trailing garbage,
// unknown fields at the router) the same decision as the clean body.
func TestMalformedDecideBodies(t *testing.T) {
	srv, _ := newTestServer(t)
	c := newRouterCluster(t, 2)
	c.addSubjects(t, 1)
	canon := `{"subject":"subject-000","object":"tv","transaction":"use","environment":["weekday-free-time"]}`
	bodies := map[string]string{
		"unknown field":        `{"subject":"subject-000","object":"tv","transaction":"use","bogus":1}`,
		"trailing garbage":     canon + "garbage",
		"second value":         canon + `{"subject":"bob"}`,
		"wrong type subject":   `{"subject":7,"object":"tv","transaction":"use"}`,
		"wrong type env":       `{"subject":"subject-000","object":"tv","transaction":"use","environment":"weekday-free-time"}`,
		"wrong type cred":      `{"subject":"subject-000","object":"tv","transaction":"use","credentials":[{"confidence":"high"}]}`,
		"float out of range":   `{"subject":"subject-000","object":"tv","transaction":"use","credentials":[{"subject":"subject-000","confidence":1e400}]}`,
		"case variant key":     `{"Subject":"subject-000","object":"tv","transaction":"use"}`,
		"truncated":            `{"subject":"subject-000","object":"tv"`,
		"syntax":               `{nope`,
		"empty":                "",
		"null":                 "null",
		"oversize":             strings.Repeat(" ", maxBodyBytes) + canon,
		"oversize after value": canon + strings.Repeat(" ", maxBodyBytes),
	}
	post := func(url, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(CorrelationHeader, "malformed-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	for _, tier := range []struct {
		name, base string
		strict     bool
	}{{"server", srv.URL, true}, {"router", c.front.URL, false}} {
		for _, path := range []string{"/v1/decide", "/v1/check"} {
			for name, body := range bodies {
				var want DecideRequest
				wantStatus, wantBody := http.StatusBadRequest, ""
				if err := refReadBody([]byte(body), &want, tier.strict); err != nil {
					raw, _ := json.Marshal(ErrorResponse{Error: "malformed request: " + err.Error()})
					wantBody = string(raw) + "\n"
				} else {
					clean, _ := json.Marshal(want)
					wantStatus, wantBody = post(tier.base+path, string(clean))
				}
				if status, got := post(tier.base+path, body); status != wantStatus || got != wantBody {
					t.Errorf("%s %s %s: got %d %q, want %d %q", tier.name, path, name, status, got, wantStatus, wantBody)
				}
			}
		}
	}
}

// staticEnv is an environment source with a fixed set of active roles.
type staticEnv []core.RoleID

func (e staticEnv) ActiveEnvironmentRoles() []core.RoleID { return e }

// TestExplicitEmptyEnvironmentOnWire: an explicit empty environment means
// "no environment roles active" and must survive the client and the
// router, so a server whose live source activates the granting role still
// denies it; an absent environment asks for that source and permits.
func TestExplicitEmptyEnvironmentOnWire(t *testing.T) {
	ctx := context.Background()
	live := staticEnv{"weekday-free-time"}
	srv, sys := newTestServer(t)
	sys.SetEnvironmentSource(live)
	c := newRouterCluster(t, 2)
	for _, s := range c.sys {
		s.SetEnvironmentSource(live)
	}
	subject := c.addSubjects(t, 1)[0]
	for _, tier := range []struct {
		name    string
		client  *Client
		subject string
	}{{"client", NewClient(srv.URL, nil), "alice"}, {"router", c.client, subject}} {
		for _, env := range [][]string{{}, nil} {
			req := DecideRequest{Subject: tier.subject, Object: "tv", Transaction: "use", Environment: env}
			wantAllowed := env == nil
			d, err := tier.client.Decide(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			ok, err := tier.client.Check(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if d.Allowed != wantAllowed || ok != wantAllowed {
				t.Errorf("%s environment %#v: Decide allowed=%v, Check=%v; want %v", tier.name, env, d.Allowed, ok, wantAllowed)
			}
		}
	}
}

// TestRouterForwardsCorrelationID: the router hands the caller's
// X-Correlation-ID to the owning shard, which audits under it, and echoes
// it on its own reply; a caller that sends none gets one minted by the
// router, the same one the shard audits.
func TestRouterForwardsCorrelationID(t *testing.T) {
	c := newRouterCluster(t, 2)
	subject := c.addSubjects(t, 1)[0]
	trail := c.trails[c.m.Owner(subject).ID]
	body := `{"subject":"` + subject + `","object":"tv","transaction":"use","environment":["weekday-free-time"]}`
	for _, sent := range []string{"corr-route-1", ""} {
		for _, path := range []string{"/v1/decide", "/v1/check"} {
			req, err := http.NewRequest(http.MethodPost, c.front.URL+path, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if sent != "" {
				req.Header.Set(CorrelationHeader, sent)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var reply CheckResponse
			err = json.NewDecoder(resp.Body).Decode(&reply)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d, %v", path, resp.StatusCode, err)
			}
			id := resp.Header.Get(CorrelationHeader)
			if id == "" || (sent != "" && id != sent) {
				t.Fatalf("%s sent %q: reply header %s = %q", path, sent, CorrelationHeader, id)
			}
			if reply.CorrelationID != id {
				t.Fatalf("%s: reply body correlation_id %q, header %q", path, reply.CorrelationID, id)
			}
			recs := trail.Records()
			if got := recs[len(recs)-1].CorrelationID; got != id {
				t.Fatalf("%s sent %q: shard audited %q, router replied %q", path, sent, got, id)
			}
		}
	}
}
