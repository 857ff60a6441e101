package pdp

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientNon2xxMalformedErrorBody: a 500 whose body is not the JSON
// error envelope must still surface as ErrRemote with the status, not as
// a decode error.
func TestClientNon2xxMalformedErrorBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte("<html>gateway exploded</html>"))
	}))
	defer srv.Close()

	client := NewClient(srv.URL, srv.Client())
	_, err := client.Decide(context.Background(), DecideRequest{})
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusInternalServerError {
		t.Fatalf("err = %v, want RemoteError{500}", err)
	}
	if re.Message != "" {
		t.Fatalf("malformed body produced message %q", re.Message)
	}
	if !strings.Contains(err.Error(), "status 500") {
		t.Fatalf("error text %q lost the status", err.Error())
	}
}

// TestClientNon2xxStructuredErrorBody: the error envelope's message is
// carried through, by a decide and by a metrics scrape alike.
func TestClientNon2xxStructuredErrorBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write([]byte(`{"error":"transaction \"nope\" not found"}`))
	}))
	defer srv.Close()

	client := NewClient(srv.URL, srv.Client())
	_, err := client.Decide(context.Background(), DecideRequest{})
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want RemoteError{400}", err)
	}
	if !strings.Contains(re.Message, "not found") {
		t.Fatalf("message %q lost the server's explanation", re.Message)
	}
	if _, err := client.Metrics(context.Background()); !errors.As(err, &re) || !strings.Contains(re.Message, "not found") {
		t.Fatalf("Metrics err = %v, want RemoteError{400} with the server's explanation", err)
	}
}

// TestClientTruncatedResponse: a 200 whose JSON body is cut off mid-value
// is a decode error, not a silent zero-value success.
func TestClientTruncatedResponse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"allowed":true,"effect":"per`))
	}))
	defer srv.Close()

	client := NewClient(srv.URL, srv.Client())
	_, err := client.Decide(context.Background(), DecideRequest{})
	if err == nil {
		t.Fatal("truncated body accepted")
	}
	if errors.Is(err, ErrRemote) || errors.Is(err, ErrTransport) {
		t.Fatalf("truncation misclassified: %v", err)
	}
	if !strings.Contains(err.Error(), "decode response") {
		t.Fatalf("err = %v, want decode error", err)
	}
}

// TestClientContextCancelMidRequest: cancelling while the server is
// holding the response fails promptly with the cancellation, and the
// retry layer must not swallow it into backoff sleeps.
func TestClientContextCancelMidRequest(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)

	// Retry enabled on purpose: cancellation must short-circuit it.
	client := NewClient(srv.URL, srv.Client(), WithRetry(5, time.Second))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := client.Decide(ctx, DecideRequest{})
	if err == nil {
		t.Fatal("cancelled request succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v — retry backoff was not short-circuited", elapsed)
	}
}

// TestClientRetryRecoversFrom5xx: with WithRetry, transient 5xx replies
// are retried until the server recovers.
func TestClientRetryRecoversFrom5xx(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"allowed":true}`))
	}))
	defer srv.Close()

	client := NewClient(srv.URL, srv.Client(), WithRetry(4, time.Millisecond))
	ok, err := client.Check(context.Background(), DecideRequest{})
	if err != nil {
		t.Fatalf("Check after retries: %v", err)
	}
	if !ok || calls.Load() != 3 {
		t.Fatalf("ok=%v calls=%d, want true after exactly 3 calls", ok, calls.Load())
	}
}

// TestClientRetryGivesUpAfterMaxAttempts: a persistently failing server
// exhausts the budget and returns the last error.
func TestClientRetryGivesUpAfterMaxAttempts(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	client := NewClient(srv.URL, srv.Client(), WithRetry(3, time.Millisecond))
	_, err := client.Decide(context.Background(), DecideRequest{})
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want RemoteError{503}", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
}

// TestClientRetryDoesNotRetry4xx: client mistakes are permanent; retrying
// them only hides bugs and burns the primary.
func TestClientRetryDoesNotRetry4xx(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write([]byte(`{"error":"malformed request"}`))
	}))
	defer srv.Close()

	client := NewClient(srv.URL, srv.Client(), WithRetry(5, time.Millisecond))
	_, err := client.Decide(context.Background(), DecideRequest{})
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1 (no retry on 4xx)", calls.Load())
	}
}

// TestClientConnectionRefusedIsTransport: a dead server yields
// ErrTransport — the class the retry policy treats as transient — and
// with retries enabled the attempts are actually spent on it.
func TestClientConnectionRefusedIsTransport(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	addr := srv.URL
	srv.Close() // now refusing connections

	client := NewClient(addr, nil)
	_, err := client.Decide(context.Background(), DecideRequest{})
	if !errors.Is(err, ErrTransport) {
		t.Fatalf("err = %v, want ErrTransport", err)
	}
	if !transient(err) {
		t.Fatal("connection refused not classified transient")
	}
}

// TestClientSingleShotByDefault: without WithRetry the client must not
// retry, keeping test determinism and caller-controlled latency.
func TestClientSingleShotByDefault(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	client := NewClient(srv.URL, srv.Client())
	_, err := client.Decide(context.Background(), DecideRequest{})
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1", calls.Load())
	}
}

// TestClientRequestBuilderMatchesNewRequest: every request shape the
// client sends is built as http.NewRequestWithContext on base+path plus
// Header.Set built it: method, URL, Host, headers, body, Content-Length,
// GetBody replay and context. Bases the parsed-once URL cannot extend
// exactly, and paths it cannot hold as written, take that parsing route
// themselves.
func TestClientRequestBuilderMatchesNewRequest(t *testing.T) {
	decide, err := appendDecideRequest(nil, &DecideRequest{Subject: "alice", Object: "tv", Transaction: "use"})
	if err != nil {
		t.Fatal(err)
	}
	corrCtx := withCorrelation(context.Background(), "corr-1")
	shapes := []struct {
		name         string
		ctx          context.Context
		method, path string
		raw          []byte
	}{
		{"decide", context.Background(), http.MethodPost, "/v1/decide", decide},
		{"decide with correlation", corrCtx, http.MethodPost, "/v1/decide", decide},
		{"subjects-in-role", context.Background(), http.MethodGet, "/v1/query/subjects-in-role?role=" + url.QueryEscape("a b&c/é#"), nil},
		{"Call with a nil body", corrCtx, http.MethodGet, ShardMapPath, nil},
		{"empty query", context.Background(), http.MethodGet, "/v1/statsz?", nil},
		{"escaped path", context.Background(), http.MethodGet, "/v1/a%2Fb", nil},
		{"query with a space", context.Background(), http.MethodGet, "/v1/query/what-can?subject=a b", nil},
		{"query with a fragment", context.Background(), http.MethodGet, "/v1/query/what-can?subject=a#b", nil},
	}
	for _, base := range []struct {
		url      string
		reusable bool
	}{
		{"http://127.0.0.1:8125", true},
		{"http://127.0.0.1:8125/", true},
		{"http://user:pw@localhost:8125/prefix/", true},
		{"https://pdp.example/a%2Fb", false},
		{"http://localhost:", false},
		{"http://localhost:8125/?x=1", false},
		{"localhost:8125", false},
		{"http://localhost:8125/%zz", false},
	} {
		c := NewClient(base.url, nil)
		if (c.url != nil) != base.reusable {
			t.Fatalf("%s: parsed base %v, want reusable %v", base.url, c.url, base.reusable)
		}
		for _, sh := range shapes {
			name := base.url + " " + sh.name
			got, gotErr := c.newRequest(sh.ctx, sh.method, sh.path, sh.raw)
			want, wantErr := referenceRequest(sh.ctx, c.base+sh.path, sh.method, sh.raw)
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("%s: error %v, want %v", name, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if got.Method != want.Method || !reflect.DeepEqual(got.URL, want.URL) || got.Host != want.Host ||
				got.Proto != want.Proto || got.ProtoMajor != want.ProtoMajor || got.ProtoMinor != want.ProtoMinor ||
				!reflect.DeepEqual(got.Header, want.Header) || got.ContentLength != want.ContentLength ||
				got.Context() != want.Context() {
				t.Fatalf("%s:\n got %s %#v host %q %v len %d\nwant %s %#v host %q %v len %d", name,
					got.Method, got.URL, got.Host, got.Header, got.ContentLength,
					want.Method, want.URL, want.Host, want.Header, want.ContentLength)
			}
			if (got.Body == nil) != (want.Body == nil) || (got.GetBody == nil) != (want.GetBody == nil) {
				t.Fatalf("%s: body %v getBody %v, want body %v getBody %v", name,
					got.Body != nil, got.GetBody != nil, want.Body != nil, want.GetBody != nil)
			}
			if got.Body == nil {
				continue
			}
			// The body, then a replay after it was read.
			for _, r := range []*http.Request{got, got} {
				body := readBody(t, r.Body)
				if body != string(sh.raw) {
					t.Fatalf("%s: body %q, want %q", name, body, sh.raw)
				}
				if r.Body, err = r.GetBody(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// referenceRequest is the request as http.NewRequestWithContext and
// Header.Set build it.
func referenceRequest(ctx context.Context, rawURL, method string, raw []byte) (*http.Request, error) {
	var body io.Reader
	if raw != nil {
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, rawURL, body)
	if err != nil || raw == nil {
		return req, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id, _ := ctx.Value(correlationKey{}).(string); id != "" {
		req.Header.Set(CorrelationHeader, id)
	}
	return req, nil
}

func readBody(t *testing.T, rc io.ReadCloser) string {
	t.Helper()
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestClientDecideBodyOneAlloc: the client sizes a decide body once, so
// encoding one costs a single allocation, credentials included.
func TestClientDecideBodyOneAlloc(t *testing.T) {
	for _, in := range []*DecideRequest{
		{Subject: "alice", Object: "entertainment-devices", Transaction: "use",
			Environment: []string{"weekday-free-time", "home-occupied"}},
		{Session: "sess-12-c0ffee", Object: "tv", Transaction: "use",
			Credentials: []Credential{{Subject: "alice", Role: "parent", Confidence: 0.123456789012345678, Source: "face-recognizer"}},
			Environment: []string{"weekday-free-time"}},
	} {
		raw, err := encodeDecideRequest(in)
		want, _ := appendDecideRequest(nil, in)
		if err != nil || !bytes.Equal(raw, want) {
			t.Fatalf("encodeDecideRequest = %s, %v; want %s", raw, err, want)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = encodeDecideRequest(in) }); n != 1 {
			t.Fatalf("encoding a %d-byte decide body made %v allocations, want 1", len(raw), n)
		}
	}
}
