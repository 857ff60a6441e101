package pdp

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// flakyServer answers with the status in mode (0 = 200 OK) and counts
// every request it sees.
type flakyServer struct {
	mode atomic.Int32
	hits atomic.Int32
	srv  *httptest.Server
}

func newFlakyServer(t *testing.T) *flakyServer {
	t.Helper()
	f := &flakyServer{}
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		if code := int(f.mode.Load()); code != 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(code)
			w.Write([]byte(`{"error":"flaking"}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"allowed":true}`))
	}))
	t.Cleanup(f.srv.Close)
	return f
}

// TestRetryOn429: a 429 shed is transient, so a retrying client rides
// out a shedding server and succeeds once capacity returns.
func TestRetryOn429(t *testing.T) {
	f := newFlakyServer(t)
	f.mode.Store(http.StatusTooManyRequests)
	client := NewClient(f.srv.URL, f.srv.Client(), WithRetry(4, time.Millisecond))

	// Flip the server healthy after the second shed.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for f.hits.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		f.mode.Store(0)
	}()

	ok, err := client.Check(context.Background(), DecideRequest{
		Subject: "alice", Object: "tv", Transaction: "use",
	})
	<-done
	if err != nil || !ok {
		t.Fatalf("Check through 429s = %v, %v", ok, err)
	}
	if n := f.hits.Load(); n < 3 {
		t.Fatalf("server saw %d requests, want >= 3 (two sheds + success)", n)
	}
}

// TestRetryAfterParsed checks the Retry-After header lands on RemoteError
// for both of its RFC 9110 shapes.
func TestRetryAfterParsed(t *testing.T) {
	header := atomic.Value{}
	header.Store("7")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", header.Load().(string))
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, srv.Client())

	_, err := client.Decide(context.Background(), DecideRequest{Object: "tv", Transaction: "use"})
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v", err)
	}
	if re.RetryAfter != 7*time.Second {
		t.Fatalf("RetryAfter = %v, want 7s", re.RetryAfter)
	}

	header.Store(time.Now().Add(30 * time.Second).UTC().Format(http.TimeFormat))
	_, err = client.Decide(context.Background(), DecideRequest{Object: "tv", Transaction: "use"})
	if !errors.As(err, &re) {
		t.Fatalf("err = %v", err)
	}
	if re.RetryAfter <= 0 || re.RetryAfter > 30*time.Second {
		t.Fatalf("RetryAfter from HTTP date = %v, want in (0, 30s]", re.RetryAfter)
	}
}

// TestRetrySleepHonorsRetryAfter: with a tiny backoff base but a 1s server
// hint, the retry must wait at least the hint.
func TestRetrySleepHonorsRetryAfter(t *testing.T) {
	if testing.Short() {
		t.Skip("1s sleep")
	}
	f := newFlakyServer(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.hits.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"allowed":true}`))
	}))
	t.Cleanup(srv.Close)
	client := NewClient(srv.URL, srv.Client(), WithRetry(2, time.Millisecond))

	start := time.Now()
	ok, err := client.Check(context.Background(), DecideRequest{Object: "tv", Transaction: "use"})
	if err != nil || !ok {
		t.Fatalf("Check = %v, %v", ok, err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retried after %v, want >= ~1s (Retry-After honored)", elapsed)
	}
}

// TestRetryAfterClamped proves a hostile or misconfigured Retry-After —
// an enormous delay-seconds value or an HTTP date years out — cannot push
// the hint past MaxRetryAfter, and that the clamp is surfaced on the
// RemoteError and in its rendering.
func TestRetryAfterClamped(t *testing.T) {
	cases := []struct {
		name   string
		header string
	}{
		{"huge-seconds", "99999999999"},
		{"overflow-seconds", "999999999999999999"},
		{"far-future-date", time.Now().Add(365 * 24 * time.Hour).UTC().Format(http.TimeFormat)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Retry-After", tc.header)
				w.WriteHeader(http.StatusServiceUnavailable)
			}))
			t.Cleanup(srv.Close)
			client := NewClient(srv.URL, srv.Client())
			_, err := client.Decide(context.Background(), DecideRequest{Object: "tv", Transaction: "use"})
			var re *RemoteError
			if !errors.As(err, &re) {
				t.Fatalf("err = %v", err)
			}
			if re.RetryAfter != MaxRetryAfter {
				t.Fatalf("RetryAfter = %v, want clamped to %v", re.RetryAfter, MaxRetryAfter)
			}
			if !re.RetryAfterClamped {
				t.Fatal("RetryAfterClamped not set")
			}
			if !strings.Contains(re.Error(), "clamped") {
				t.Fatalf("Error() = %q, want the clamp surfaced", re.Error())
			}
		})
	}
	// Sane hints still pass through unclamped.
	d, clamped := parseRetryAfter("7")
	if d != 7*time.Second || clamped {
		t.Fatalf("parseRetryAfter(7) = %v, %v", d, clamped)
	}
	if d, clamped := parseRetryAfter("-3"); d != 0 || clamped {
		t.Fatalf("parseRetryAfter(-3) = %v, %v", d, clamped)
	}
}
