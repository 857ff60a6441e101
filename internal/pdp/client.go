package pdp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/retry"
)

// ErrRemote reports a non-2xx reply from the PDP server.
var ErrRemote = errors.New("pdp: remote error")

// ErrTransport reports a failure to reach the PDP server at all
// (connection refused, reset, DNS failure, ...).
var ErrTransport = errors.New("pdp: transport error")

// RemoteError is the concrete error behind ErrRemote, carrying the HTTP
// status so callers (and the retry policy) can distinguish a client
// mistake (4xx, permanent) from a server fault (5xx, transient).
type RemoteError struct {
	Status  int
	Message string
	// RetryAfter is the server's parsed Retry-After hint (zero when the
	// reply carried none). Overloaded PDPs send it on 429/503 sheds; the
	// retry policy honors it. Hints beyond MaxRetryAfter are clamped to
	// it — a misconfigured (or hostile) server must not be able to stall
	// a retrying client for hours with one far-future HTTP date.
	RetryAfter time.Duration
	// RetryAfterClamped reports that the server's hint exceeded
	// MaxRetryAfter and RetryAfter carries the clamped value, not the
	// server's.
	RetryAfterClamped bool
	// Moved carries the 421 redirect payload when the server reports the
	// request's subject migrated to another shard: the new owner and the
	// map version to catch up to. Nil on every other status.
	Moved *MovedInfo
}

// MaxRetryAfter caps how far a server Retry-After hint can push out the
// retry sleep floor.
const MaxRetryAfter = 5 * time.Minute

// Error renders the same strings the pre-typed errors produced, noting a
// clamped Retry-After so operators can see the server asked for more.
func (e *RemoteError) Error() string {
	suffix := ""
	if e.RetryAfterClamped {
		suffix = fmt.Sprintf(" (Retry-After clamped to %v)", e.RetryAfter)
	}
	if e.Message != "" {
		return fmt.Sprintf("pdp: remote error: %d: %s%s", e.Status, e.Message, suffix)
	}
	return fmt.Sprintf("pdp: remote error: status %d%s", e.Status, suffix)
}

// Is makes errors.Is(err, ErrRemote) hold for RemoteError values.
func (e *RemoteError) Is(target error) bool { return target == ErrRemote }

// Client talks to a PDP server.
type Client struct {
	base string
	http *http.Client
	// attempts is the total tries per request (1 = single-shot, the
	// default); retryBase seeds the exponential backoff between tries.
	attempts  int
	retryBase time.Duration
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithRetry enables retries for transient failures — transport errors,
// 5xx replies, and 429 sheds — with exponential backoff plus jitter
// between attempts, honoring context cancellation and any server
// Retry-After hint. maxAttempts counts the first try; other 4xx replies,
// decode errors, and context cancellation never retry. It is opt-in so
// tests and latency-sensitive callers keep deterministic single-shot
// behavior.
func WithRetry(maxAttempts int, baseDelay time.Duration) ClientOption {
	return func(c *Client) {
		if maxAttempts > 1 {
			c.attempts = maxAttempts
		}
		if baseDelay > 0 {
			c.retryBase = baseDelay
		}
	}
}

// pooledHTTPClient is the shared fan-out-tuned transport behind every
// Client built with a nil httpClient. http.DefaultTransport keeps only 2
// idle connections per host (DefaultMaxIdleConnsPerHost), so a router
// scatter-gathering dozens of concurrent requests at the same shard
// opens and tears down a TCP connection for nearly every call. Raising
// the idle pool to match the fan-out makes reuse the common case;
// MaxConnsPerHost bounds the damage of an unresponsive shard (a capped
// connection pile-up instead of an unbounded FD leak).
var pooledHTTPClient = newPooledHTTPClient()

func newPooledHTTPClient() *http.Client {
	t, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		return &http.Client{}
	}
	t = t.Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 64
	t.MaxConnsPerHost = 256
	t.IdleConnTimeout = 90 * time.Second
	return &http.Client{Transport: t}
}

// PooledHTTPClient returns the shared connection-pooled client the pdp
// package uses by default, so other layers (router, SDK, replica pullers)
// can ride the same tuned transport instead of http.DefaultClient.
func PooledHTTPClient() *http.Client { return pooledHTTPClient }

// NewClient builds a client for the PDP at baseURL (e.g.
// "http://localhost:8125"). A nil httpClient selects the shared
// fan-out-tuned pooled client (see PooledHTTPClient).
func NewClient(baseURL string, httpClient *http.Client, opts ...ClientOption) *Client {
	if httpClient == nil {
		httpClient = pooledHTTPClient
	}
	c := &Client{
		base:      strings.TrimRight(baseURL, "/"),
		http:      httpClient,
		attempts:  1,
		retryBase: 100 * time.Millisecond,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Decide requests a full decision.
func (c *Client) Decide(ctx context.Context, req DecideRequest) (DecideResponse, error) {
	var resp DecideResponse
	err := c.postDecide(ctx, "/v1/decide", &req, &resp, func(data []byte) bool {
		return decodeDecideResponse(data, &resp)
	})
	return resp, err
}

// DecideBatch requests decisions for many requests in one round trip.
// The server mediates every item against the same policy snapshot, so the
// reply is internally consistent; results align index-for-index with reqs.
func (c *Client) DecideBatch(ctx context.Context, reqs []DecideRequest) (BatchDecideResponse, error) {
	var resp BatchDecideResponse
	err := c.post(ctx, "/v1/decide/batch", BatchDecideRequest{Requests: reqs}, &resp)
	return resp, err
}

// Check requests a boolean decision.
func (c *Client) Check(ctx context.Context, req DecideRequest) (bool, error) {
	resp, err := c.check(ctx, req)
	return resp.Allowed, err
}

// check requests a boolean decision and returns the whole reply.
func (c *Client) check(ctx context.Context, req DecideRequest) (CheckResponse, error) {
	var resp CheckResponse
	err := c.postDecide(ctx, "/v1/check", &req, &resp, func(data []byte) bool {
		return decodeCheckResponse(data, &resp)
	})
	return resp, err
}

// State fetches the server's policy snapshot.
func (c *Client) State(ctx context.Context) (core.State, error) {
	var st core.State
	err := c.get(ctx, "/v1/state", &st)
	return st, err
}

// Stats fetches the server's decision-cache statistics.
func (c *Client) Stats(ctx context.Context) (core.Stats, error) {
	var st core.Stats
	err := c.get(ctx, "/v1/statsz", &st)
	return st, err
}

// Statsz fetches the full statistics reply, including the replication
// section follower PDPs expose.
func (c *Client) Statsz(ctx context.Context) (StatszResponse, error) {
	var st StatszResponse
	err := c.get(ctx, "/v1/statsz", &st)
	return st, err
}

// Healthy reports whether the server answers its liveness probe. A
// follower past its staleness bound answers 503 and reports unhealthy
// here, even though its decision endpoints still serve.
func (c *Client) Healthy(ctx context.Context) bool {
	var out HealthResponse
	return c.get(ctx, "/v1/healthz", &out) == nil && out.Status == "ok"
}

// SubjectsInRole asks the server which of its subjects hold the subject
// role (directly or through inheritance). On a shard it covers only that
// shard's partition — the router unions the per-shard answers.
func (c *Client) SubjectsInRole(ctx context.Context, role string) (SubjectsInRoleResponse, error) {
	var resp SubjectsInRoleResponse
	err := c.get(ctx, "/v1/query/subjects-in-role?role="+url.QueryEscape(role), &resp)
	return resp, err
}

// Call issues an arbitrary JSON request against the server — the
// router's generic forwarding primitive for admin endpoints, so every
// admin wire shape does not need a dedicated method. A nil `in` sends no
// body; a nil `out` discards the reply body.
func (c *Client) Call(ctx context.Context, method, path string, in, out any) error {
	if in == nil {
		return c.do(ctx, func() (*http.Request, error) {
			req, err := http.NewRequestWithContext(ctx, method, c.base+path, nil)
			if err != nil {
				return nil, fmt.Errorf("pdp: build request: %w", err)
			}
			return req, nil
		}, decodeJSON(out))
	}
	return c.request(ctx, method, path, in, out)
}

func (c *Client) post(ctx context.Context, path string, in, out any) error {
	return c.request(ctx, http.MethodPost, path, in, out)
}

func (c *Client) request(ctx context.Context, method, path string, in, out any) error {
	raw, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("pdp: encode request: %w", err)
	}
	return c.send(ctx, method, path, raw, decodeJSON(out))
}

// postDecide posts a decide-shaped request through the wire codec: the
// request is encoded by hand, and a 2xx reply is read into a pooled buffer
// and decoded by fast, or by encoding/json into out when fast declines.
// A correlation ID on ctx (see withCorrelation) rides along as the
// CorrelationHeader.
func (c *Client) postDecide(ctx context.Context, path string, in *DecideRequest, out any, fast func([]byte) bool) error {
	raw, err := appendDecideRequest(nil, in)
	if err != nil {
		return fmt.Errorf("pdp: encode request: %w", err)
	}
	return c.send(ctx, http.MethodPost, path, raw, func(body io.Reader) error {
		buf := getBuf()
		defer putBuf(buf)
		data, rerr := readAll(buf, body)
		if fast(data) {
			return nil
		}
		return decodeDeclined(data, rerr, out, false)
	})
}

// send posts raw as a JSON body, rebuilt per attempt so retries replay it.
func (c *Client) send(ctx context.Context, method, path string, raw []byte, decode func(io.Reader) error) error {
	return c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("pdp: build request: %w", err)
		}
		req.Header.Set("Content-Type", "application/json")
		if id, _ := ctx.Value(correlationKey{}).(string); id != "" {
			req.Header.Set(CorrelationHeader, id)
		}
		return req, nil
	}, decode)
}

// correlationKey carries a correlation ID on a context; see withCorrelation.
type correlationKey struct{}

// withCorrelation makes requests sent under ctx carry id as their
// CorrelationHeader: how the router forwards its caller's ID to a shard.
func withCorrelation(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, correlationKey{}, id)
}

// decodeJSON decodes a reply body into out with encoding/json; a nil out
// discards the body.
func decodeJSON(out any) func(io.Reader) error {
	if out == nil {
		return nil
	}
	return func(body io.Reader) error { return json.NewDecoder(body).Decode(out) }
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.do(ctx, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
		if err != nil {
			return nil, fmt.Errorf("pdp: build request: %w", err)
		}
		return req, nil
	}, decodeJSON(out))
}

// maxRetryDelay caps the retry loop's exponential doubling.
const maxRetryDelay = 30 * time.Second

// do runs one request, retrying transient failures when the client was
// built WithRetry. The request is rebuilt per attempt so bodies replay.
func (c *Client) do(ctx context.Context, build func() (*http.Request, error), decode func(io.Reader) error) error {
	// The shared policy: exponential doubling from retryBase, capped at
	// maxRetryDelay (unbounded growth would overflow time.Duration and
	// produce pointlessly huge sleeps long before that), with full jitter
	// decorrelating a fleet of retrying clients.
	bo := retry.New(c.retryBase, maxRetryDelay, 100*time.Millisecond)
	for attempt := 1; ; attempt++ {
		req, err := build()
		if err != nil {
			return err
		}
		err = c.doOnce(req, decode)
		if err == nil || attempt >= c.attempts || !transient(err) || ctx.Err() != nil {
			return err
		}
		// A server Retry-After hint puts a floor under the sleep — the
		// server knows its own recovery better than we do (but the hint
		// was already clamped at MaxRetryAfter on parse).
		sleep := bo.Delay()
		if ra := retryAfterOf(err); ra > sleep {
			sleep = ra
		}
		t := time.NewTimer(sleep)
		select {
		case <-ctx.Done():
			t.Stop()
			return err
		case <-t.C:
		}
	}
}

// retryAfterOf extracts the server's Retry-After hint from an error, if
// the error carries one.
func retryAfterOf(err error) time.Duration {
	var re *RemoteError
	if errors.As(err, &re) {
		return re.RetryAfter
	}
	return 0
}

// transient reports whether a failure is worth retrying: transport
// errors (the server may be back next attempt), 5xx replies, and 429
// sheds (the server explicitly asked for a later retry). Context
// cancellation and deadline expiry are the caller giving up, never
// retried; other 4xx replies and decode errors are permanent.
func transient(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Status >= 500 || re.Status == http.StatusTooManyRequests
	}
	return errors.Is(err, ErrTransport)
}

// doOnce sends one attempt; decode reads a 2xx reply body (nil discards it).
func (c *Client) doOnce(req *http.Request, decode func(io.Reader) error) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrTransport, err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		ra, clamped := parseRetryAfter(resp.Header.Get("Retry-After"))
		remote := &RemoteError{
			Status:            resp.StatusCode,
			RetryAfter:        ra,
			RetryAfterClamped: clamped,
		}
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err == nil {
			remote.Message = e.Error
			remote.Moved = e.Moved
		}
		return remote
	}
	if decode == nil {
		return nil
	}
	if err := decode(resp.Body); err != nil {
		return fmt.Errorf("pdp: decode response: %w", err)
	}
	return nil
}

// parseRetryAfter reads an RFC 9110 Retry-After value: delay seconds or an
// HTTP date. Unparseable or past values yield zero (no hint). Values past
// MaxRetryAfter — a delay-seconds overflow attempt or an HTTP date years
// out — are clamped to it, with clamped reporting that it happened.
func parseRetryAfter(raw string) (d time.Duration, clamped bool) {
	if raw == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(raw); err == nil {
		if secs < 0 {
			return 0, false
		}
		// Bound before multiplying: a huge seconds count would overflow
		// the Duration arithmetic itself.
		if time.Duration(secs) > MaxRetryAfter/time.Second {
			return MaxRetryAfter, true
		}
		return time.Duration(secs) * time.Second, false
	}
	if at, err := http.ParseTime(raw); err == nil {
		if d := time.Until(at); d > 0 {
			if d > MaxRetryAfter {
				return MaxRetryAfter, true
			}
			return d, false
		}
	}
	return 0, false
}
