package replica

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

	"github.com/aware-home/grbac/internal/faults"
	"github.com/aware-home/grbac/internal/watch"
)

// ErrFeed reports a non-2xx reply from the primary's replication feed.
var ErrFeed = errors.New("replica: feed error")

// ErrDeltaUnavailable reports that the primary cannot serve a delta for
// the requested position — its journal tail is too short, the epoch
// changed, or it does not expose the delta endpoint at all. The follower
// falls back to a full snapshot.
var ErrDeltaUnavailable = errors.New("replica: delta unavailable")

// Client is the follower's transport to a primary's replication feed. It
// is deliberately single-shot — one request, one error — because the
// Puller's sync loop owns retry policy (backoff, jitter, staleness);
// layering retries here too would multiply delays.
type Client struct {
	base string
	http *http.Client

	// MaxWait, when positive, is sent with every Watch as the longest the
	// primary should hold the poll before answering "no change". The
	// primary uses the smaller of this and its own cap. Followers derive
	// it from their staleness bound (KeepaliveWait) so keepalives always
	// arrive inside it.
	MaxWait time.Duration
}

// KeepaliveWait is the MaxWait a feed client asks for under a staleness
// bound: a third of it, so a quiet primary's "no change" replies arrive
// well inside the bound, floored at 100ms so a tight bound does not turn
// the watch into a busy poll. A bound <= 0 (staleness off) returns 0,
// leaving the primary's cap in charge.
func KeepaliveWait(maxStaleness time.Duration) time.Duration {
	if maxStaleness <= 0 {
		return 0
	}
	return max(maxStaleness/3, 100*time.Millisecond)
}

// pooledFeedClient is the default transport for feed clients. The stock
// http.DefaultTransport keeps only 2 idle connections per host, so a
// process running several followers against one primary (shards syncing
// shared policy, tests, the smoke harness) would re-dial between polls;
// the widened pool keeps those connections alive. Mirrors the pdp
// client's pool (replica cannot import pdp — pdp imports replica).
var pooledFeedClient = func() *http.Client {
	tr, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		return &http.Client{}
	}
	t := tr.Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 64
	t.MaxConnsPerHost = 256
	t.IdleConnTimeout = 90 * time.Second
	return &http.Client{Transport: t}
}()

// NewClient builds a feed client for the primary at baseURL. A nil
// httpClient selects a shared pooled transport that keeps per-host
// connections alive across polls; whichever client is used must not
// have a Timeout shorter than the primary's long-poll cap, or every
// quiet watch will abort early. Per-call deadlines belong on the context.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = pooledFeedClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), http: httpClient}
}

// Snapshot fetches the primary's current policy export, decoded by the
// hand-written snapshot decoder (codec.go) or, where that declines, by
// encoding/json.
func (c *Client) Snapshot(ctx context.Context) (Snapshot, error) {
	// Injected errors model a dropped resync; the follower's sync loop
	// must absorb them with backoff.
	if err := faults.Inject(faults.ReplicaSnapshot); err != nil {
		return Snapshot{}, fmt.Errorf("replica: %w", err)
	}
	var snap Snapshot
	err := c.fetch(ctx, SnapshotPath, func(body io.Reader) error {
		// A Buffer doubles as it reads; io.ReadAll's quarter steps would
		// allocate a 180 KB body about five times over.
		var data bytes.Buffer
		_, readErr := data.ReadFrom(body)
		return decodeSnapshotBody(data.Bytes(), readErr, &snap)
	})
	return snap, err
}

// Watch long-polls the primary until its generation exceeds after (or its
// epoch differs from epoch, or the server's poll cap elapses) and returns
// the primary's position. An unchanged position is a normal return: it is
// the primary saying "still here, nothing new". The call's deadline is the
// poll the primary may hold, the smaller of MaxWait and watch.MaxWait,
// plus the 10s slack the primary adds to its reply's write deadline, so a
// quiet poll never reads as a failed primary.
func (c *Client) Watch(ctx context.Context, epoch string, after uint64) (WatchResponse, error) {
	// Injected errors model a dropped long-poll (partition, lost reply).
	if err := faults.Inject(faults.ReplicaWatch); err != nil {
		return WatchResponse{}, fmt.Errorf("replica: %w", err)
	}
	q := url.Values{}
	q.Set("epoch", epoch)
	q.Set("after", strconv.FormatUint(after, 10))
	wait := watch.MaxWait
	if c.MaxWait > 0 {
		q.Set("wait", c.MaxWait.String())
		wait = min(wait, c.MaxWait)
	}
	wctx, cancel := context.WithTimeout(ctx, wait+10*time.Second)
	defer cancel()
	var resp WatchResponse
	err := c.get(wctx, WatchPath+"?"+q.Encode(), &resp)
	return resp, err
}

// Delta fetches the mutations after the follower's position. A 404 (no
// delta endpoint: in-memory primary, or an older build) or 410 (journal
// tail too short, or epoch mismatch) comes back as ErrDeltaUnavailable.
func (c *Client) Delta(ctx context.Context, epoch string, after uint64) (Delta, error) {
	// Shares the snapshot fault point: an injected error models a dropped
	// catch-up exchange, whichever form it takes.
	if err := faults.Inject(faults.ReplicaSnapshot); err != nil {
		return Delta{}, fmt.Errorf("replica: %w", err)
	}
	q := url.Values{}
	q.Set("epoch", epoch)
	q.Set("after", strconv.FormatUint(after, 10))
	var d Delta
	err := c.get(ctx, DeltaPath+"?"+q.Encode(), &d)
	if err != nil {
		var fe *feedStatusError
		if errors.As(err, &fe) && (fe.status == http.StatusNotFound || fe.status == http.StatusGone) {
			return Delta{}, fmt.Errorf("%w: status %d", ErrDeltaUnavailable, fe.status)
		}
		return Delta{}, err
	}
	return d, nil
}

// feedStatusError carries the HTTP status behind an ErrFeed, so callers
// can distinguish "delta not served" from transport failures.
type feedStatusError struct {
	path   string
	status int
}

func (e *feedStatusError) Error() string {
	return fmt.Sprintf("%v: %s: status %d", ErrFeed, e.path, e.status)
}

func (e *feedStatusError) Unwrap() error { return ErrFeed }

// get fetches path and decodes the reply's body into out with
// encoding/json.
func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.fetch(ctx, path, func(body io.Reader) error { return json.NewDecoder(body).Decode(out) })
}

// fetch GETs path and hands a 2xx reply's body to decode.
func (c *Client) fetch(ctx context.Context, path string, decode func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return fmt.Errorf("replica: build request: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("replica: transport: %w", err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode/100 != 2 {
		return &feedStatusError{path: path, status: resp.StatusCode}
	}
	if err := decode(resp.Body); err != nil {
		return fmt.Errorf("replica: decode %s: %w", path, err)
	}
	return nil
}
