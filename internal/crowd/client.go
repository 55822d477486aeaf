package crowd

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	mathrand "math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"gptunecrowd/internal/historydb"
	"gptunecrowd/internal/obs"
)

// Client retry/timeout defaults (overridable per client).
const (
	DefaultClientTimeout = 30 * time.Second
	DefaultMaxRetries    = 3
	DefaultBackoffBase   = 100 * time.Millisecond
	DefaultBackoffMax    = 5 * time.Second
	// DefaultMaxRedirects bounds how many 307 shard redirects a single
	// logical request will chase before giving up with ErrWrongShard.
	DefaultMaxRedirects = 4
)

// ShardLeaderHeader carries the owning shard leader's base URL on a
// 307 response from a cluster follower (or a stale coordinator route).
// The client re-issues the identical request against that URL.
const ShardLeaderHeader = "X-Shard-Leader"

// shardRedirect is the internal signal attempt() returns for a 307 +
// ShardLeaderHeader response; post() follows it without consuming a
// retry.
type shardRedirect struct {
	target string
}

func (e *shardRedirect) Error() string {
	return fmt.Sprintf("crowd: redirected to shard leader %s", e.target)
}

// Client talks to a crowd server. The zero HTTP client uses
// http.DefaultClient. Failed requests are retried with exponential
// backoff and jitter when the failure is retryable: connection errors,
// per-attempt timeouts, HTTP 429 and 5xx. Uploads carry idempotency
// batch ids, so a retried upload is applied at most once server-side.
// Non-retryable failures surface as a typed *APIError.
type Client struct {
	BaseURL string
	APIKey  string
	HTTP    *http.Client

	// Timeout bounds each individual HTTP attempt (not the whole retry
	// loop); 0 means DefaultClientTimeout. Callers needing an overall
	// deadline pass a context to the *Context methods.
	Timeout time.Duration
	// MaxRetries is the number of additional attempts after the first
	// on retryable failures; 0 means DefaultMaxRetries, negative
	// disables retries.
	MaxRetries int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// attempts: attempt n sleeps ~BackoffBase·2ⁿ (equal jitter), capped
	// at BackoffMax. Zero values select the defaults.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// Logger receives one structured record per retried attempt and per
	// final failure, stamped with the context's trace ID. nil disables
	// client logging.
	Logger *slog.Logger

	// jitter returns a uniform value in [0, 1); tests may replace it
	// for determinism via setJitter.
	jitterMu sync.Mutex
	jitter   func() float64
}

// NewClient returns a client bound to the server URL and API key.
func NewClient(baseURL, apiKey string) *Client {
	return &Client{BaseURL: baseURL, APIKey: apiKey}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return DefaultClientTimeout
}

func (c *Client) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	if c.MaxRetries < 0 {
		return 0
	}
	return DefaultMaxRetries
}

func (c *Client) setJitter(f func() float64) {
	c.jitterMu.Lock()
	c.jitter = f
	c.jitterMu.Unlock()
}

func (c *Client) jitterValue() float64 {
	c.jitterMu.Lock()
	defer c.jitterMu.Unlock()
	if c.jitter == nil {
		c.jitter = mathrand.Float64
	}
	return c.jitter()
}

// backoff returns the sleep before retry number attempt+1: exponential
// growth with equal jitter (half deterministic, half random), capped.
func (c *Client) backoff(attempt int) time.Duration {
	base := c.BackoffBase
	if base <= 0 {
		base = DefaultBackoffBase
	}
	max := c.BackoffMax
	if max <= 0 {
		max = DefaultBackoffMax
	}
	d := time.Duration(float64(base) * math.Pow(2, float64(attempt)))
	if d > max || d <= 0 {
		d = max
	}
	half := d / 2
	return half + time.Duration(c.jitterValue()*float64(half))
}

// sleep waits for d or until ctx is done, whichever comes first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// newBatchID generates a 128-bit idempotency key for an upload batch.
func newBatchID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failure is unrecoverable
	}
	return hex.EncodeToString(b[:])
}

// post sends a JSON request, retrying retryable failures with backoff,
// and decodes the JSON response into out. The request body is marshaled
// once, so every attempt (including its batch id, if any) is identical.
// A 307 + X-Shard-Leader answer — a cluster follower bouncing a write
// to its leader — switches the base URL for the rest of the call and
// does not consume a retry; more than DefaultMaxRedirects hops yields
// ErrWrongShard (the topology is churning faster than we can chase it).
func (c *Client) post(ctx context.Context, path string, in, out interface{}) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("crowd: encode request: %w", err)
	}
	log := obs.Or(c.Logger)
	base := c.BaseURL
	redirects := 0
	for attempt := 0; ; attempt++ {
		err, retryable := c.attemptAt(ctx, base, path, body, out)
		if err == nil {
			return nil
		}
		var rd *shardRedirect
		if errors.As(err, &rd) {
			redirects++
			if rd.target == "" || redirects > DefaultMaxRedirects {
				return fmt.Errorf("crowd: request %s: %d shard redirects: %w", path, redirects, ErrWrongShard)
			}
			log.InfoContext(ctx, "following shard redirect", "path", path, "leader", rd.target)
			base = rd.target
			attempt-- // a redirect is progress, not a failure
			continue
		}
		if !retryable || attempt >= c.maxRetries() {
			log.ErrorContext(ctx, "request failed", "path", path, "attempt", attempt+1, "err", err)
			return err
		}
		if ctx.Err() != nil {
			return fmt.Errorf("crowd: request %s: %w", path, ctx.Err())
		}
		log.WarnContext(ctx, "retrying request", "path", path, "attempt", attempt+1, "err", err)
		if serr := sleep(ctx, c.backoff(attempt)); serr != nil {
			return fmt.Errorf("crowd: request %s: %w", path, serr)
		}
	}
}

// attemptAt performs one HTTP round trip against base under the
// per-attempt timeout and reports whether its failure is worth
// retrying. A 307 with a shard-leader header comes back as a
// *shardRedirect for post to follow.
func (c *Client) attemptAt(ctx context.Context, base, path string, body []byte, out interface{}) (error, bool) {
	actx, cancel := context.WithTimeout(ctx, c.timeout())
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return err, false
	}
	req.Header.Set("Content-Type", "application/json")
	if c.APIKey != "" {
		req.Header.Set("X-Api-Key", c.APIKey)
	}
	if id := obs.TraceID(ctx); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		// Connection errors and per-attempt timeouts are retryable;
		// the retry loop stops on its own when the parent ctx is done.
		return fmt.Errorf("crowd: request %s: %w", path, err), true
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTemporaryRedirect {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		target := resp.Header.Get(ShardLeaderHeader)
		if target == "" {
			// Location carries leader+path; keep only the origin, since
			// the retried attempt appends the path itself.
			if u, perr := url.Parse(resp.Header.Get("Location")); perr == nil && u.Scheme != "" && u.Host != "" {
				target = u.Scheme + "://" + u.Host
			}
		}
		return &shardRedirect{target: target}, false
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		apiErr := &APIError{StatusCode: resp.StatusCode, Path: path}
		var e errorResponse
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&e) == nil && e.Error != "" {
			apiErr.Message = e.Error
			apiErr.Code = e.Code
		}
		return apiErr, apiErr.Temporary()
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("crowd: decode %s response: %w", path, err), false
	}
	return nil, false
}

// Register creates a user account and returns its API key. The client's
// APIKey field is updated in place.
func (c *Client) Register(username, email string) (string, error) {
	return c.RegisterContext(context.Background(), username, email)
}

// RegisterContext is Register with request-scoped cancellation.
func (c *Client) RegisterContext(ctx context.Context, username, email string) (string, error) {
	var resp RegisterResponse
	if err := c.post(ctx, PathRegister, RegisterRequest{Username: username, Email: email}, &resp); err != nil {
		return "", err
	}
	c.APIKey = resp.APIKey
	return resp.APIKey, nil
}

// Upload stores function evaluations on the server.
func (c *Client) Upload(evals []FuncEval) ([]string, error) {
	return c.UploadContext(context.Background(), evals)
}

// UploadContext is Upload with request-scoped cancellation. The batch
// carries a fresh idempotency id reused across internal retries, so the
// server applies it exactly once even if a response is lost mid-flight.
// When the trust layer holds every sample, the returned error wraps
// ErrQuarantined (use UploadReportContext to see the per-sample
// reasons).
func (c *Client) UploadContext(ctx context.Context, evals []FuncEval) ([]string, error) {
	resp, err := c.UploadReportContext(ctx, evals)
	if err != nil {
		return nil, err
	}
	if len(resp.IDs) == 0 && len(resp.Quarantined) > 0 {
		return nil, fmt.Errorf("%w: all %d samples held (first: %s)",
			ErrQuarantined, len(resp.Quarantined), resp.Quarantined[0].Reason)
	}
	return resp.IDs, nil
}

// UploadReportContext is UploadContext returning the full server
// response, including which batch positions were quarantined and why.
func (c *Client) UploadReportContext(ctx context.Context, evals []FuncEval) (*UploadResponse, error) {
	var resp UploadResponse
	req := UploadRequest{FuncEvals: evals, BatchID: newBatchID()}
	if err := c.post(ctx, PathFuncEvalUpload, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// QuarantineList fetches quarantined samples (admin).
func (c *Client) QuarantineList(ctx context.Context, req QuarantineListRequest) ([]QuarantinedSample, error) {
	var resp QuarantineListResponse
	err := c.post(ctx, PathQuarantine, req, &resp)
	return resp.Items, err
}

// QuarantineRelease releases one quarantined sample into the main
// store (admin) and returns its new func_eval id.
func (c *Client) QuarantineRelease(ctx context.Context, id string) (string, error) {
	var resp QuarantineReleaseResponse
	err := c.post(ctx, PathQuarantineRelease, QuarantineReleaseRequest{ID: id}, &resp)
	return resp.FuncEvalID, err
}

// Query downloads the samples matching the request.
func (c *Client) Query(req QueryRequest) ([]FuncEval, error) {
	return c.QueryContext(context.Background(), req)
}

// QueryContext is Query with request-scoped cancellation.
func (c *Client) QueryContext(ctx context.Context, req QueryRequest) ([]FuncEval, error) {
	var resp QueryResponse
	err := c.post(ctx, PathFuncEvalQuery, req, &resp)
	return resp.FuncEvals, err
}

// QueryWithParamFilter is Query with a typed historydb parameter filter
// (field paths like "task_parameters.m").
func (c *Client) QueryWithParamFilter(problem string, cfg ConfigurationSpace, filter historydb.Query, limit int) ([]FuncEval, error) {
	var raw []byte
	if filter != nil {
		b, err := historydb.MarshalQuery(filter)
		if err != nil {
			return nil, err
		}
		raw = b
	}
	return c.Query(QueryRequest{
		TuningProblemName: problem,
		Configuration:     cfg,
		ParamQuery:        raw,
		Limit:             limit,
	})
}

// Problems lists tuning problems visible to the caller.
func (c *Client) Problems() ([]string, error) {
	return c.ProblemsContext(context.Background())
}

// ProblemsContext is Problems with request-scoped cancellation.
func (c *Client) ProblemsContext(ctx context.Context) ([]string, error) {
	var resp ProblemsResponse
	err := c.post(ctx, PathProblems, struct{}{}, &resp)
	return resp.Problems, err
}

// Stats fetches the server's request-counter snapshot.
func (c *Client) Stats(ctx context.Context) (MetricsSnapshot, error) {
	var resp MetricsSnapshot
	err := c.post(ctx, PathStats, struct{}{}, &resp)
	return resp, err
}
