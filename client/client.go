// Package client is the Go SDK for the alchemist profiling service
// (internal/server, CLI `alchemist serve`). It wraps the v1 JSON API
// with the retry discipline a flaky network demands:
//
//   - capped exponential backoff with full jitter on 429, 503, other
//     5xx, and connection errors, honoring the server's Retry-After /
//     retry_after_ms hints;
//   - an auto-generated Idempotency-Key on every job submission, so a
//     retried submit never double-enqueues work;
//   - an SSE event stream that reconnects with Last-Event-ID and
//     deduplicates, delivering each job's event log exactly once and in
//     order across connection cuts and server restarts.
//
// The zero-config path:
//
//	c := client.New("http://127.0.0.1:8080")
//	st, err := c.SubmitAndWait(ctx, client.JobRequest{
//		Kind: "profile", SourceSpec: client.SourceSpec{Workload: "gzip"},
//	})
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"alchemist/internal/api"
	"alchemist/internal/xtrace"
)

// Client is a connection to one alchemist server. It is safe for
// concurrent use.
type Client struct {
	base   string
	hc     *http.Client
	apiKey string

	maxAttempts int
	baseDelay   time.Duration
	maxDelay    time.Duration

	rngMu sync.Mutex
	rng   *mrand.Rand

	// sleep is swappable for tests.
	sleep func(context.Context, time.Duration) error
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (custom
// transports, fault injection, timeouts).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithAPIKey attaches an X-Api-Key header to every request.
func WithAPIKey(key string) Option {
	return func(c *Client) { c.apiKey = key }
}

// WithRetry tunes the retry policy: at most maxAttempts tries per
// request (minimum 1), exponential backoff starting at base and capped
// at maxDelay, with full jitter.
func WithRetry(maxAttempts int, base, maxDelay time.Duration) Option {
	return func(c *Client) {
		c.maxAttempts = max(1, maxAttempts)
		if base > 0 {
			c.baseDelay = base
		}
		if maxDelay > 0 {
			c.maxDelay = maxDelay
		}
	}
}

// WithRandSeed seeds the jitter source for reproducible backoff
// schedules in tests.
func WithRandSeed(seed int64) Option {
	return func(c *Client) { c.rng = mrand.New(mrand.NewSource(seed)) }
}

// New builds a Client for the server at base (e.g.
// "http://127.0.0.1:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:        strings.TrimRight(base, "/"),
		hc:          &http.Client{},
		maxAttempts: 8,
		baseDelay:   100 * time.Millisecond,
		maxDelay:    5 * time.Second,
		rng:         mrand.New(mrand.NewSource(time.Now().UnixNano())),
		sleep: func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// BaseURL returns the server base URL the client talks to.
func (c *Client) BaseURL() string { return c.base }

// backoff computes the sleep before retry attempt `attempt` (0-based):
// full jitter over an exponentially growing cap, except that a server
// hint (Retry-After) is taken as the floor — the server knows its queue
// better than our schedule does.
func (c *Client) backoff(attempt int, hint time.Duration) time.Duration {
	d := c.baseDelay << attempt
	if d > c.maxDelay || d <= 0 {
		d = c.maxDelay
	}
	c.rngMu.Lock()
	jittered := time.Duration(c.rng.Float64() * float64(d))
	c.rngMu.Unlock()
	if hint > 0 && jittered < hint {
		return hint
	}
	return jittered
}

// decodeError turns a non-2xx response into an *APIError, folding in
// the Retry-After header and envelope hint.
func decodeError(resp *http.Response, body []byte) *APIError {
	ae := &APIError{Status: resp.StatusCode, Code: "internal", Message: strings.TrimSpace(string(body))}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		ae.Code = env.Error.Code
		ae.Message = env.Error.Message
		ae.RetryAfter = time.Duration(env.Error.RetryAfterMS) * time.Millisecond
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" && ae.RetryAfter == 0 {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// retryableStatus reports whether a status is worth retrying: 429 and
// every 5xx (the server marks its transient failures — drain, abort,
// saturation — with Retry-After hints on these).
func retryableStatus(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// do issues method path with the JSON body and decodes a 2xx response
// into out (unless out is nil), retrying transient failures. extraHdr
// is reattached on every attempt, which is what keeps a retried job
// submission on its original Idempotency-Key. One W3C trace ID is
// minted per call and shared by every attempt (each attempt gets a
// fresh parent span ID), so however many retries a request takes, the
// server sees — and its access log and job timeline record — a single
// trace.
func (c *Client) do(ctx context.Context, method, path string, body []byte, extraHdr map[string]string, out any) error {
	traceID := xtrace.NewTraceID()
	var lastErr error
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		if attempt > 0 {
			var hint time.Duration
			var ae *APIError
			if errors.As(lastErr, &ae) {
				hint = ae.RetryAfter
			}
			if err := c.sleep(ctx, c.backoff(attempt-1, hint)); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if c.apiKey != "" {
			req.Header.Set("X-Api-Key", c.apiKey)
		}
		req.Header.Set(xtrace.TraceparentHeader, traceparent(traceID))
		for k, v := range extraHdr {
			req.Header.Set(k, v)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Connection-level failure: the server may never have seen
			// the request, or may have processed it and lost the
			// response. Both are safe to retry here — submissions carry
			// idempotency keys.
			lastErr = fmt.Errorf("alchemist api: %s %s: %w", method, path, err)
			continue
		}
		respBody, readErr := readBody(resp)
		resp.Body.Close()
		if readErr != nil {
			lastErr = fmt.Errorf("alchemist api: reading %s %s response: %w", method, path, readErr)
			continue
		}
		if resp.StatusCode >= 400 {
			ae := decodeError(resp, respBody)
			if retryableStatus(resp.StatusCode) {
				lastErr = ae
				continue
			}
			return ae
		}
		if out != nil {
			if err := json.Unmarshal(respBody, out); err != nil {
				return fmt.Errorf("alchemist api: decoding %s %s response: %w", method, path, err)
			}
		}
		return nil
	}
	return fmt.Errorf("alchemist api: giving up after %d attempts: %w", c.maxAttempts, lastErr)
}

// maxSizedBody caps the Content-Length that readBody allocates up
// front; a larger or undeclared body is read as it arrives.
const maxSizedBody = 16 << 20

// readBody reads a response body in one allocation when the server
// declared its length, and with io.ReadAll otherwise. A body cut short
// of its declared length is a read error.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxSizedBody {
		b := make([]byte, n)
		_, err := io.ReadFull(resp.Body, b)
		return b, err
	}
	return io.ReadAll(resp.Body)
}

// doJSON marshals in (unless nil) and issues the request through the
// retry loop.
func (c *Client) doJSON(ctx context.Context, method, path string, in any, extraHdr map[string]string, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	return c.do(ctx, method, path, body, extraHdr, out)
}

// Compile compiles a program on the server, warming its program cache.
func (c *Client) Compile(ctx context.Context, req CompileRequest) (*CompileResponse, error) {
	var out CompileResponse
	if err := c.doJSON(ctx, http.MethodPost, "/v1/compile", req, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Profile profiles an input suite synchronously and returns the merged
// profile.
func (c *Client) Profile(ctx context.Context, req ProfileRequest) (*ProfileResponse, error) {
	var out ProfileResponse
	if err := c.doJSON(ctx, http.MethodPost, "/v1/profile", req, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Advise profiles an input suite and returns ranked transformation
// guidance.
func (c *Client) Advise(ctx context.Context, req ProfileRequest) (*AdviseResponse, error) {
	var out AdviseResponse
	if err := c.doJSON(ctx, http.MethodPost, "/v1/advise", req, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Run executes an input suite synchronously.
func (c *Client) Run(ctx context.Context, req RunRequest) (*RunResponse, error) {
	var out RunResponse
	if err := c.doJSON(ctx, http.MethodPost, "/v1/run", req, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (map[string]any, error) {
	var out map[string]any
	if err := c.doJSON(ctx, http.MethodGet, "/healthz", nil, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// newIdemKey mints a fresh idempotency key: 16 random bytes, drawn
// the way a trace ID is.
func newIdemKey() string { return "idem-" + xtrace.NewTraceID().String() }

// traceparent formats a W3C traceparent header carrying traceID, with a
// fresh parent span ID — call it once per attempt.
func traceparent(traceID xtrace.TraceID) string {
	return xtrace.Traceparent(xtrace.SpanContext{TraceID: traceID, SpanID: xtrace.NewSpanID()})
}
