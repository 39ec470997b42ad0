package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"alchemist/internal/api"
	"alchemist/internal/xtrace"
)

// reqInfo is the per-request correlation state shared between the
// middleware and handlers: the middleware fills the trace identity, the
// authn step fills the client name, and the access log reads both.
type reqInfo struct {
	traceID string
	spanID  string
	client  string
}

type reqInfoKey struct{}

// requestInfo returns the request's correlation state (nil outside the
// instrument middleware).
func requestInfo(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// statusWriter records the response status and size for the access log
// and error counters, and forwards Flush so SSE streaming works through
// the middleware.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.code = http.StatusOK
		w.wrote = true
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// instrument wraps one route handler with the server middleware stack:
// trace-context extraction (W3C traceparent; malformed headers start a
// new root), a per-request root span, request counters (plain and
// labeled), per-route latency with trace-ID exemplars, body-size
// limiting, panic isolation, and structured access logging with
// trace_id/span_id/client correlation fields. A panicking handler is
// reported as 500 without taking down the server or its sibling
// requests.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.sm.latency[route]
	return func(w http.ResponseWriter, r *http.Request) {
		s.sm.requests.Inc()
		s.sm.inflight.Add(1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}

		// Adopt the caller's trace when the header parses; any parse
		// failure silently starts a new root, per the W3C spec.
		ctx := xtrace.ContextWithTracer(r.Context(), s.tracer)
		if sc, err := xtrace.ParseTraceparent(r.Header.Get(xtrace.TraceparentHeader)); err == nil {
			ctx = xtrace.ContextWithSpanContext(ctx, sc)
		}
		ctx, sp := xtrace.StartSpan(ctx, "http."+route)
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		ri := &reqInfo{traceID: sp.TraceID(), spanID: sp.SpanID()}
		ctx = context.WithValue(ctx, reqInfoKey{}, ri)
		r = r.WithContext(ctx)
		// Echo the (possibly new) trace identity so callers that did not
		// send a traceparent can still correlate logs and /debug/traces.
		if tid := sp.TraceID(); tid != "" {
			w.Header().Set(xtrace.TraceparentHeader, xtrace.Traceparent(sp.Context()))
		}

		finish := func(code int, panicked bool) {
			d := time.Since(start)
			sp.SetAttr("status", fmt.Sprint(code))
			sp.SetAttr("client", ri.client)
			sp.End()
			s.logAccess(r, ri, code, sw.bytes, d, panicked)
			s.sm.requestsByRoute.With(route, fmt.Sprint(code), clientLabel(ri.client)).Inc()
			s.sm.inflight.Add(-1)
			hist.ObserveExemplar(d.Seconds(), ri.traceID)
		}

		defer func() {
			if v := recover(); v != nil {
				s.sm.panics.Inc()
				if !sw.wrote {
					httpError(sw, http.StatusInternalServerError,
						CodeInternal, "internal error: %v", v)
				}
				// The stack goes to the structured log; the request
				// itself only sees the opaque 500.
				if s.logger != nil {
					s.logger.Error("handler panic",
						"method", r.Method, "path", r.URL.Path,
						"trace_id", ri.traceID, "span_id", ri.spanID,
						"panic", fmt.Sprint(v), "stack", string(debug.Stack()))
				}
				finish(statusOf(sw), true)
				return
			}
			if sw.code >= 400 {
				s.sm.errors.Inc()
			}
			finish(statusOf(sw), false)
		}()
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
		}
		h(sw, r)
	}
}

// statusOf returns the response status, defaulting to 200 for handlers
// that never called WriteHeader explicitly.
func statusOf(sw *statusWriter) int {
	if !sw.wrote {
		return http.StatusOK
	}
	return sw.code
}

// clientLabel keeps the client dimension of labeled metrics closed over
// configured names: requests that never passed authn count as "none".
func clientLabel(client string) string {
	if client == "" {
		return "none"
	}
	return client
}

// logAccess emits one structured access-log record with correlation
// fields.
func (s *Server) logAccess(r *http.Request, ri *reqInfo, code int, bytes int64, d time.Duration, panicked bool) {
	if s.logger == nil {
		return
	}
	attrs := []slog.Attr{
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", code),
		slog.Int64("bytes", bytes),
		slog.Duration("dur", d),
		slog.String("trace_id", ri.traceID),
		slog.String("span_id", ri.spanID),
		slog.String("client", ri.client),
	}
	if panicked {
		attrs = append(attrs, slog.Bool("panicked", true))
	}
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
}

// Error codes form the machine-readable half of the error envelope:
// a closed enum clients can switch on without parsing messages. The
// human-readable message may change between releases; the code set only
// grows.
const (
	// CodeBadRequest: the request body or query is malformed or fails
	// validation (400).
	CodeBadRequest = "bad_request"
	// CodeBodyTooLarge: the request body exceeds MaxBodyBytes (413).
	CodeBodyTooLarge = "body_too_large"
	// CodeJobNotFound: the job id does not exist (404) — it may have
	// been retired by TTL or capacity.
	CodeJobNotFound = "job_not_found"
	// CodeQueueSaturated: the admission queue is full (or the estimated
	// queue wait makes the request's deadline infeasible, under load
	// shedding); retry after retry_after_ms (429).
	CodeQueueSaturated = "queue_saturated"
	// CodeRateLimited: the client exceeded its per-client request rate;
	// retry after retry_after_ms (429).
	CodeRateLimited = "rate_limited"
	// CodeQuotaExceeded: the client already has its quota of concurrent
	// work admitted; retry after retry_after_ms (429).
	CodeQuotaExceeded = "quota_exceeded"
	// CodeUnauthorized: the X-Api-Key header names no known client
	// (401).
	CodeUnauthorized = "unauthorized"
	// CodeDraining: the server is shutting down and refuses new work
	// (503).
	CodeDraining = "draining"
	// CodeDeadlineExceeded: the work hit its deadline (504).
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeCanceled: the work was cancelled before completing (503).
	CodeCanceled = "canceled"
	// CodeInternal: an unexpected server-side failure (500).
	CodeInternal = "internal"
)

// jsonPool hands out encoders of one indentation, each with the buffer
// it writes into. A pooled buffer keeps its capacity and its encoder
// the indent scratch, so a warm encoding allocates neither.
type jsonPool struct{ sync.Pool }

type jsonBuffer struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// maxPooledJSON is the largest buffer that goes back to a pool; one
// that grew past it for a rare large body is left to the collector.
const maxPooledJSON = 1 << 20

var (
	indentedJSON = newJSONPool("  ") // response bodies
	compactJSON  = newJSONPool("")   // journal records
)

func newJSONPool(indent string) *jsonPool {
	p := new(jsonPool)
	p.New = func() any {
		b := new(jsonBuffer)
		b.enc = json.NewEncoder(&b.buf)
		b.enc.SetIndent("", indent)
		return b
	}
	return p
}

// encode encodes v into a pooled buffer, newline-terminated as
// Encoder.Encode writes it. The bytes stay valid until put returns the
// buffer.
func (p *jsonPool) encode(v any) (*jsonBuffer, error) {
	b := p.Get().(*jsonBuffer)
	b.buf.Reset()
	if err := b.enc.Encode(v); err != nil {
		p.put(b)
		return nil, err
	}
	return b, nil
}

func (p *jsonPool) put(b *jsonBuffer) {
	if b.buf.Cap() <= maxPooledJSON {
		p.Put(b)
	}
}

// writeJSON writes v as indented JSON with the given status, in one
// write that its Content-Length announces. A value that does not encode
// gets the status and an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	b, err := indentedJSON.encode(v)
	if err != nil {
		w.WriteHeader(status)
		return
	}
	defer indentedJSON.put(b)
	w.Header().Set("Content-Length", strconv.Itoa(b.buf.Len()))
	w.WriteHeader(status)
	w.Write(b.buf.Bytes())
}

// httpError writes the uniform error envelope.
func httpError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, api.ErrorEnvelope{Error: api.ErrorBody{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// decodeJSON parses the request body into v, rejecting unknown fields
// so typos fail loudly instead of profiling the wrong thing.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	return nil
}

// userError marks failures caused by the request itself (unresolvable
// source, compile errors), mapped to 400 rather than 500.
type userError struct{ err error }

func (e *userError) Error() string { return e.err.Error() }
func (e *userError) Unwrap() error { return e.err }

func userErr(err error) error {
	if err == nil {
		return nil
	}
	return &userError{err: err}
}

// isMaxBytes reports whether err came from the request-size limiter.
func isMaxBytes(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}
