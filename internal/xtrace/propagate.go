package xtrace

import (
	"context"
	"encoding/hex"
	"fmt"
	"time"
)

// TraceparentHeader is the W3C trace-context header name (HTTP headers
// are case-insensitive; the spec spells it lowercase).
const TraceparentHeader = "traceparent"

// Traceparent formats a propagation header for sc:
// version 00, sampled flag set.
func Traceparent(sc SpanContext) string {
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header. Unknown versions
// with the version-00 shape are accepted (per spec, forward
// compatibility); malformed values, version "ff", and all-zero IDs are
// errors — callers treat any error as "start a new root".
func ParseTraceparent(h string) (SpanContext, error) {
	var sc SpanContext
	// version(2) - trace-id(32) - parent-id(16) - flags(2)
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return sc, fmt.Errorf("xtrace: malformed traceparent %q", h)
	}
	ver, err := hex.DecodeString(h[0:2])
	if err != nil || ver[0] == 0xff {
		return sc, fmt.Errorf("xtrace: bad traceparent version in %q", h)
	}
	if ver[0] == 0 && len(h) != 55 {
		return sc, fmt.Errorf("xtrace: malformed version-00 traceparent %q", h)
	}
	if len(h) > 55 && h[55] != '-' {
		return sc, fmt.Errorf("xtrace: malformed traceparent %q", h)
	}
	if _, err := hex.Decode(sc.TraceID[:], []byte(h[3:35])); err != nil {
		return sc, fmt.Errorf("xtrace: bad trace-id in %q", h)
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(h[36:52])); err != nil {
		return sc, fmt.Errorf("xtrace: bad parent-id in %q", h)
	}
	if _, err := hex.DecodeString(h[53:55]); err != nil {
		return sc, fmt.Errorf("xtrace: bad flags in %q", h)
	}
	if !sc.Valid() {
		return SpanContext{}, fmt.Errorf("xtrace: all-zero ids in %q", h)
	}
	return sc, nil
}

// ParseTraceID parses a 32-hex-digit trace ID (the String form).
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 32 {
		return t, fmt.Errorf("xtrace: bad trace id %q", s)
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return t, fmt.Errorf("xtrace: bad trace id %q", s)
	}
	if t.IsZero() {
		return t, fmt.Errorf("xtrace: zero trace id")
	}
	return t, nil
}

// Context keys. Distinct types keep the three carried values (tracer,
// span context, recorder) from colliding with anything else.
type tracerKey struct{}
type spanCtxKey struct{}
type recorderKey struct{}

// ContextWithTracer returns ctx carrying t; spans started under the
// returned context report into t's retention.
func ContextWithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the tracer carried by ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// ContextWithSpanContext returns ctx carrying sc as the parent for
// spans started under it (used to adopt an inbound traceparent).
func ContextWithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanContextFrom returns the propagation context carried by ctx (the
// zero value when none is).
func SpanContextFrom(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc
}

// ContextWithRecorder returns ctx carrying rec; every span started
// under the returned context delivers its record to rec on End.
func ContextWithRecorder(ctx context.Context, rec Recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, rec)
}

// RecorderFrom returns the recorder carried by ctx, or nil.
func RecorderFrom(ctx context.Context) Recorder {
	rec, _ := ctx.Value(recorderKey{}).(Recorder)
	return rec
}

// StartSpan opens a span under whatever tracing ctx carries: the
// tracer's retention, the current span context as parent, and the
// recorder, if attached. The returned context carries the new span as
// parent for its children. With neither a tracer nor a recorder on ctx
// the span is nil (all methods no-op) and ctx returns unchanged.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TracerFrom(ctx)
	rec := RecorderFrom(ctx)
	if t == nil && rec == nil {
		return ctx, nil
	}
	sp := t.StartSpan(SpanContextFrom(ctx), name, rec)
	return ContextWithSpanContext(ctx, sp.Context()), sp
}

// MakeRecord assembles a SpanRecord directly, for intervals measured
// outside a live Span (backfilled timeline entries like per-stream SSE
// spans). The span ID is minted fresh; parent may be zero.
func MakeRecord(trace TraceID, parent SpanID, name string, start, end time.Time, attrs map[string]string) SpanRecord {
	rec := SpanRecord{
		TraceID:    trace.String(),
		SpanID:     NewSpanID().String(),
		Name:       name,
		Start:      start,
		End:        end,
		DurationMS: float64(end.Sub(start)) / float64(time.Millisecond),
		Attrs:      attrs,
	}
	if !parent.IsZero() {
		rec.ParentID = parent.String()
	}
	return rec
}
