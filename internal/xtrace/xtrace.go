// Package xtrace is the dependency-free span-tracing subsystem behind
// the service's end-to-end request/job timelines. (The name avoids
// colliding with internal/trace, the VM event-trace baseline.)
//
// A Tracer hands out Spans: named intervals with monotonic timestamps
// (time.Now's monotonic reading orders spans within a process even
// across wall-clock adjustments), string attributes, and a parent link.
// Ended spans are folded into a bounded in-memory retention of recent
// traces, with slow traces pinned separately, for the /debug/traces
// endpoint. Callers that need a span delivered somewhere durable (the
// job store journals its jobs' timelines) attach a Recorder to the
// context; every span started under that context reports its record
// there too.
//
// Trace identity crosses process boundaries as a W3C traceparent header
// (https://www.w3.org/TR/trace-context/): ParseTraceparent accepts
// inbound headers (malformed ones are ignored — the request becomes a
// new root) and Traceparent formats outbound ones, which is how the
// client SDK keeps one trace ID across submit retries.
//
// Everything is nil-safe in the obs tradition: a nil *Tracer or nil
// *Span turns every method into a no-op, so instrumented code never
// branches on whether tracing is wired.
package xtrace

import (
	"container/list"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// TraceID is the 16-byte W3C trace identifier shared by every span of
// one logical operation.
type TraceID [16]byte

// SpanID is the 8-byte identifier of one span.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as lowercase hex (the traceparent encoding).
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as lowercase hex (the traceparent encoding).
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// NewTraceID mints a random trace ID.
func NewTraceID() TraceID {
	var t TraceID
	fillRandom(t[:])
	return t
}

// NewSpanID mints a random span ID.
func NewSpanID() SpanID {
	var s SpanID
	fillRandom(s[:])
	return s
}

// fillRandom fills b with crypto/rand bytes, falling back to a
// time-derived pattern if the system source fails (it does not on
// supported platforms); an all-zero ID must never escape because the
// W3C grammar reserves it as invalid.
func fillRandom(b []byte) {
	if _, err := rand.Read(b); err == nil {
		for _, c := range b {
			if c != 0 {
				return
			}
		}
	}
	now := time.Now().UnixNano()
	for i := range b {
		b[i] = byte(now >> (8 * (i % 8)))
		if b[i] == 0 {
			b[i] = 0xa5
		}
	}
}

// SpanContext is the propagated half of a span: enough to parent a
// child or format a traceparent, without the timing and attributes.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether both IDs are non-zero.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// SpanRecord is the exported (JSON / journal) form of one ended span.
type SpanRecord struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_span_id,omitempty"`
	Name     string `json:"name"`
	// Start and End are wall-clock bounds; their difference was measured
	// on the monotonic clock, so DurationMS is exact even across clock
	// steps.
	Start      time.Time         `json:"start"`
	End        time.Time         `json:"end"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// Recorder receives ended spans for durable keeping (the job store
// implements it to journal per-job timelines). Implementations must be
// safe for concurrent use.
type Recorder interface {
	RecordSpan(SpanRecord)
}

// Span is one in-flight named interval. Create spans with
// Tracer.StartSpan (usually via the package-level StartSpan, which
// finds the tracer on the context); a nil *Span no-ops every method.
type Span struct {
	tracer   *Tracer
	recorder Recorder
	sc       SpanContext
	parent   SpanID

	mu    sync.Mutex
	name  string
	start time.Time
	attrs map[string]string
	ended bool
}

// Context returns the span's propagation context (zero for nil spans).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceID returns the span's trace ID as hex ("" for nil spans).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.sc.TraceID.String()
}

// SpanID returns the span's own ID as hex ("" for nil spans).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.sc.SpanID.String()
}

// SetAttr attaches one string attribute, overwriting a previous value
// under the same key. Calls after End are dropped.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = value
}

// End closes the span, delivering its record to the tracer's retention
// and to the attached Recorder, if any. End is idempotent; only the
// first call records.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := SpanRecord{
		TraceID:    s.sc.TraceID.String(),
		SpanID:     s.sc.SpanID.String(),
		Name:       s.name,
		Start:      s.start,
		End:        now,
		DurationMS: float64(now.Sub(s.start)) / float64(time.Millisecond),
	}
	if !s.parent.IsZero() {
		rec.ParentID = s.parent.String()
	}
	if len(s.attrs) > 0 {
		rec.Attrs = s.attrs
		s.attrs = nil
	}
	s.mu.Unlock()
	s.tracer.record(rec)
	if s.recorder != nil {
		s.recorder.RecordSpan(rec)
	}
}

// Options bounds a Tracer's in-memory retention. The zero value of
// every field selects the default.
type Options struct {
	// MaxTraces caps the number of traces retained (least recently
	// updated evicted first). Default 128.
	MaxTraces int
	// MaxSpansPerTrace caps one trace's retained spans; further spans
	// are counted but dropped. Default 256.
	MaxSpansPerTrace int
	// MaxSlow caps the separately pinned slow-trace list. Default 32.
	MaxSlow int
	// SlowThreshold is the span duration at or above which a trace
	// counts as slow. Default 1s.
	SlowThreshold time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxTraces <= 0 {
		o.MaxTraces = 128
	}
	if o.MaxSpansPerTrace <= 0 {
		o.MaxSpansPerTrace = 256
	}
	if o.MaxSlow <= 0 {
		o.MaxSlow = 32
	}
	if o.SlowThreshold <= 0 {
		o.SlowThreshold = time.Second
	}
	return o
}

// traceBuf is one retained trace: its spans in end order plus the
// bookkeeping that decides recency and slowness.
type traceBuf struct {
	id      string
	el      *list.Element
	spans   []SpanRecord
	dropped int
	updated time.Time
	maxDur  float64 // milliseconds
}

// Tracer mints spans and retains a bounded window of recent traces. A
// nil *Tracer is valid and discards everything. Tracers are safe for
// concurrent use.
type Tracer struct {
	opts Options

	mu     sync.Mutex
	traces map[string]*traceBuf
	order  *list.List // front = most recently updated
	slow   []*TraceDump
}

// NewTracer builds a Tracer with the given retention bounds.
func NewTracer(opts Options) *Tracer {
	return &Tracer{
		opts:   opts.withDefaults(),
		traces: make(map[string]*traceBuf),
		order:  list.New(),
	}
}

// StartSpan opens a child span of parent (or a new root when parent is
// invalid) and returns it with its propagation context applied.
// recorder may be nil. A nil Tracer still returns a usable Span when a
// recorder is attached — the record goes to the recorder only — and nil
// when there is nowhere to deliver it.
func (t *Tracer) StartSpan(parent SpanContext, name string, recorder Recorder) *Span {
	if t == nil && recorder == nil {
		return nil
	}
	sc := SpanContext{SpanID: NewSpanID()}
	var parentID SpanID
	if parent.Valid() {
		sc.TraceID = parent.TraceID
		parentID = parent.SpanID
	} else {
		sc.TraceID = NewTraceID()
	}
	return &Span{
		tracer:   t,
		recorder: recorder,
		sc:       sc,
		parent:   parentID,
		name:     name,
		start:    time.Now(),
	}
}

// record folds one ended span into the retention window.
func (t *Tracer) record(rec SpanRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tb := t.traces[rec.TraceID]
	if tb == nil {
		tb = &traceBuf{id: rec.TraceID}
		tb.el = t.order.PushFront(tb)
		t.traces[rec.TraceID] = tb
		for len(t.traces) > t.opts.MaxTraces {
			oldest := t.order.Back()
			ev := oldest.Value.(*traceBuf)
			t.order.Remove(oldest)
			delete(t.traces, ev.id)
			t.pinSlowLocked(ev)
		}
	} else {
		t.order.MoveToFront(tb.el)
	}
	tb.updated = time.Now()
	if rec.DurationMS > tb.maxDur {
		tb.maxDur = rec.DurationMS
	}
	if len(tb.spans) >= t.opts.MaxSpansPerTrace {
		tb.dropped++
		return
	}
	tb.spans = append(tb.spans, rec)
}

// pinSlowLocked moves an evicted trace into the slow list when it
// qualifies, displacing the fastest pinned trace if the list is full.
func (t *Tracer) pinSlowLocked(tb *traceBuf) {
	if time.Duration(tb.maxDur*float64(time.Millisecond)) < t.opts.SlowThreshold {
		return
	}
	dump := tb.dump()
	if len(t.slow) < t.opts.MaxSlow {
		t.slow = append(t.slow, dump)
		return
	}
	minIdx := 0
	for i, d := range t.slow {
		if d.MaxDurationMS < t.slow[minIdx].MaxDurationMS {
			minIdx = i
		}
	}
	if t.slow[minIdx].MaxDurationMS < dump.MaxDurationMS {
		t.slow[minIdx] = dump
	}
}

// TraceDump is the exported form of one retained trace.
type TraceDump struct {
	TraceID string `json:"trace_id"`
	// Spans are in end order (the order the tracer observed them).
	Spans []SpanRecord `json:"spans"`
	// DroppedSpans counts spans beyond the per-trace retention cap.
	DroppedSpans int `json:"dropped_spans,omitempty"`
	// MaxDurationMS is the longest single span in the trace.
	MaxDurationMS float64   `json:"max_duration_ms"`
	Updated       time.Time `json:"updated"`
}

func (tb *traceBuf) dump() *TraceDump {
	return &TraceDump{
		TraceID:       tb.id,
		Spans:         append([]SpanRecord(nil), tb.spans...),
		DroppedSpans:  tb.dropped,
		MaxDurationMS: tb.maxDur,
		Updated:       tb.updated,
	}
}

// Recent returns up to n retained traces, most recently updated first
// (n <= 0 returns all retained).
func (t *Tracer) Recent(n int) []*TraceDump {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > t.order.Len() {
		n = t.order.Len()
	}
	out := make([]*TraceDump, 0, n)
	for el := t.order.Front(); el != nil && len(out) < n; el = el.Next() {
		out = append(out, el.Value.(*traceBuf).dump())
	}
	return out
}

// Slow returns the pinned slow traces, slowest first.
func (t *Tracer) Slow() []*TraceDump {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]*TraceDump(nil), t.slow...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].MaxDurationMS > out[j-1].MaxDurationMS; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Trace returns one retained trace by hex ID, or nil.
func (t *Tracer) Trace(id string) *TraceDump {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if tb := t.traces[id]; tb != nil {
		return tb.dump()
	}
	for _, d := range t.slow {
		if d.TraceID == id {
			return d
		}
	}
	return nil
}
