package xtrace

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIDs(t *testing.T) {
	tid := NewTraceID()
	sid := NewSpanID()
	if tid.IsZero() || sid.IsZero() {
		t.Fatalf("fresh IDs must be non-zero: %v %v", tid, sid)
	}
	if len(tid.String()) != 32 || len(sid.String()) != 16 {
		t.Fatalf("hex lengths: %q %q", tid, sid)
	}
	if NewTraceID() == tid {
		t.Fatal("two trace IDs collided")
	}
	if (SpanContext{TraceID: tid, SpanID: sid}).Valid() == false {
		t.Fatal("context with both IDs should be valid")
	}
	if (SpanContext{TraceID: tid}).Valid() {
		t.Fatal("context without span ID should be invalid")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	h := Traceparent(sc)
	if !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") || len(h) != 55 {
		t.Fatalf("traceparent shape: %q", h)
	}
	got, err := ParseTraceparent(h)
	if err != nil {
		t.Fatalf("parse back: %v", err)
	}
	if got != sc {
		t.Fatalf("round trip: got %+v want %+v", got, sc)
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	valid := Traceparent(SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()})
	bad := []string{
		"",
		"garbage",
		valid[:54],                          // truncated
		strings.Replace(valid, "-", "_", 1), // wrong separator
		"ff" + valid[2:],                    // reserved version
		"zz" + valid[2:],                    // non-hex version
		"00-" + strings.Repeat("0", 32) + valid[35:],      // zero trace ID
		valid[:36] + strings.Repeat("0", 16) + valid[52:], // zero span ID
		valid[:3] + "zz" + valid[5:],                      // non-hex trace ID
		valid[:36] + "zz" + valid[38:],                    // non-hex span ID
		valid[:53] + "zz",                                 // non-hex flags
		valid + "x",                                       // version 00 with trailing junk
	}
	for _, h := range bad {
		if _, err := ParseTraceparent(h); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted a malformed header", h)
		}
	}
	// A future version with extra fields after the flags is accepted.
	future := "01" + valid[2:] + "-extrastate"
	if _, err := ParseTraceparent(future); err != nil {
		t.Errorf("ParseTraceparent(%q) rejected a forward-compatible header: %v", future, err)
	}
}

func TestSpanLifecycle(t *testing.T) {
	tr := NewTracer(Options{})
	root := tr.StartSpan(SpanContext{}, "root", nil)
	if root == nil || !root.Context().Valid() {
		t.Fatal("root span must carry a fresh valid context")
	}
	child := tr.StartSpan(root.Context(), "child", nil)
	if child.Context().TraceID != root.Context().TraceID {
		t.Fatal("child must share the root's trace ID")
	}
	child.SetAttr("k", "v")
	child.SetAttr("k", "v2")
	child.End()
	child.End() // idempotent
	child.SetAttr("late", "dropped")
	root.End()

	dump := tr.Trace(root.TraceID())
	if dump == nil {
		t.Fatal("trace not retained")
	}
	if len(dump.Spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(dump.Spans))
	}
	c, r := dump.Spans[0], dump.Spans[1]
	if c.Name != "child" || r.Name != "root" {
		t.Fatalf("span order/names: %q %q", c.Name, r.Name)
	}
	if c.ParentID != root.SpanID() {
		t.Fatalf("child parent = %q, want %q", c.ParentID, root.SpanID())
	}
	if r.ParentID != "" {
		t.Fatalf("root must have no parent, got %q", r.ParentID)
	}
	if c.Attrs["k"] != "v2" || c.Attrs["late"] != "" {
		t.Fatalf("attrs: %v", c.Attrs)
	}
	if c.End.Before(c.Start) {
		t.Fatal("end before start")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if sp := tr.StartSpan(SpanContext{}, "x", nil); sp != nil {
		t.Fatal("nil tracer without recorder must return a nil span")
	}
	var sp *Span
	sp.SetAttr("a", "b")
	sp.End()
	if sp.TraceID() != "" || sp.SpanID() != "" || sp.Context().Valid() {
		t.Fatal("nil span accessors must return zero values")
	}
	if tr.Recent(5) != nil || tr.Slow() != nil || tr.Trace("x") != nil {
		t.Fatal("nil tracer reads must return nil")
	}
	tr.record(SpanRecord{})
}

type captureRecorder struct {
	mu   sync.Mutex
	recs []SpanRecord
}

func (c *captureRecorder) RecordSpan(r SpanRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, r)
}

func TestRecorderDelivery(t *testing.T) {
	rec := &captureRecorder{}
	// Recorder works even with no tracer at all.
	var tr *Tracer
	sp := tr.StartSpan(SpanContext{}, "only-recorded", rec)
	if sp == nil {
		t.Fatal("recorder-only span must be live")
	}
	sp.End()
	if len(rec.recs) != 1 || rec.recs[0].Name != "only-recorded" {
		t.Fatalf("recorder got %+v", rec.recs)
	}
}

func TestContextPlumbing(t *testing.T) {
	tr := NewTracer(Options{})
	rec := &captureRecorder{}
	ctx := context.Background()

	// Bare context: no tracer, no recorder -> nil span, same ctx.
	ctx2, sp := StartSpan(ctx, "noop")
	if sp != nil || ctx2 != ctx {
		t.Fatal("StartSpan on a bare context must no-op")
	}

	ctx = ContextWithTracer(ctx, tr)
	if TracerFrom(ctx) != tr {
		t.Fatal("TracerFrom lost the tracer")
	}
	ctx = ContextWithRecorder(ctx, rec)
	if RecorderFrom(ctx) != rec {
		t.Fatal("RecorderFrom lost the recorder")
	}
	parent := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	ctx = ContextWithSpanContext(ctx, parent)
	if SpanContextFrom(ctx) != parent {
		t.Fatal("SpanContextFrom lost the context")
	}

	cctx, sp := StartSpan(ctx, "child")
	if sp.Context().TraceID != parent.TraceID {
		t.Fatal("span must adopt the parent trace")
	}
	if SpanContextFrom(cctx) != sp.Context() {
		t.Fatal("returned ctx must carry the new span as parent")
	}
	sp.End()
	if len(rec.recs) != 1 || rec.recs[0].ParentID != parent.SpanID.String() {
		t.Fatalf("recorded span: %+v", rec.recs)
	}
}

func TestRetentionBounds(t *testing.T) {
	tr := NewTracer(Options{MaxTraces: 4, MaxSpansPerTrace: 2, MaxSlow: 2, SlowThreshold: time.Millisecond})
	// One trace with too many spans.
	fat := NewTraceID()
	for i := 0; i < 5; i++ {
		tr.record(SpanRecord{TraceID: fat.String(), SpanID: NewSpanID().String(), Name: "s"})
	}
	d := tr.Trace(fat.String())
	if len(d.Spans) != 2 || d.DroppedSpans != 3 {
		t.Fatalf("per-trace cap: %d spans, %d dropped", len(d.Spans), d.DroppedSpans)
	}
	// Enough traces to evict the fat one; it is fast, so not pinned.
	for i := 0; i < 6; i++ {
		tr.record(SpanRecord{TraceID: NewTraceID().String(), SpanID: NewSpanID().String()})
	}
	if got := len(tr.Recent(0)); got != 4 {
		t.Fatalf("retained %d traces, want 4", got)
	}
	if tr.Trace(fat.String()) != nil {
		t.Fatal("fat trace should have been evicted without pinning")
	}
	if n := len(tr.Recent(3)); n != 3 {
		t.Fatalf("Recent(3) returned %d", n)
	}
}

func TestSlowPinning(t *testing.T) {
	tr := NewTracer(Options{MaxTraces: 2, MaxSlow: 2, SlowThreshold: 100 * time.Millisecond})
	slowIDs := make([]string, 3)
	for i := range slowIDs {
		id := NewTraceID().String()
		slowIDs[i] = id
		tr.record(SpanRecord{TraceID: id, SpanID: NewSpanID().String(),
			Name: "slow", DurationMS: float64(200 + 100*i)})
	}
	// Push fast traces through to evict every slow one.
	for i := 0; i < 4; i++ {
		tr.record(SpanRecord{TraceID: NewTraceID().String(), SpanID: NewSpanID().String(), DurationMS: 1})
	}
	slow := tr.Slow()
	if len(slow) != 2 {
		t.Fatalf("pinned %d slow traces, want 2", len(slow))
	}
	// Slowest first, and the slowest two of the three survive.
	if slow[0].MaxDurationMS != 400 || slow[1].MaxDurationMS != 300 {
		t.Fatalf("slow ordering: %v %v", slow[0].MaxDurationMS, slow[1].MaxDurationMS)
	}
	// Pinned traces stay reachable by ID.
	if tr.Trace(slowIDs[2]) == nil {
		t.Fatal("pinned slow trace must stay reachable by ID")
	}
}

func TestMakeRecord(t *testing.T) {
	tid := NewTraceID()
	pid := NewSpanID()
	start := time.Now().Add(-50 * time.Millisecond)
	end := time.Now()
	rec := MakeRecord(tid, pid, "sse", start, end, map[string]string{"events": "7"})
	if rec.TraceID != tid.String() || rec.ParentID != pid.String() || rec.Name != "sse" {
		t.Fatalf("record fields: %+v", rec)
	}
	if rec.DurationMS < 40 || rec.DurationMS > 5000 {
		t.Fatalf("duration: %v", rec.DurationMS)
	}
	orphan := MakeRecord(tid, SpanID{}, "x", start, end, nil)
	if orphan.ParentID != "" {
		t.Fatal("zero parent must stay empty")
	}
}

func TestHandler(t *testing.T) {
	tr := NewTracer(Options{})
	sp := tr.StartSpan(SpanContext{}, "req", nil)
	sp.End()

	rr := httptest.NewRecorder()
	Handler(tr).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	var body debugTraces
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(body.Recent) != 1 || body.Recent[0].TraceID != sp.TraceID() {
		t.Fatalf("recent: %+v", body.Recent)
	}

	rr = httptest.NewRecorder()
	Handler(tr).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces?trace_id="+sp.TraceID(), nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), sp.SpanID()) {
		t.Fatalf("by-id lookup: %d %s", rr.Code, rr.Body.String())
	}

	rr = httptest.NewRecorder()
	Handler(tr).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces?trace_id=deadbeef", nil))
	if rr.Code != 404 {
		t.Fatalf("unknown trace: status %d", rr.Code)
	}

	rr = httptest.NewRecorder()
	Handler(tr).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces?n=1", nil))
	if rr.Code != 200 {
		t.Fatalf("n=1: status %d", rr.Code)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer(Options{MaxTraces: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				root := tr.StartSpan(SpanContext{}, "root", nil)
				child := tr.StartSpan(root.Context(), "child", nil)
				child.SetAttr("i", "x")
				child.End()
				root.End()
				tr.Recent(4)
				tr.Slow()
			}
		}()
	}
	wg.Wait()
}
