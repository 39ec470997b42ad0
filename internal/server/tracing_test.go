package server

// The tracing suite proves the end-to-end observability claim: one W3C
// trace follows a request from the SDK through admission, queue wait,
// compilation, profiling, and SSE delivery — across client retries and
// a server crash — and the structured access log carries the same
// trace_id on every attempt.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alchemist/client"
	"alchemist/internal/api"
	"alchemist/internal/faultinject"
	"alchemist/internal/xtrace"
)

// syncBuf is a goroutine-safe log sink for the structured logger.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuf) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuf) lines() []string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	s := strings.TrimSpace(sb.b.String())
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

func TestTraceparentAdoptedAndEchoed(t *testing.T) {
	_, ts := newTestServer(t, nil)

	const traceID = "0123456789abcdef0123456789abcdef"
	const parentID = "00f067aa0ba902b7"
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+traceID+"-"+parentID+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	sc, err := xtrace.ParseTraceparent(resp.Header.Get("traceparent"))
	if err != nil {
		t.Fatalf("response traceparent %q does not parse: %v", resp.Header.Get("traceparent"), err)
	}
	if sc.TraceID.String() != traceID {
		t.Fatalf("response trace id %s, want the inbound %s adopted", sc.TraceID, traceID)
	}
	if sc.SpanID.String() == parentID {
		t.Fatal("response span id repeats the inbound parent; want the server's own span")
	}
}

func TestMalformedTraceparentStartsNewRoot(t *testing.T) {
	_, ts := newTestServer(t, nil)

	embedded := "11111111111111111111111111111111"
	seen := map[string]bool{}
	for _, bad := range []string{
		"",
		"not-a-traceparent",
		"ff-" + embedded + "-00f067aa0ba902b7-01",                 // forbidden version
		"00-" + embedded + "-00f067aa0ba902b7",                    // truncated
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-" + embedded + "-00f067aa0ba902b7-01-junk",            // trailing junk on v00
	} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if bad != "" {
			req.Header.Set("traceparent", bad)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()

		sc, err := xtrace.ParseTraceparent(resp.Header.Get("traceparent"))
		if err != nil {
			t.Fatalf("header %q: response traceparent %q does not parse: %v",
				bad, resp.Header.Get("traceparent"), err)
		}
		got := sc.TraceID.String()
		if got == embedded {
			t.Fatalf("header %q was adopted; want a new root", bad)
		}
		if seen[got] {
			t.Fatalf("trace id %s repeated across requests; roots are not fresh", got)
		}
		seen[got] = true
	}
}

// TestSDKRetryOneTraceEndToEnd is the acceptance path: a submission
// whose first response is lost in flight is retried by the SDK over the
// same Idempotency-Key and the same trace. The resulting job's
// persisted timeline holds admit, queue, compile, profile, and sse
// spans with non-overlapping monotonic bounds, all under the one trace
// id that every access-log attempt line also carries.
func TestSDKRetryOneTraceEndToEnd(t *testing.T) {
	logBuf := &syncBuf{}
	s, ts := newTestServer(t, func(o *Options) {
		o.Logger = slog.New(slog.NewJSONHandler(logBuf, nil))
	})

	// Drop exactly the first submission's response after the server has
	// fully handled it — the nastiest retry case: work done, answer lost.
	in := faultinject.Chain(ts.Client().Transport)
	var dropped atomic.Bool
	in.Use(func(req *http.Request, next http.RoundTripper) (*http.Response, error) {
		if req.Method == http.MethodPost && req.URL.Path == "/v1/jobs" && dropped.CompareAndSwap(false, true) {
			resp, err := next.RoundTrip(req)
			if err == nil {
				io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
				resp.Body.Close()
			}
			in.Injected.Add(1)
			return nil, faultinject.ErrDropped
		}
		return next.RoundTrip(req)
	})
	c := client.New(ts.URL,
		client.WithHTTPClient(&http.Client{Transport: in}),
		client.WithRandSeed(7),
		client.WithRetry(8, time.Millisecond, 20*time.Millisecond))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.SubmitJob(ctx, client.JobRequest{
		Kind:       "profile",
		SourceSpec: client.SourceSpec{Name: "traced", Source: loopSrc, Inputs: [][]int64{{500}}},
		TimeoutMS:  60_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dropped.Load() {
		t.Fatal("the drop fault never fired; retry was not exercised")
	}
	if !st.IdempotentReplay {
		t.Fatal("retried submission did not replay the original job")
	}
	if st.TraceID == "" {
		t.Fatal("submission status carries no trace_id")
	}

	// Wait by polling plain status so the event stream below replays a
	// finished log — that keeps the sse span after the profile span.
	var fin *client.JobStatus
	for deadline := time.Now().Add(30 * time.Second); ; {
		if fin, err = c.Job(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		if fin.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if fin.State != client.JobSucceeded {
		t.Fatalf("job state %s (err %q), want succeeded", fin.State, fin.Error)
	}
	if fin.TraceID != st.TraceID {
		t.Fatalf("status trace id changed: %s then %s", st.TraceID, fin.TraceID)
	}

	// Replay the whole event stream; its delivery becomes the sse span.
	es := c.StreamEvents(st.ID, 0)
	for {
		if _, err := es.Next(ctx); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	es.Close()

	// The sse span lands as the server's stream handler unwinds, which
	// races the client seeing EOF; poll briefly.
	var tr *client.JobTrace
	for i := 0; i < 400; i++ {
		if tr, err = c.JobTrace(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		if findSpan(tr, "sse") != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if tr.TraceID != st.TraceID {
		t.Fatalf("timeline trace id %s, want %s", tr.TraceID, st.TraceID)
	}
	for _, sp := range tr.Spans {
		if sp.TraceID != st.TraceID {
			t.Fatalf("span %q carries trace %s, want %s", sp.Name, sp.TraceID, st.TraceID)
		}
	}

	// The lifecycle spans appear in order, each within monotonic bounds
	// and none overlapping its predecessor.
	var prev *client.SpanRecord
	for _, name := range []string{"admit", "queue", "compile", "profile", "sse"} {
		sp := findSpan(tr, name)
		if sp == nil {
			t.Fatalf("timeline has no %q span; got %v", name, spanNames(tr))
		}
		if sp.End.Before(sp.Start) {
			t.Fatalf("span %q ends before it starts: %v .. %v", name, sp.Start, sp.End)
		}
		if prev != nil && sp.Start.Before(prev.End) {
			t.Fatalf("span %q (start %v) overlaps %q (end %v)", sp.Name, sp.Start, prev.Name, prev.End)
		}
		prev = sp
	}

	// Both submission attempts hit the access log under the one trace.
	attempts := 0
	for _, ln := range logBuf.lines() {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("unparsable log line %q: %v", ln, err)
		}
		if rec["msg"] != "request" || rec["method"] != http.MethodPost || rec["path"] != "/v1/jobs" {
			continue
		}
		attempts++
		if rec["trace_id"] != st.TraceID {
			t.Fatalf("submission log line carries trace %v, want %s", rec["trace_id"], st.TraceID)
		}
		if rec["client"] != AnonymousClient {
			t.Fatalf("submission log line carries client %v, want %s", rec["client"], AnonymousClient)
		}
	}
	if attempts < 2 {
		t.Fatalf("access log shows %d submission attempts, want both", attempts)
	}

	// Exactly once, as ever: one job despite the retried submit.
	if got := s.jobCount(); got != 1 {
		t.Fatalf("store holds %d jobs, want 1", got)
	}
}

func findSpan(tr *client.JobTrace, name string) *client.SpanRecord {
	for i := range tr.Spans {
		if tr.Spans[i].Name == name {
			return &tr.Spans[i]
		}
	}
	return nil
}

func spanNames(tr *client.JobTrace) []string {
	names := make([]string, len(tr.Spans))
	for i, sp := range tr.Spans {
		names[i] = sp.Name
	}
	return names
}

func TestVersionAndDebugTraces(t *testing.T) {
	_, ts := newTestServer(t, nil)

	resp, body := doJSON(t, http.MethodGet, ts.URL+"/v1/version", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("version = %d: %s", resp.StatusCode, body)
	}
	var ver VersionResponse
	if err := json.Unmarshal([]byte(body), &ver); err != nil {
		t.Fatal(err)
	}
	if ver.Service != "alchemist" || ver.GoVersion == "" {
		t.Fatalf("version response %+v, want service alchemist and a go version", ver)
	}

	// The version request itself produced a trace the debug endpoint can
	// show.
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/debug/traces", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug traces = %d: %s", resp.StatusCode, body)
	}
	var dump struct {
		Recent []json.RawMessage `json:"recent"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Recent) == 0 {
		t.Fatal("debug traces shows no recent traces after a request")
	}
}

// TestTraceTimelineSurvivesCrashRecovery proves span persistence: the
// timeline a job accumulated before a hard kill replays byte-for-byte
// from the journal, under the original trace id.
func TestTraceTimelineSurvivesCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurableServer(t, dir, nil)

	resp, body := post(t, ts1.URL+"/v1/jobs",
		fmt.Sprintf(`{"kind":"run","source":%q}`, tinySrc))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job create = %d: %s", resp.StatusCode, body)
	}
	var st api.JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	// No traceparent was sent: the job records under the server-minted
	// root trace.
	if st.TraceID == "" {
		t.Fatal("job status carries no trace_id")
	}
	if done := waitState(t, ts1.URL, st.ID); done.State != api.JobSucceeded {
		t.Fatalf("job state = %s, want succeeded (%s)", done.State, done.Error)
	}

	fetchTrace := func(base string) api.JobTrace {
		t.Helper()
		resp, body := doJSON(t, http.MethodGet, base+"/v1/jobs/"+st.ID+"/trace", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job trace = %d: %s", resp.StatusCode, body)
		}
		var tr api.JobTrace
		if err := json.Unmarshal([]byte(body), &tr); err != nil {
			t.Fatal(err)
		}
		return tr
	}

	before := fetchTrace(ts1.URL)
	for _, name := range []string{"admit", "queue", "compile", "run", "journal.append"} {
		found := false
		for _, sp := range before.Spans {
			if sp.Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("pre-crash timeline has no %q span", name)
		}
	}
	crash(t, s1, ts1)

	s2, ts2 := newDurableServer(t, dir, nil)
	defer func() { ts2.Close(); s2.Close() }()

	after := fetchTrace(ts2.URL)
	if after.TraceID != before.TraceID {
		t.Fatalf("recovered trace id %s, want %s", after.TraceID, before.TraceID)
	}
	if !reflect.DeepEqual(after.Spans, before.Spans) {
		t.Fatalf("recovered timeline diverged:\n before %+v\n after  %+v", before.Spans, after.Spans)
	}
}
