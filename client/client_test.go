package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"alchemist"
	"alchemist/internal/server"
)

const loopSrc = `
int main() {
	int n = in(0);
	int s = 0;
	for (int i = 0; i < n; i++) {
		s += i;
	}
	out(s);
	return 0;
}
`

// instantSleep makes the client's backoff schedule take zero wall time
// while still recording what it would have slept.
func instantSleep(c *Client, record *[]time.Duration) {
	var mu sync.Mutex
	c.sleep = func(ctx context.Context, d time.Duration) error {
		mu.Lock()
		*record = append(*record, d)
		mu.Unlock()
		return ctx.Err()
	}
}

func newRealServer(t *testing.T, mod func(*server.Options)) *httptest.Server {
	t.Helper()
	opts := server.Options{
		Engine:           alchemist.NewEngine(alchemist.WithWorkers(2)),
		ProgressInterval: -1,
	}
	if mod != nil {
		mod(&opts)
	}
	s, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

func TestRetriesTransientThenSucceeds(t *testing.T) {
	var calls int32
	var keys []string
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		n := calls
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		mu.Unlock()
		switch n {
		case 1:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":{"code":"draining","message":"draining","retry_after_ms":250}}`)
		case 2:
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"rate_limited","message":"slow down","retry_after_ms":100}}`)
		default:
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"job-1","kind":"run","state":"queued"}`)
		}
	}))
	defer ts.Close()

	c := New(ts.URL, WithRandSeed(1))
	var slept []time.Duration
	instantSleep(c, &slept)

	st, err := c.SubmitJob(context.Background(), JobRequest{Kind: "run"})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-1" {
		t.Fatalf("ID = %q, want job-1", st.ID)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	// Every retry must reuse the original idempotency key.
	if keys[0] == "" || keys[0] != keys[1] || keys[1] != keys[2] {
		t.Fatalf("idempotency keys not stable across retries: %q", keys)
	}
	// The server's hints are the backoff floor: 250ms then 100ms.
	if len(slept) != 2 || slept[0] < 250*time.Millisecond || slept[1] < 100*time.Millisecond {
		t.Fatalf("slept = %v, want floors [>=250ms >=100ms]", slept)
	}
}

func TestDoesNotRetryClientErrors(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":{"code":"bad_request","message":"no such workload"}}`)
	}))
	defer ts.Close()

	c := New(ts.URL)
	var slept []time.Duration
	instantSleep(c, &slept)

	_, err := c.SubmitJob(context.Background(), JobRequest{Kind: "run"})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Code != "bad_request" {
		t.Fatalf("err = %v, want 400 bad_request APIError", err)
	}
	if ae.Temporary() {
		t.Fatal("400 must not be Temporary")
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (4xx is not retryable)", calls)
	}
}

func TestGivesUpAfterMaxAttempts(t *testing.T) {
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, `{"error":{"code":"internal","message":"boom"}}`)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetry(3, time.Millisecond, time.Millisecond))
	var slept []time.Duration
	instantSleep(c, &slept)

	_, err := c.Health(context.Background())
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("err = %v, want giving-up error", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusInternalServerError {
		t.Fatalf("err = %v, want wrapped 500 APIError", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestRetriesConnectionErrors(t *testing.T) {
	// A server that is immediately closed: every dial is refused.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	ts.Close()

	c := New(ts.URL, WithRetry(2, time.Millisecond, time.Millisecond))
	var slept []time.Duration
	instantSleep(c, &slept)

	_, err := c.Health(context.Background())
	if err == nil || !strings.Contains(err.Error(), "giving up after 2 attempts") {
		t.Fatalf("err = %v, want giving-up error after connection failures", err)
	}
	if len(slept) != 1 {
		t.Fatalf("slept %d times, want 1", len(slept))
	}
}

func TestAPIKeyHeaderAttached(t *testing.T) {
	var got string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get("X-Api-Key")
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	defer ts.Close()

	c := New(ts.URL, WithAPIKey("sekrit"))
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got != "sekrit" {
		t.Fatalf("X-Api-Key = %q, want sekrit", got)
	}
}

func TestBackoffHonorsHintAsFloor(t *testing.T) {
	c := New("http://invalid", WithRandSeed(42), WithRetry(8, 10*time.Millisecond, 100*time.Millisecond))
	for attempt := 0; attempt < 8; attempt++ {
		if d := c.backoff(attempt, 777*time.Millisecond); d < 777*time.Millisecond {
			t.Fatalf("backoff(%d, 777ms) = %v, below the hint floor", attempt, d)
		}
		if d := c.backoff(attempt, 0); d > 100*time.Millisecond {
			t.Fatalf("backoff(%d, 0) = %v, above the cap", attempt, d)
		}
	}
}

func TestSubmitAndWaitAgainstRealServer(t *testing.T) {
	ts := newRealServer(t, nil)
	c := New(ts.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := c.SubmitAndWait(ctx, JobRequest{
		Kind:       "run",
		SourceSpec: SourceSpec{Name: "loop", Source: loopSrc, Inputs: [][]int64{{1000}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobSucceeded {
		t.Fatalf("state = %s (err %q), want succeeded", st.State, st.Error)
	}
	if len(st.Result) == 0 {
		t.Fatal("terminal status has no result payload")
	}
	var res RunResponse
	if err := json.Unmarshal(st.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 1 || len(res.Runs) != 1 || res.Runs[0].Output[0] != 499500 {
		t.Fatalf("result = %+v, want one run with output 499500", res)
	}
}

func TestStreamEventsOrderedAndTerminates(t *testing.T) {
	ts := newRealServer(t, nil)
	c := New(ts.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := c.SubmitJob(ctx, JobRequest{
		Kind:       "run",
		SourceSpec: SourceSpec{Name: "loop", Source: loopSrc, Inputs: [][]int64{{5000}}},
	})
	if err != nil {
		t.Fatal(err)
	}

	es := c.StreamEvents(st.ID, 0)
	defer es.Close()
	want := 0
	sawTerminal := false
	for {
		ev, err := es.Next(ctx)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Seq != want {
			t.Fatalf("event seq = %d, want %d (gap or duplicate)", ev.Seq, want)
		}
		want++
		if ev.Terminal() {
			sawTerminal = true
		}
	}
	if !sawTerminal {
		t.Fatal("stream ended without a terminal event")
	}
	if want == 0 {
		t.Fatal("stream delivered no events")
	}
	// After EOF the stream stays EOF.
	if _, err := es.Next(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("post-terminal Next = %v, want io.EOF", err)
	}
}

func TestStreamEventsResumeFromSeq(t *testing.T) {
	ts := newRealServer(t, nil)
	c := New(ts.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := c.SubmitAndWait(ctx, JobRequest{
		Kind:       "run",
		SourceSpec: SourceSpec{Name: "loop", Source: loopSrc, Inputs: [][]int64{{1000}}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Resume from seq 1: event 0 must not be replayed to us.
	es := c.StreamEvents(st.ID, 1)
	defer es.Close()
	first, err := es.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if first.Seq != 1 {
		t.Fatalf("resumed stream first seq = %d, want 1", first.Seq)
	}
}

func TestWaitJobPollFallback(t *testing.T) {
	// A server whose events endpoint always 404s (no SSE support), to
	// force WaitJob onto the polling path.
	var polls int32
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":{"code":"job_not_found","message":"nope"}}`)
			return
		}
		mu.Lock()
		polls++
		n := polls
		mu.Unlock()
		if n < 3 {
			fmt.Fprint(w, `{"id":"j1","state":"running"}`)
			return
		}
		fmt.Fprint(w, `{"id":"j1","state":"succeeded","result":{"ok":true}}`)
	}))
	defer ts.Close()

	c := New(ts.URL, WithRetry(2, time.Millisecond, time.Millisecond))
	var slept []time.Duration
	instantSleep(c, &slept)

	st, err := c.WaitJob(context.Background(), "j1")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobSucceeded {
		t.Fatalf("state = %s, want succeeded", st.State)
	}
	if polls < 3 {
		t.Fatalf("polls = %d, want >= 3", polls)
	}
}

// TestReadsBodiesOfEveryFraming: a body whose length the server
// declares, one it streams chunked, and one cut short of its declared
// length, which is a read error that the client retries.
func TestReadsBodiesOfEveryFraming(t *testing.T) {
	want := map[string]any{"status": "ok", "pad": strings.Repeat("x", 64<<10)}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	calls := make(map[string]int)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls[r.URL.Path]++
		n := calls[r.URL.Path]
		mu.Unlock()
		switch {
		case r.URL.Path == "/chunked":
			w.Write(body[:len(body)/2])
			w.(http.Flusher).Flush()
			w.Write(body[len(body)/2:])
		case r.URL.Path == "/truncated" && n == 1:
			conn, buf, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
			buf.Write(body[:len(body)/2])
			buf.Flush()
			conn.Close()
		default:
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
			w.Write(body)
		}
	}))
	defer ts.Close()

	for _, path := range []string{"/declared", "/chunked", "/truncated"} {
		c := New(ts.URL)
		var slept []time.Duration
		instantSleep(c, &slept)
		var got map[string]any
		if err := c.do(context.Background(), http.MethodGet, path, nil, nil, &got); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got["status"] != "ok" || got["pad"] != want["pad"] {
			t.Fatalf("%s: decoded a different body", path)
		}
	}
	mu.Lock()
	if calls["/declared"] != 1 || calls["/chunked"] != 1 || calls["/truncated"] != 2 {
		t.Errorf("calls = %v, want the truncated body retried once", calls)
	}
	// With no retry left, the truncation is the error.
	calls["/truncated"] = 0
	mu.Unlock()
	c := New(ts.URL, WithRetry(1, time.Millisecond, time.Millisecond))
	err = c.do(context.Background(), http.MethodGet, "/truncated", nil, nil, nil)
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "reading GET /truncated response") {
		t.Fatalf("err = %v, want a read error for the cut body", err)
	}
}

// TestReadBodyDeclaredInOneAllocation: a body of declared length is
// read into one exact-size slice; an undeclared one grows as it
// arrives.
func TestReadBodyDeclaredInOneAllocation(t *testing.T) {
	body := strings.Repeat("x", 100<<10)
	rd := strings.NewReader(body)
	resp := &http.Response{Body: io.NopCloser(rd)}
	read := func(length int64) float64 {
		resp.ContentLength = length
		return testing.AllocsPerRun(20, func() {
			rd.Reset(body)
			b, err := readBody(resp)
			if err != nil || string(b) != body {
				t.Fatalf("read %d bytes (%v), want the %d-byte body", len(b), err, len(body))
			}
		})
	}
	if declared := read(int64(len(body))); declared != 1 {
		t.Fatalf("a declared body takes %.0f allocations, want 1", declared)
	}
	if undeclared := read(-1); undeclared <= 1 {
		t.Fatalf("an undeclared body takes %.0f allocations; the declared-length test proves nothing", undeclared)
	}
}
