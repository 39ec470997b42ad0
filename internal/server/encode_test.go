package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"alchemist/internal/api"
	"alchemist/internal/xtrace"
)

// indentedReference is the reference response encoder: a fresh
// encoder with the two-space indent.
func indentedReference(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// bigResult is a profile-like job result of about n bytes, with
// characters the encoder escapes.
func bigResult(n int) json.RawMessage {
	var b strings.Builder
	b.WriteString(`{"runs":[`)
	for i := 0; b.Len() < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"job":%d,"steps":%d,"note":"<b> & </b>"}`, i, 1000*i)
	}
	b.WriteString(`]}`)
	return json.RawMessage(b.String())
}

func statusWithResult(result json.RawMessage) api.JobStatus {
	now := time.Date(2026, 10, 19, 7, 50, 12, 396804554, time.UTC)
	started, finished := now.Add(time.Millisecond), now.Add(2*time.Millisecond)
	return api.JobStatus{
		ID: "a2405f4bf74b2488", Kind: "profile", State: api.JobSucceeded,
		CreatedAt: now, StartedAt: &started, FinishedAt: &finished,
		Progress:   []api.JobProgress{{Job: 0, Steps: 12, Done: true}},
		TotalSteps: 12, Result: result, TraceID: "1053d9f935a0be2572fd4b95d830075a", Spans: 9,
	}
}

// TestPooledJSONMatchesEncoder: response bodies from the pooled
// indented encoders are the bytes of a fresh json.NewEncoder with the
// same indent, with a Content-Length that counts them, and journal
// records from the pooled compact encoders are json.Marshal's bytes.
// Each value goes through twice, the second time on a warm encoder.
func TestPooledJSONMatchesEncoder(t *testing.T) {
	bodies := []any{
		api.ErrorEnvelope{Error: api.ErrorBody{Code: CodeQueueSaturated, Message: "queue full <retry> & wait", RetryAfterMS: 1000}},
		statusWithResult(bigResult(20 << 10)),
		api.ErrorEnvelope{Error: api.ErrorBody{Code: CodeJobNotFound, Message: `no job "x"`}},
		statusWithResult(nil),
	}
	for pass := 0; pass < 2; pass++ {
		for i, v := range bodies {
			rr := httptest.NewRecorder()
			writeJSON(rr, http.StatusTeapot, v)
			want := indentedReference(t, v)
			if rr.Code != http.StatusTeapot || !bytes.Equal(rr.Body.Bytes(), want) {
				t.Fatalf("pass %d, body %d: status %d, body\n%s\nwant\n%s", pass, i, rr.Code, rr.Body.Bytes(), want)
			}
			if cl := rr.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
				t.Fatalf("pass %d, body %d: Content-Length %q for %d bytes", pass, i, cl, len(want))
			}
		}
	}

	at := time.Date(2026, 10, 19, 7, 50, 12, 402443927, time.UTC)
	span := xtrace.MakeRecord(xtrace.NewTraceID(), xtrace.NewSpanID(), "profile", at, at.Add(time.Millisecond),
		map[string]string{"scale": "256"})
	records := []walRecord{
		{Type: recEvent, ID: "5a4f1d8ec9ae03fb", At: at, Kind: "run",
			Request: json.RawMessage(`{"kind":"run","source":"int main() { return 7 < 8 && 1; }"}`),
			IdemKey: "idem-1", TraceID: "68bc467e7882664df2a16ad7ade52b84",
			Event: &api.Event{Seq: 0, Type: "state", State: api.JobQueued}},
		{Type: recSpan, ID: "5a4f1d8ec9ae03fb", Seq: 1, At: at, Span: &span},
		{Type: recEvent, ID: "5a4f1d8ec9ae03fb", Seq: 2, At: at, Event: &api.Event{Seq: 1, Type: "state", State: api.JobRunning}},
		{Type: recEvent, ID: "5a4f1d8ec9ae03fb", Seq: 3, At: at,
			Event: &api.Event{Seq: 2, Type: "progress", Job: 1, Steps: 40, TotalSteps: 90}},
		{Type: recEvent, ID: "5a4f1d8ec9ae03fb", Seq: 4, At: at, Event: &api.Event{Seq: 3, Type: "state", State: api.JobSucceeded},
			StartedAt: at.Add(-time.Second), FinishedAt: at, Result: bigResult(5 << 10)},
		{Type: recEvent, ID: "0a4743b527517461", Seq: 3, At: at,
			Event:     &api.Event{Seq: 3, Type: "state", State: api.JobFailed, Error: "vm: out of memory"},
			StartedAt: at.Add(-time.Second), FinishedAt: at},
		{Type: recRetired, ID: "5a4f1d8ec9ae03fb", At: at},
	}
	wal, _ := openWAL(t, t.TempDir())
	for pass := 0; pass < 2; pass++ {
		for _, r := range records {
			wal.append(r)
		}
	}
	if err := wal.close(); err != nil {
		t.Fatal(err)
	}
	got := readJournal(t, wal.jn.Dir())
	if len(got) != 2*len(records) {
		t.Fatalf("%d records journaled, want %d", len(got), 2*len(records))
	}
	for i, raw := range got {
		want, err := json.Marshal(records[i%len(records)])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("record %d:\n got %s\nwant %s", i, raw, want)
		}
	}
}

// discardWriter is a ResponseWriter that keeps its header map and drops
// the body, so writeJSON's own allocations are what a run measures.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header         { return w.h }
func (w discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w discardWriter) WriteHeader(int)             {}

// bytesPerRun is the mean heap bytes one call of f allocates.
func bytesPerRun(runs int, f func()) uint64 {
	f() // warm pools and caches
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestPooledJSONAllocates: a warm response of a job with a 20 KiB
// result, and a warm journal record of its terminal event with a 5 KiB
// one, allocate far less than the bytes they write. A fresh encoder per
// response re-grows its indent buffer past the body's size, and
// json.Marshal copies every record.
func TestPooledJSONAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	st := statusWithResult(bigResult(20 << 10))
	w := discardWriter{h: make(http.Header)}
	body := len(indentedReference(t, st))
	perResponse := bytesPerRun(200, func() { writeJSON(w, http.StatusOK, st) })
	t.Logf("a %d-byte response allocates %d bytes", body, perResponse)
	if perResponse > uint64(body)/8 {
		t.Errorf("a %d-byte response allocates %d bytes, want at most %d", body, perResponse, body/8)
	}

	wal, _ := openWAL(t, t.TempDir())
	defer wal.close()
	at := time.Now()
	rec := walRecord{Type: recEvent, ID: "5a4f1d8ec9ae03fb", Seq: 9, At: at,
		Event:     &api.Event{Seq: 5, Type: "state", State: api.JobSucceeded},
		StartedAt: at, FinishedAt: at, Result: bigResult(5 << 10)}
	enc, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	size := len(enc)
	perRecord := bytesPerRun(200, func() { wal.append(rec) })
	t.Logf("a %d-byte record allocates %d bytes", size, perRecord)
	if perRecord > uint64(size)/8 {
		t.Errorf("a %d-byte record allocates %d bytes, want at most %d", size, perRecord, size/8)
	}
}
