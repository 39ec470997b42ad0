package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"alchemist"
	"alchemist/internal/api"
	"alchemist/internal/journal"
)

// readJournal returns the records of the journal in dir, which must
// hold no snapshot.
func readJournal(t *testing.T, dir string) [][]byte {
	t.Helper()
	jn, rec, err := journal.Open(journal.Options{Dir: dir, Sync: journal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil {
		t.Fatal("the journal holds a snapshot")
	}
	return rec.Records
}

// submitJob posts a job and returns its ID.
func submitJob(t *testing.T, base, body string, header map[string]string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job create = %d (%v)", resp.StatusCode, err)
	}
	return st.ID
}

// TestJobJournalIsOneStream pins what a job journals: one record per
// event or span, with seq 0 to n−1 in order. The first record is the
// queued event and carries the job's creation; the terminal event
// carries its outcome; there is no record of any other kind. Replay of
// the records restores the job's durable state exactly.
func TestJobJournalIsOneStream(t *testing.T) {
	dir := t.TempDir()
	s, ts := newDurableServer(t, dir, func(o *Options) { o.SnapshotEvery = -1 })
	id := submitJob(t, ts.URL, `{"kind":"profile","workload":"aes","scales":[256,512]}`,
		map[string]string{"Idempotency-Key": "stream-key"})
	st := waitState(t, ts.URL, id)
	if st.State != api.JobSucceeded {
		t.Fatalf("job = %s (%s), want succeeded", st.State, st.Error)
	}
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	j := s.store.get(id)

	raws := readJournal(t, dir)
	var recs []walRecord
	for _, raw := range raws {
		var r walRecord
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		if r.Type != recEvent && r.Type != recSpan {
			t.Errorf("a %q record: %s", r.Type, raw)
		}
		recs = append(recs, r)
	}
	if n := len(j.events) + len(j.spans); len(recs) != n {
		t.Fatalf("%d records for %d events and spans", len(recs), n)
	}
	for i, r := range recs {
		if r.ID != id || r.Seq != i {
			t.Fatalf("record %d is job %s seq %d", i, r.ID, r.Seq)
		}
	}

	first := recs[0]
	if ev := first.Event; ev == nil || ev.State != api.JobQueued {
		t.Fatalf("the first record is not the queued event: %+v", first)
	}
	if first.Kind != "profile" || !bytes.Equal(first.Request, j.reqRaw) ||
		first.IdemKey != "stream-key" || first.TraceID == "" || first.TraceID != st.TraceID {
		t.Errorf("the first record does not create the job: %+v", first)
	}
	if !first.At.Equal(st.CreatedAt) {
		t.Errorf("the first record's at = %v, want created_at %v", first.At, st.CreatedAt)
	}

	terminal := -1
	for i, r := range recs {
		if r.Event != nil && r.Event.State.Terminal() {
			terminal = i
		}
	}
	if terminal < 0 {
		t.Fatal("no terminal event was journaled")
	}
	done := recs[terminal]
	if done.Event.State != api.JobSucceeded || !done.StartedAt.Equal(*st.StartedAt) ||
		!done.FinishedAt.Equal(*st.FinishedAt) || !bytes.Equal(done.Result, j.result) || len(done.Result) == 0 {
		t.Errorf("the terminal event does not carry the outcome: %+v", done)
	}
	for i, r := range recs {
		if i != terminal && (!r.StartedAt.IsZero() || !r.FinishedAt.IsZero() || r.Result != nil) {
			t.Errorf("record %d, not the terminal event, carries an outcome: %+v", i, r)
		}
		if i != 0 && (r.Kind != "" || r.Request != nil || r.IdemKey != "" || r.TraceID != "") {
			t.Errorf("record %d, not the first, carries the job's creation: %+v", i, r)
		}
	}

	jobs, err := replayState(&journal.Recovery{Records: raws})
	if err != nil || len(jobs) != 1 {
		t.Fatalf("replay = %d jobs (%v), want 1", len(jobs), err)
	}
	got, err := json.Marshal(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := j.snapshotEntry()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("replayed state differs from the job's\n got %s\nwant %s", got, want)
	}
}

// TestReplayFromEverySnapshotPoint: a snapshot can be encoded after any
// record, and the records kept beside it can start anywhere before that
// point. The journal holds a job that succeeds and is read over SSE, a
// job failed by its deadline, a capacity retirement, and a job running
// at a crash, which the next server marks interrupted. For every k and
// every j ≤ k, the state after the first k records, as a snapshot, plus
// records[j:] replays to the state of all the records.
func TestReplayFromEverySnapshotPoint(t *testing.T) {
	dir := t.TempDir()
	opts := func(o *Options) {
		o.SnapshotEvery = -1
		o.ProgressInterval = time.Hour
		o.MaxJobs = 2
	}
	s1, ts1 := newDurableServer(t, dir, opts)
	ok := submitJob(t, ts1.URL, `{"kind":"profile","workload":"aes","scales":[256,512]}`, nil)
	if st := waitState(t, ts1.URL, ok); st.State != api.JobSucceeded {
		t.Fatalf("profile job = %s (%s), want succeeded", st.State, st.Error)
	}
	if resp, body := doJSON(t, http.MethodGet, ts1.URL+"/v1/jobs/"+ok+"/events", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("events = %d: %s", resp.StatusCode, body)
	}
	failed := submitJob(t, ts1.URL, fmt.Sprintf(`{"kind":"run","source":%q,"timeout_ms":20}`, foreverSrc), nil)
	if st := waitState(t, ts1.URL, failed); st.State != api.JobFailed {
		t.Fatalf("run job = %s, want failed by its deadline", st.State)
	}
	running := submitJob(t, ts1.URL, fmt.Sprintf(`{"kind":"run","source":%q,"timeout_ms":60000}`, foreverSrc), nil)
	waitRunning(t, ts1.URL, running)
	crash(t, s1, ts1)
	s2, ts2 := newDurableServer(t, dir, opts)
	if rec := s2.Recovery(); rec.Jobs != 2 || rec.Interrupted != 1 {
		t.Fatalf("recovery = %+v, want the failed job and one interrupted", rec)
	}
	ts2.Close()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	records := readJournal(t, dir)
	replay := func(snap []byte, records [][]byte) []*jobSnapshot {
		t.Helper()
		jobs, err := replayState(&journal.Recovery{Snapshot: snap, Records: records})
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	want := replay(nil, records)
	if len(want) != 2 || want[0].ID != failed || want[0].State != api.JobFailed ||
		want[1].ID != running || want[1].State != api.JobInterrupted {
		t.Fatalf("replay of all %d records does not hold the failed and the interrupted job", len(records))
	}
	for k := 0; k <= len(records); k++ {
		var snap storeSnapshot
		for _, js := range replay(nil, records[:k]) {
			snap.Jobs = append(snap.Jobs, *js)
		}
		b, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= k; j++ {
			if got := replay(b, records[j:]); !reflect.DeepEqual(got, want) {
				t.Fatalf("snapshot after %d records, then records %d to %d: replay differs from all %d records",
					k, j, len(records), len(records))
			}
		}
	}
	t.Logf("%d records", len(records))
}

// An older server's journal, as it wrote it: the snapshot payload has
// today's format, but the server journaled a job's creation and outcome
// as "created" and "done" records of their own and stamped no seq on
// events and spans.
const olderSnapshot = `{"jobs":[{"id":"a2405f4bf74b2488","kind":"run","state":"succeeded",` +
	`"created_at":"2026-10-19T07:50:12.396804554Z","started_at":"2026-10-19T07:50:12.397327193Z",` +
	`"finished_at":"2026-10-19T07:50:12.397839571Z",` +
	`"result":{"name":"request.mc","jobs":1,"runs":[{"job":0,"steps":2,"ret":7,"output_len":0}]},` +
	`"events":[{"seq":0,"type":"state","state":"queued"},{"seq":1,"type":"state","state":"running"},` +
	`{"seq":2,"type":"progress","steps":2,"total_steps":2},{"seq":3,"type":"state","state":"succeeded"}],` +
	`"spans":[{"trace_id":"1053d9f935a0be2572fd4b95d830075a","span_id":"079389aaf195006e",` +
	`"parent_span_id":"0a4743b527517461","name":"admit","start":"2026-10-19T07:50:12.396787088Z",` +
	`"end":"2026-10-19T07:50:12.396790041Z","duration_ms":0.002939}],` +
	`"trace_id":"1053d9f935a0be2572fd4b95d830075a","idem_key":"k1",` +
	`"request":{"kind":"run","source":"int main() { return 7; }"}}]}`

var olderRecords = []string{
	`{"type":"created","id":"5a4f1d8ec9ae03fb","at":"2026-10-19T07:50:12.402443927Z","kind":"run",` +
		`"request":{"kind":"run","source":"int main() { return 7; }"},"trace_id":"68bc467e7882664df2a16ad7ade52b84"}`,
	`{"type":"event","id":"5a4f1d8ec9ae03fb","at":"2026-10-19T07:50:12.402508534Z",` +
		`"event":{"seq":0,"type":"state","state":"queued"}}`,
	`{"type":"done","id":"5a4f1d8ec9ae03fb","at":"2026-10-19T07:50:12.402831286Z",` +
		`"started_at":"2026-10-19T07:50:12.40261686Z","finished_at":"2026-10-19T07:50:12.402831286Z",` +
		`"result":{"name":"request.mc","jobs":1,"runs":[{"job":0,"steps":2,"ret":7,"output_len":0}]}}`,
}

// TestOlderServerSnapshot: a journal of an older server replays when
// it holds a snapshot alone, and a job recovered from it journals on
// in today's records. With the older server's records after the
// snapshot, New refuses the journal, names its data dir, and leaves
// the dir as it was: no file changes and none is added.
func TestOlderServerSnapshot(t *testing.T) {
	write := func(t *testing.T, records []string) string {
		t.Helper()
		dir := t.TempDir()
		jn, _, err := journal.Open(journal.Options{Dir: dir, Sync: journal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		tok, err := jn.StartSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := jn.FinishSnapshot(tok, []byte(olderSnapshot)); err != nil {
			t.Fatal(err)
		}
		for _, r := range records {
			if err := jn.Append([]byte(r)); err != nil {
				t.Fatal(err)
			}
		}
		if err := jn.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	t.Run("snapshot_only", func(t *testing.T) {
		dir := write(t, nil)
		const id = "a2405f4bf74b2488"
		// The snapshot's job finished long before the test runs.
		keep := func(o *Options) { o.JobTTL = 100 * 365 * 24 * time.Hour }
		for restart := 0; restart < 2; restart++ {
			s, ts := newDurableServer(t, dir, keep)
			if rec := s.Recovery(); rec.Jobs != 1 || rec.Interrupted != 0 {
				t.Fatalf("restart %d: recovery = %+v, want the snapshot's finished job", restart, rec)
			}
			st := waitState(t, ts.URL, id)
			if st.State != api.JobSucceeded || st.Result == nil || st.Spans != 1+restart {
				t.Fatalf("restart %d: job = %+v, want succeeded with its result and %d spans", restart, st, 1+restart)
			}
			// Reading the event stream journals an sse span as today's
			// record, which the next restart replays after the snapshot.
			if _, body := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id+"/events", ""); strings.Count(body, "data: ") != 4 {
				t.Fatalf("restart %d: event stream:\n%s", restart, body)
			}
			ts.Close()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("snapshot_and_records", func(t *testing.T) {
		dir := write(t, olderRecords)
		files := func() map[string][]byte {
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			out := make(map[string][]byte)
			for _, e := range ents {
				b, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				out[e.Name()] = b
			}
			return out
		}
		before := files()
		s, err := New(Options{Engine: alchemist.NewEngine(), DataDir: dir, Fsync: journal.SyncNone})
		if err == nil {
			s.Close()
			t.Fatal("New accepted a journal with an older server's records")
		}
		if msg := err.Error(); !strings.Contains(msg, dir) || !strings.Contains(msg, "older server") {
			t.Errorf("error %q does not name the data dir and an older server", msg)
		}
		// Every file that was there keeps its bytes, and there is no new
		// one.
		after := files()
		for name, b := range before {
			if !bytes.Equal(after[name], b) {
				t.Errorf("%s changed", name)
			}
		}
		for name := range after {
			if _, ok := before[name]; !ok {
				t.Errorf("New added the file %s", name)
			}
		}
	})
}
