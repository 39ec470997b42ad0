package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"alchemist"
	"alchemist/internal/api"
	"alchemist/internal/journal"
	"alchemist/internal/xtrace"
)

// referenceSnapshot is the reference store snapshot encoder: every
// job's durable state copied under its lock, events and spans included,
// and the whole store encoded by one json.Marshal. The cached encoder
// must reproduce its payload byte for byte.
func referenceSnapshot(t *testing.T, s *jobStore) []byte {
	t.Helper()
	s.mu.Lock()
	jobs := append([]*job(nil), s.order...)
	s.mu.Unlock()
	snap := storeSnapshot{Jobs: make([]jobSnapshot, 0, len(jobs))}
	for _, j := range jobs {
		j.mu.Lock()
		snap.Jobs = append(snap.Jobs, jobSnapshot{
			ID:         j.id,
			Kind:       j.kind,
			State:      j.state,
			CreatedAt:  j.created,
			StartedAt:  j.started,
			FinishedAt: j.finished,
			Error:      j.errMsg,
			Result:     j.result,
			Events:     append([]api.Event(nil), j.events...),
			Spans:      append([]xtrace.SpanRecord(nil), j.spans...),
			TraceID:    j.traceID(),
			IdemKey:    j.idemKey,
			Request:    j.reqRaw,
		})
		j.mu.Unlock()
	}
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// cachedSnapshot is the payload the journal writes from snapshotParts.
func cachedSnapshot(t *testing.T, s *jobStore) []byte {
	t.Helper()
	_, parts, err := s.snapshotParts(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Join(parts, nil)
}

// openWAL opens a journal over dir behind a walWriter that snapshots
// only when the test says so.
func openWAL(t *testing.T, dir string) (*walWriter, *journal.Recovery) {
	t.Helper()
	jn, rec, err := journal.Open(journal.Options{Dir: dir, Sync: journal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	return &walWriter{jn: jn, snapEvery: -1, errs: func() { t.Error("journal error") }}, rec
}

// TestSnapshotEntriesMatchReference takes jobs through every journaled
// change, snapshotting after each one so every job's entry is cached
// when the next change lands, and compares the payload byte for byte
// with the reference encoder's.
func TestSnapshotEntriesMatchReference(t *testing.T) {
	dir := t.TempDir()
	sm := newServerMetrics(alchemist.NewEngine().Metrics())
	wal, _ := openWAL(t, dir)
	store := newJobStore(time.Hour, 1<<10, sm, wal)
	wal.store = store

	check := func(step string) {
		t.Helper()
		want := referenceSnapshot(t, store)
		for pass := 0; pass < 2; pass++ { // encode, then all from the cache
			if got := cachedSnapshot(t, store); !bytes.Equal(got, want) {
				t.Fatalf("after %s (pass %d): snapshot payload differs\n got %s\nwant %s", step, pass, got, want)
			}
		}
	}
	trace := xtrace.SpanContext{TraceID: xtrace.NewTraceID(), SpanID: xtrace.NewSpanID()}
	span := func(j *job, name string, attrs map[string]string) {
		now := time.Now()
		j.RecordSpan(xtrace.MakeRecord(trace.TraceID, trace.SpanID, name, now.Add(-time.Millisecond), now, attrs))
	}
	create := func(kind, idemKey string) *job {
		j := newJob(kind, json.RawMessage(`{"kind":"`+kind+`","workload":"aes"}`), idemKey, wal)
		j.trace = trace
		store.putOrIdem(j)
		check("store put, before the queued event")
		j.enqueue()
		check("queued")
		return j
	}

	check("empty store")
	ok := create("profile", "key-1")
	span(ok, "admit", nil)
	check("admit span")
	ok.setRunning()
	check("running")
	ok.reportProgress(0, 1200, -1)
	check("progress")
	ok.reportProgress(1, 3400, -1)
	check("second progress")
	ok.finish(map[string]any{"runs": []int{1, 2}, "note": "<html> &  "}, nil)
	check("succeeded with result")
	span(ok, "sse", map[string]string{"events": "5", "resumed": "false"})
	check("sse span after the terminal event")

	bad := create("run", "")
	bad.setRunning()
	bad.finish(nil, errors.New("vm: out of memory"))
	check("failed")

	queued := create("advise", "")
	running := create("profile", "key-2")
	running.setRunning()
	running.reportProgress(0, 10, -1)
	check("queued and running at the crash")

	// Recovery: replay the journal into a new store, as New does, and
	// settle the unfinished jobs one each way.
	wal.snapshot()
	if err := wal.close(); err != nil {
		t.Fatal(err)
	}
	wal, rec := openWAL(t, dir)
	defer wal.close()
	if !bytes.Equal(rec.Snapshot, referenceSnapshot(t, store)) {
		t.Fatal("the journal's snapshot differs from the reference payload")
	}
	states, err := replayState(rec)
	if err != nil {
		t.Fatal(err)
	}
	store = newJobStore(time.Hour, 1<<10, sm, wal)
	wal.store = store
	restored := make(map[string]*job)
	for _, js := range states {
		j := restoreJob(js, wal)
		store.put(j)
		restored[j.id] = j
	}
	check("recovery")
	restored[queued.id].interrupt("interrupted: server restarted")
	check("interrupted through recovery")
	requeued := restored[running.id]
	requeued.requeue()
	check("requeued through recovery")
	requeued.setRunning()
	span(requeued, "queue", nil)
	requeued.finish(map[string]int{"steps": 10}, nil)
	check("requeued job succeeded")

	store.max = len(store.list()) - 1
	store.sweep(time.Now())
	if store.get(ok.id) != nil {
		t.Fatal("capacity sweep kept the oldest finished job")
	}
	check("retirement")
}

// finishedStore builds a store of n succeeded jobs with no journal.
func finishedStore(t *testing.T, n int) *jobStore {
	t.Helper()
	store := newJobStore(time.Hour, n, newServerMetrics(alchemist.NewEngine().Metrics()), nil)
	trace := xtrace.SpanContext{TraceID: xtrace.NewTraceID(), SpanID: xtrace.NewSpanID()}
	for i := 0; i < n; i++ {
		j := newJob("profile", json.RawMessage(`{"kind":"profile"}`), "", nil)
		j.trace = trace
		store.jobs[j.id] = j
		store.order = append(store.order, j)
		j.enqueue()
		j.setRunning()
		j.reportProgress(0, int64(i), -1)
		now := time.Now()
		j.RecordSpan(xtrace.MakeRecord(trace.TraceID, trace.SpanID, "queue", now, now, nil))
		j.finish(map[string]int{"job": i}, nil)
	}
	return store
}

// TestSnapshotReencodesOnlyChangedJobs: with 2,000 finished jobs, a
// snapshot after one job changes encodes that job alone. Every other
// entry is the very slice the previous snapshot wrote, and the whole
// snapshot allocates a few objects where encoding every job took tens
// per job.
func TestSnapshotReencodesOnlyChangedJobs(t *testing.T) {
	const n = 2000
	store := finishedStore(t, n)
	_, first, err := store.snapshotParts(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	changed := store.order[n/2]
	changed.RecordSpan(xtrace.SpanRecord{Name: "sse"})
	_, second, err := store.snapshotParts(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != len(first) {
		t.Fatalf("%d parts, then %d", len(first), len(second))
	}
	reencoded := 0
	for i := range first {
		if &first[i][0] != &second[i][0] {
			reencoded++
		}
	}
	// Entries sit at odd indexes, behind the opening bracket and commas.
	if reencoded != 1 || &first[1+2*(n/2)][0] == &second[1+2*(n/2)][0] {
		t.Fatalf("%d entries re-encoded, want only the changed job's", reencoded)
	}
	if !bytes.Equal(bytes.Join(second, nil), referenceSnapshot(t, store)) {
		t.Fatal("snapshot payload differs from the reference")
	}

	allocs := testing.AllocsPerRun(20, func() {
		changed.mu.Lock()
		changed.journalLocked(walRecord{Type: recSpan, ID: changed.id})
		changed.mu.Unlock()
		if _, _, err := store.snapshotParts(nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 50 {
		t.Fatalf("a snapshot of %d jobs with one changed allocates %.0f objects, want at most 50", n, allocs)
	}
	t.Logf("a snapshot of %d jobs with one changed allocates %.0f objects", n, allocs)
}

// TestSnapshotReusesItsScratch: a snapshot of an unchanged 2,000-job
// store reuses the previous snapshot's part list and copy of the store
// order, so beyond what the journal spends on writing any snapshot it
// allocates a few bytes, not a part header and a pointer per job. Both
// are cleared once the snapshot is written, so they pin no job.
func TestSnapshotReusesItsScratch(t *testing.T) {
	const n = 2000
	perSnapshot := func(store *jobStore) uint64 {
		wal, _ := openWAL(t, t.TempDir())
		defer wal.close()
		wal.store = store
		wal.snapshot() // encodes every job once
		b := bytesPerRun(10, wal.snapshot)
		for _, j := range wal.snapJobs[:cap(wal.snapJobs)] {
			if j != nil {
				t.Fatal("a written snapshot still holds a job")
			}
		}
		for _, p := range wal.snapParts[:cap(wal.snapParts)] {
			if p != nil {
				t.Fatal("a written snapshot still holds a part")
			}
		}
		return b
	}
	empty := perSnapshot(finishedStore(t, 0))
	full := perSnapshot(finishedStore(t, n))
	t.Logf("a snapshot allocates %d bytes with no job, %d with %d unchanged ones", empty, full, n)
	if full > empty+4*n {
		t.Fatalf("a snapshot of %d unchanged jobs allocates %d bytes more than one of none, want at most %d",
			n, full-empty, 4*n)
	}
}

// TestSnapshotConcurrentWithChanges races snapshots against changes to
// the jobs they encode; once the changes stop, the cached payload is
// the reference payload.
func TestSnapshotConcurrentWithChanges(t *testing.T) {
	store := finishedStore(t, 8)
	var wg sync.WaitGroup
	for _, j := range store.list() {
		wg.Add(1)
		go func(j *job) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j.RecordSpan(xtrace.SpanRecord{Name: fmt.Sprintf("sse-%d", i)})
			}
		}(j)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		cachedSnapshot(t, store)
	}
	if !bytes.Equal(cachedSnapshot(t, store), referenceSnapshot(t, store)) {
		t.Fatal("snapshot payload differs from the reference after concurrent changes")
	}
}
