package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"alchemist/internal/api"
	"alchemist/internal/journal"
	"alchemist/internal/xtrace"
)

// A job journals one ordered stream of records, each exactly one event
// or one span, stamped with its seq: the number of the job's events and
// spans before it. Replay is idempotent: a record whose seq the job has
// passed in the snapshot it follows applies as a no-op, which is what
// lets snapshot encoding run concurrently with appends. The store adds
// retirements.
const (
	recEvent   = "event"   // one event-log entry (state transition or progress)
	recSpan    = "span"    // one span-timeline entry
	recRetired = "retired" // the store dropped the job (TTL or capacity)
)

// walRecord is the JSON payload of one journal record.
type walRecord struct {
	Type string    `json:"type"`
	ID   string    `json:"id"`
	Seq  int       `json:"seq,omitempty"`
	At   time.Time `json:"at"`

	// A job's first record (seq 0, its queued event) creates it: At is
	// the creation time.
	Kind    string          `json:"kind,omitempty"`
	Request json.RawMessage `json:"request,omitempty"`
	IdemKey string          `json:"idem_key,omitempty"`
	TraceID string          `json:"trace_id,omitempty"`

	Event *api.Event         `json:"event,omitempty"`
	Span  *xtrace.SpanRecord `json:"span,omitempty"`

	// The terminal event carries the outcome.
	StartedAt  time.Time       `json:"started_at,omitzero"`
	FinishedAt time.Time       `json:"finished_at,omitzero"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// jobSnapshot is one job's full durable state inside a journal
// snapshot.
type jobSnapshot struct {
	ID         string              `json:"id"`
	Kind       string              `json:"kind"`
	State      api.JobState        `json:"state"`
	CreatedAt  time.Time           `json:"created_at"`
	StartedAt  time.Time           `json:"started_at,omitzero"`
	FinishedAt time.Time           `json:"finished_at,omitzero"`
	Error      string              `json:"error,omitempty"`
	Result     json.RawMessage     `json:"result,omitempty"`
	Events     []api.Event         `json:"events,omitempty"`
	Spans      []xtrace.SpanRecord `json:"spans,omitempty"`
	TraceID    string              `json:"trace_id,omitempty"`
	IdemKey    string              `json:"idem_key,omitempty"`
	Request    json.RawMessage     `json:"request,omitempty"`
}

// storeSnapshot is the journal snapshot payload: the whole job store.
// The writer assembles its JSON from cached per-job entries
// (jobStore.snapshotParts); replay decodes it whole.
type storeSnapshot struct {
	Jobs []jobSnapshot `json:"jobs"`
}

// walWriter fronts the journal for the job store: it serializes
// records, counts appends to trigger snapshot+compaction, and absorbs
// journal failures into a metric instead of failing requests (the
// in-memory store remains authoritative while the process lives).
// A nil *walWriter is valid and discards everything — servers without
// a DataDir run exactly as before.
type walWriter struct {
	jn        *journal.Journal
	store     *jobStore // set after store construction
	snapEvery int64
	errs      func() // increments the journal-error counter

	appends  atomic.Int64
	snapping atomic.Bool
	// snapJobs and snapParts are the running snapshot's copy of the
	// store order and its part list, kept for the next one (snapping
	// admits one at a time) and cleared in between so they pin no
	// retired job.
	snapJobs  []*job
	snapParts [][]byte
	// disabled simulates a hard kill (Server.Kill): appends stop
	// reaching the journal, as if the process had already died. kill
	// sets it under killMu, which a snapshot holds from its last check
	// of disabled through its commit.
	disabled atomic.Bool
	killMu   sync.Mutex
}

// kill stops the journal the way a crash would. Once it returns, no
// record and no snapshot of store state changed after it reaches the
// disk.
func (w *walWriter) kill() {
	if w == nil {
		return
	}
	w.killMu.Lock()
	w.disabled.Store(true)
	w.killMu.Unlock()
}

func (w *walWriter) append(rec walRecord) {
	if w == nil || w.disabled.Load() {
		return
	}
	b, err := compactJSON.encode(rec)
	if err == nil {
		// Without Encode's newline the payload is json.Marshal's; Append
		// copies it into its frame before the buffer goes back.
		err = w.jn.Append(b.buf.Bytes()[:b.buf.Len()-1])
		compactJSON.put(b)
	}
	if err != nil {
		w.errs()
		return
	}
	if w.snapEvery > 0 && w.appends.Add(1) >= w.snapEvery && w.snapping.CompareAndSwap(false, true) {
		w.appends.Store(0)
		// Snapshot on its own goroutine: append is called under job and
		// store locks that the snapshot encoder itself needs.
		go w.snapshot()
	}
}

// snapshot runs one snapshot+compaction cycle. Records appended while
// the store is being encoded land in segments the compaction keeps, so
// nothing is lost to the race; replay deduplicates the overlap. Every
// job lock is released before the journal lock is taken: appends hold
// job and store locks while they take the journal lock.
func (w *walWriter) snapshot() {
	defer w.snapping.Store(false)
	if w.disabled.Load() {
		return
	}
	tok, err := w.jn.StartSnapshot()
	if err != nil {
		w.errs()
		return
	}
	w.snapJobs, w.snapParts, err = w.store.snapshotParts(w.snapJobs[:0], w.snapParts[:0])
	defer func() {
		clear(w.snapJobs)
		clear(w.snapParts)
	}()
	if err != nil {
		w.errs()
		return
	}
	// A kill since the check above may have changed what was encoded
	// (Kill cancels every job), and a killed process never writes that
	// state. Finding disabled unset under killMu means the encoding
	// happened before the kill.
	w.killMu.Lock()
	defer w.killMu.Unlock()
	if w.disabled.Load() {
		return
	}
	if err := w.jn.FinishSnapshot(tok, w.snapParts...); err != nil {
		w.errs()
	}
}

func (w *walWriter) close() error {
	if w == nil {
		return nil
	}
	return w.jn.Close()
}

// replayState folds a journal recovery (snapshot + post-snapshot
// records) into per-job durable state, in stable creation order. A job
// record applies only when its seq is the number of events and spans
// the job already has, and a seq 0 record creates the job. A lower seq
// is already in the snapshot. A higher one follows a record that failed
// to append, so a lost record ends the job's replayable stream there.
func replayState(rec *journal.Recovery) ([]*jobSnapshot, error) {
	byID := make(map[string]*jobSnapshot)
	var order []string
	if rec.Snapshot != nil {
		var snap storeSnapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			return nil, fmt.Errorf("corrupt snapshot: %w", err)
		}
		for i := range snap.Jobs {
			js := snap.Jobs[i]
			byID[js.ID] = &js
			order = append(order, js.ID)
		}
	}
	for _, raw := range rec.Records {
		var r walRecord
		if err := json.Unmarshal(raw, &r); err != nil {
			// A checksummed-but-unparsable record means a version skew
			// or a bug; skip it rather than refuse to start.
			continue
		}
		if r.Type == recRetired {
			delete(byID, r.ID)
			continue
		}
		// An older server journaled a job's creation and outcome as
		// "created" and "done" records and stamped no seq, so all but its
		// "created" records read as seq 0 without the kind that a job's
		// first record carries. Its snapshots have today's format.
		if r.Type == "created" || r.Seq == 0 && r.Kind == "" {
			return nil, errors.New("written by an older server; start this one on a fresh data dir")
		}
		js := byID[r.ID]
		if js == nil && r.Seq == 0 {
			js = &jobSnapshot{
				ID: r.ID, Kind: r.Kind, State: api.JobQueued,
				CreatedAt: r.At, IdemKey: r.IdemKey, Request: r.Request,
				TraceID: r.TraceID,
			}
			byID[r.ID] = js
			order = append(order, r.ID)
		}
		if js == nil || r.Seq != len(js.Events)+len(js.Spans) {
			continue // retired, already in the snapshot, or past a lost record
		}
		if r.Span != nil {
			js.Spans = append(js.Spans, *r.Span)
			continue
		}
		ev := r.Event
		if ev == nil {
			continue
		}
		js.Events = append(js.Events, *ev)
		if ev.Type != "state" {
			continue
		}
		js.State = ev.State
		if ev.Error != "" {
			js.Error = ev.Error
		}
		switch {
		case ev.State == api.JobRunning:
			js.StartedAt = r.At
		case ev.State.Terminal():
			js.StartedAt, js.FinishedAt, js.Result = r.StartedAt, r.FinishedAt, r.Result
		}
	}
	out := make([]*jobSnapshot, 0, len(byID))
	for _, id := range order {
		if js := byID[id]; js != nil {
			out = append(out, js)
		}
	}
	return out, nil
}

// restoreJob rebuilds an in-memory job from its durable state. The
// progress aggregate is rebuilt from the (throttled) progress events,
// so recovered step totals are lower bounds; authoritative per-run
// totals live in the result payload.
func restoreJob(js *jobSnapshot, wal *walWriter) *job {
	j := &job{
		id:       js.ID,
		kind:     js.Kind,
		created:  js.CreatedAt,
		idemKey:  js.IdemKey,
		reqRaw:   js.Request,
		wal:      wal,
		state:    js.State,
		started:  js.StartedAt,
		finished: js.FinishedAt,
		errMsg:   js.Error,
		result:   js.Result,
		events:   js.Events,
		spans:    js.Spans,
	}
	// Spans recorded after recovery (requeue) rejoin the original
	// trace; the lost parent span ID just makes them siblings of the
	// old root's children.
	if tid, err := xtrace.ParseTraceID(js.TraceID); err == nil {
		j.trace = xtrace.SpanContext{TraceID: tid, SpanID: xtrace.NewSpanID()}
	}
	j.cond = sync.NewCond(&j.mu)
	for _, ev := range js.Events {
		if ev.Type == "progress" {
			j.progress.Update(ev.Job, ev.Steps)
		}
	}
	if js.State == api.JobSucceeded {
		for _, jp := range j.progress.Snapshot() {
			j.progress.MarkDone(jp.Job)
		}
	}
	return j
}
