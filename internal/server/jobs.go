package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"sort"
	"sync"
	"time"

	"alchemist/internal/api"
	"alchemist/internal/obs"
	"alchemist/internal/xtrace"
)

// validJobState reports whether s names a real state (for the list
// endpoint's state= filter).
func validJobState(s api.JobState) bool {
	switch s {
	case api.JobQueued, api.JobRunning, api.JobSucceeded, api.JobFailed, api.JobInterrupted:
		return true
	}
	return false
}

// job is one async unit of work: its state machine, progress aggregate,
// event log, and result. Every externally visible mutation flows
// through journalLocked, which mirrors it into the write-ahead journal
// (when one is attached) so the job survives a crash.
type job struct {
	id      string
	kind    string
	created time.Time
	idemKey string
	// reqRaw is the canonicalized submission body, journaled so the job
	// can be re-enqueued after a crash.
	reqRaw json.RawMessage
	wal    *walWriter

	// trace is the job's trace identity: every span in its timeline
	// shares trace.TraceID and is parented (directly or transitively)
	// under trace.SpanID, the submitting request's root span. Zero for
	// jobs submitted before tracing existed (journal replay).
	trace xtrace.SpanContext

	mu   sync.Mutex
	cond *sync.Cond

	state    api.JobState
	started  time.Time
	finished time.Time
	errMsg   string
	result   json.RawMessage

	events          []api.Event
	progress        obs.Progress
	lastProgressPub time.Time

	// spans is the job's persisted span timeline: admission, queue
	// wait, compile, per-scale profile runs, journal appends, SSE
	// delivery. Bounded by maxJobSpans; journaled like events.
	spans        []xtrace.SpanRecord
	spansDropped int

	// snapEnc is the job's encoded journal-snapshot entry, nil until a
	// snapshot encodes the job and again after any journaled change.
	// A snapshot writes it outside j.mu, so it is replaced, never
	// modified in place.
	snapEnc []byte

	cancel context.CancelFunc
}

// maxJobSpans bounds one job's persisted span timeline (and therefore
// its journal footprint); spans past the cap are counted, not kept.
const maxJobSpans = 128

// RecordSpan appends one finished span to the job's persisted timeline
// and journals it. It implements xtrace.Recorder, so a context built
// with xtrace.ContextWithRecorder(ctx, j) routes every span ended under
// it — engine compile/profile spans included — into the job record.
func (j *job) RecordSpan(rec xtrace.SpanRecord) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.recordSpanLocked(rec)
}

// recordSpanLocked is RecordSpan for callers already holding j.mu
// (spans measured inside locked sections, like the terminal journal
// append).
func (j *job) recordSpanLocked(rec xtrace.SpanRecord) {
	if len(j.spans) >= maxJobSpans {
		j.spansDropped++
		return
	}
	j.spans = append(j.spans, rec)
	j.journalLocked(walRecord{Type: recSpan, At: rec.End, Span: &rec})
}

// journalLocked journals the job's newest event or span, already in
// memory, and drops the job's cached snapshot entry, so the next
// snapshot encodes the change. It stamps the record with the job ID and
// its seq, the number of events and spans before it. The seq 0 record
// also carries the job's creation, and a terminal event's record its
// outcome. Every job record goes through here, under j.mu and in the
// same hold as the change it records.
func (j *job) journalLocked(rec walRecord) {
	j.snapEnc = nil
	rec.ID, rec.Seq = j.id, len(j.events)+len(j.spans)-1
	if rec.Seq == 0 {
		rec.At = j.created
		rec.Kind, rec.Request, rec.IdemKey, rec.TraceID = j.kind, j.reqRaw, j.idemKey, j.traceID()
	}
	if rec.Event != nil && rec.Event.State.Terminal() {
		rec.StartedAt, rec.FinishedAt, rec.Result = j.started, j.finished, j.result
	}
	j.wal.append(rec)
}

// newJob builds a queued job without publishing or journaling anything:
// callers must store it (so journal snapshots can see it) and then call
// enqueue.
func newJob(kind string, reqRaw json.RawMessage, idemKey string, wal *walWriter) *job {
	j := &job{
		id:      newJobID(),
		kind:    kind,
		created: time.Now(),
		idemKey: idemKey,
		reqRaw:  reqRaw,
		wal:     wal,
		state:   api.JobQueued,
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a zero id
		// would still be unique enough not to matter for an in-memory
		// store, so don't take the server down over it.
		return "job-rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// enqueue publishes the queued event, whose record, the job's first,
// journals its creation. It must run after the job is in the store: a
// journal snapshot taken in between then includes the job, which is
// what makes that record safe to compact.
func (j *job) enqueue() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.publishLocked(api.Event{Type: "state", State: api.JobQueued})
}

// publishLocked appends one event, wakes subscribers, and journals it.
// Callers hold j.mu; the in-memory append happens before the journal
// write so a snapshot of this job always covers its journaled records.
func (j *job) publishLocked(ev api.Event) {
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	j.cond.Broadcast()
	j.journalLocked(walRecord{Type: recEvent, At: time.Now(), Event: &ev})
}

// wake re-checks every subscriber's wait condition; used to unblock
// streams whose client context ended.
func (j *job) wake() {
	j.mu.Lock()
	j.cond.Broadcast()
	j.mu.Unlock()
}

// setRunning transitions queued → running.
func (j *job) setRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = api.JobRunning
	j.started = time.Now()
	j.publishLocked(api.Event{Type: "state", State: api.JobRunning})
}

// finish records the terminal state, result, and final progress
// snapshot, and publishes the terminal event, whose record journals the
// outcome.
func (j *job) finish(result any, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	for _, jp := range j.progress.Snapshot() {
		j.progress.MarkDone(jp.Job)
	}
	ev := api.Event{Type: "state", State: api.JobSucceeded}
	if err != nil {
		j.errMsg = err.Error()
		ev = api.Event{Type: "state", State: api.JobFailed, Error: j.errMsg}
	} else if result != nil {
		if raw, merr := json.Marshal(result); merr == nil {
			j.result = raw
		}
	}
	j.state = ev.State
	walStart := time.Now()
	j.publishLocked(ev)
	if j.wal != nil && j.trace.Valid() {
		j.recordSpanLocked(xtrace.MakeRecord(j.trace.TraceID, j.trace.SpanID,
			"journal.append", walStart, time.Now(), nil))
	}
}

// traceID returns the job's hex trace ID ("" when untraced).
func (j *job) traceID() string {
	if !j.trace.Valid() {
		return ""
	}
	return j.trace.TraceID.String()
}

// interrupt marks a recovered non-terminal job as interrupted: the
// server crashed (or was killed) while it was queued or running, so its
// work is gone. The terminal event is journaled, making the next
// recovery a no-op.
func (j *job) interrupt(reason string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = api.JobInterrupted
	j.errMsg = reason
	j.finished = time.Now()
	j.publishLocked(api.Event{Type: "state", State: api.JobInterrupted, Error: reason})
}

// requeue returns a recovered non-terminal job to the queued state for
// re-execution, continuing its event log.
func (j *job) requeue() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = api.JobQueued
	j.started = time.Time{}
	j.publishLocked(api.Event{Type: "state", State: api.JobQueued})
}

// reportProgress feeds one batch job's step report into the progress
// aggregate and, rate-limited by minGap, into the event log. Negative
// minGap publishes every report.
func (j *job) reportProgress(batchJob int, steps int64, minGap time.Duration) {
	j.progress.Update(batchJob, steps)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		// A worker's final report can race the terminal event; the
		// event log must not grow after it.
		return
	}
	now := time.Now()
	if minGap > 0 && now.Sub(j.lastProgressPub) < minGap {
		return
	}
	j.lastProgressPub = now
	j.publishLocked(api.Event{
		Type:       "progress",
		Job:        batchJob,
		Steps:      steps,
		TotalSteps: j.progress.TotalSteps(),
	})
}

// waitEvents blocks until the log grows past `after`, the job reaches a
// terminal state, ctx ends, or maxWait elapses (maxWait <= 0 waits
// forever). It returns the new events, whether the returned slice
// completes the log of a terminated job (the stream can end), and
// whether it gave up on the wait — the SSE handler's cue to emit a
// keepalive comment.
func (j *job) waitEvents(ctx context.Context, after int, maxWait time.Duration) ([]api.Event, bool, bool) {
	var deadline time.Time
	if maxWait > 0 {
		deadline = time.Now().Add(maxWait)
		// The timer wakes the cond so the timeout is observed even with
		// no event traffic.
		t := time.AfterFunc(maxWait, j.wake)
		defer t.Stop()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for len(j.events) <= after && !j.state.Terminal() && ctx.Err() == nil {
		if maxWait > 0 && !time.Now().Before(deadline) {
			return nil, false, true
		}
		j.cond.Wait()
	}
	if after >= len(j.events) {
		// A resumed subscriber can ask for events past the end of a
		// terminated log; there is nothing left to send.
		return nil, j.state.Terminal(), false
	}
	evs := append([]api.Event(nil), j.events[after:]...)
	return evs, j.state.Terminal() && after+len(evs) == len(j.events), false
}

// status snapshots the job. withResult controls whether the (possibly
// large) result payload is included.
func (j *job) status(withResult bool) api.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked(withResult)
}

// listStatus returns the job's status without its result, unless a
// filter is given and the job, under the same lock, is in another state.
func (j *job) listStatus(filter api.JobState) (api.JobStatus, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if filter != "" && j.state != filter {
		return api.JobStatus{}, false
	}
	return j.statusLocked(false), true
}

func (j *job) statusLocked(withResult bool) api.JobStatus {
	st := api.JobStatus{
		ID:         j.id,
		Kind:       j.kind,
		State:      j.state,
		CreatedAt:  j.created,
		Error:      j.errMsg,
		TotalSteps: j.progress.TotalSteps(),
		TraceID:    j.traceID(),
		Spans:      len(j.spans),
	}
	if snap := j.progress.Snapshot(); len(snap) > 0 {
		st.Progress = make([]api.JobProgress, len(snap))
		for i, jp := range snap {
			st.Progress[i] = api.JobProgress(jp)
		}
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if withResult && j.state == api.JobSucceeded && len(j.result) > 0 {
		st.Result = j.result
	}
	return st
}

// snapshotEntry returns the job's journal-snapshot entry, the JSON of
// its full durable state. It encodes the job only when a journaled
// change dropped the cached entry since the last call.
func (j *job) snapshotEntry() ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.snapEnc != nil {
		return j.snapEnc, nil
	}
	// Encoded under j.mu, so the event log and the span timeline need
	// no copy.
	b, err := json.Marshal(jobSnapshot{
		ID:         j.id,
		Kind:       j.kind,
		State:      j.state,
		CreatedAt:  j.created,
		StartedAt:  j.started,
		FinishedAt: j.finished,
		Error:      j.errMsg,
		Result:     j.result,
		Events:     j.events,
		Spans:      j.spans,
		TraceID:    j.traceID(),
		IdemKey:    j.idemKey,
		Request:    j.reqRaw,
	})
	if err != nil {
		return nil, err
	}
	j.snapEnc = b
	return b, nil
}

// expired reports whether the job finished more than ttl ago.
func (j *job) expired(now time.Time, ttl time.Duration) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal() && now.Sub(j.finished) > ttl
}

func (j *job) isTerminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// jobStore is the job index with TTL-based retirement, a hard capacity,
// and an idempotency-key index. With a journal attached, retirements
// are journaled so recovery does not resurrect retired jobs.
type jobStore struct {
	ttl time.Duration
	max int
	sm  *serverMetrics
	wal *walWriter

	mu     sync.Mutex
	jobs   map[string]*job
	byIdem map[string]*job
	order  []*job // creation order, for capacity eviction
}

func newJobStore(ttl time.Duration, max int, sm *serverMetrics, wal *walWriter) *jobStore {
	return &jobStore{
		ttl: ttl, max: max, sm: sm, wal: wal,
		jobs:   make(map[string]*job),
		byIdem: make(map[string]*job),
	}
}

// put registers j unconditionally (recovery path; idempotency keys are
// indexed but never contested there).
func (s *jobStore) put(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.id] = j
	if j.idemKey != "" {
		s.byIdem[j.idemKey] = j
	}
	s.order = append(s.order, j)
	s.trimLocked(time.Now())
}

// putOrIdem registers j unless another job already owns its
// idempotency key, in which case that job is returned and j is
// discarded (it has no journal footprint yet).
func (s *jobStore) putOrIdem(j *job) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.idemKey != "" {
		if prev := s.byIdem[j.idemKey]; prev != nil {
			return prev
		}
		s.byIdem[j.idemKey] = j
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.trimLocked(time.Now())
	return j
}

func (s *jobStore) get(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// getIdem returns the job owning an idempotency key, if any.
func (s *jobStore) getIdem(key string) *job {
	if key == "" {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byIdem[key]
}

// list returns every stored job in the API's stable order, which is the
// order of page cursors: creation time in Unix nanoseconds ascending,
// ties broken by id.
func (s *jobStore) list() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]*job(nil), s.order...)
	sort.SliceStable(out, func(i, k int) bool {
		if a, b := out[i].created.UnixNano(), out[k].created.UnixNano(); a != b {
			return a < b
		}
		return out[i].id < out[k].id
	})
	return out
}

// Separators of the snapshot payload, json.Marshal(storeSnapshot{...})
// cut around its job entries.
var (
	snapOpen  = []byte(`{"jobs":[`)
	snapComma = []byte(",")
	snapClose = []byte("]}")
)

// snapshotParts appends the store's jobs, in order, to jobs and the
// journal snapshot payload of those jobs to parts, as parts whose
// concatenation is json.Marshal of their storeSnapshot. Only jobs
// changed since the last snapshot are encoded; the others contribute
// their cached entries. Each job's lock is released before the next is
// taken, and all of them before the caller writes the parts.
func (s *jobStore) snapshotParts(jobs []*job, parts [][]byte) ([]*job, [][]byte, error) {
	s.mu.Lock()
	jobs = append(jobs, s.order...)
	s.mu.Unlock()
	parts = append(parts, snapOpen)
	for i, j := range jobs {
		b, err := j.snapshotEntry()
		if err != nil {
			return jobs, parts, err
		}
		if i > 0 {
			parts = append(parts, snapComma)
		}
		parts = append(parts, b)
	}
	return jobs, append(parts, snapClose), nil
}

// sweep retires the finished jobs past their TTL and then trims the
// store to its capacity, so the trim retires only what the expired jobs
// did not already make room for.
func (s *jobStore) sweep(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.order[:0]
	for _, j := range s.order {
		if j.expired(now, s.ttl) {
			s.retireLocked(j, now)
			continue
		}
		kept = append(kept, j)
	}
	clear(s.order[len(kept):])
	s.order = kept
	s.trimLocked(now)
}

// trimLocked retires the oldest finished jobs while the store holds
// more than max. Unfinished jobs are never retired and keep their
// places; the admission queue bounds how many exist, so the walk from
// the head passes at most that many, and a put costs the jobs it
// retires, not the jobs stored.
func (s *jobStore) trimLocked(now time.Time) {
	over := len(s.order) - s.max
	i, unfinished := 0, 0
	for ; over > 0 && i < len(s.order); i++ {
		j := s.order[i]
		if !j.isTerminal() {
			s.order[unfinished] = j
			unfinished++
			continue
		}
		s.retireLocked(j, now)
		over--
	}
	// The unfinished jobs walked past move up to the unwalked rest, and
	// the vacated head slots are cleared so they pin no retired job.
	head := i - unfinished
	copy(s.order[head:i], s.order[:unfinished])
	clear(s.order[:head])
	s.order = s.order[head:]
}

// retireLocked drops j from the indexes and journals its retirement;
// the caller takes it out of order.
func (s *jobStore) retireLocked(j *job, now time.Time) {
	delete(s.jobs, j.id)
	if j.idemKey != "" {
		delete(s.byIdem, j.idemKey)
	}
	s.wal.append(walRecord{Type: recRetired, ID: j.id, At: now})
	s.sm.jobsRetired.Inc()
}
