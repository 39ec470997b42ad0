package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"alchemist"
	"alchemist/internal/api"
	"alchemist/internal/obs"
	"alchemist/internal/progs"
	"alchemist/internal/report"
	"alchemist/internal/xtrace"
)

// Caps on what one request can make the server generate and run.
const (
	// maxMemWords caps a request's mem_words: 1<<24 words (128 MiB), four
	// times the VM default. The VM itself accepts far more, and a request
	// must not be able to make it allocate that much.
	maxMemWords = 1 << 24
	// maxBatchJobs caps a request's input streams or scales: each becomes
	// one batch job, and the engine starts a goroutine per job.
	maxBatchJobs = 64
	// maxScaleFactor caps the sum of a request's workload scales at this
	// many times the workload's DefaultScale (a scale of 0 counts as
	// DefaultScale): input generation grows with the scale.
	maxScaleFactor = 16
)

// checkSpec validates a request's source and names its compile unit;
// w is the selected workload, nil for inline source. It is the one
// check of a request's source on every route, and it generates no
// input (specInputs does, for execution only). All failures are user
// errors.
func checkSpec(sp api.SourceSpec) (name, src string, w *progs.Workload, err error) {
	if sp.MemWords < 0 || sp.MemWords > maxMemWords {
		return "", "", nil, fmt.Errorf("mem_words %d out of range [0, %d]", sp.MemWords, maxMemWords)
	}
	switch {
	case sp.Workload != "" && sp.Source != "":
		return "", "", nil, errors.New("request has both source and workload; pick one")
	case sp.Workload != "":
		if len(sp.Inputs) > 0 {
			return "", "", nil, errors.New("inputs apply to inline source; use scales with a workload")
		}
		if w, err = progs.ByName(sp.Workload); err != nil {
			return "", "", nil, err
		}
		if len(sp.Scales) > maxBatchJobs {
			return "", "", nil, fmt.Errorf("%d scales exceed the limit of %d", len(sp.Scales), maxBatchJobs)
		}
		budget := maxScaleFactor * w.DefaultScale
		for _, sc := range sp.Scales {
			if sc < 0 {
				return "", "", nil, fmt.Errorf("scale %d is negative", sc)
			}
			if sc == 0 {
				sc = w.DefaultScale
			}
			if sc > budget {
				return "", "", nil, fmt.Errorf("scales add up to more than %d (%d times the %s default scale %d)",
					maxScaleFactor*w.DefaultScale, maxScaleFactor, w.Name, w.DefaultScale)
			}
			budget -= sc
		}
		return w.Name + ".mc", w.Source, w, nil
	case sp.Source != "":
		if len(sp.Scales) > 0 {
			return "", "", nil, errors.New("scales apply to workloads; use inputs with inline source")
		}
		if len(sp.Inputs) > maxBatchJobs {
			return "", "", nil, fmt.Errorf("%d input streams exceed the limit of %d", len(sp.Inputs), maxBatchJobs)
		}
		name = sp.Name
		if name == "" {
			name = "request.mc"
		}
		return name, sp.Source, nil, nil
	default:
		return "", "", nil, errors.New("request needs source or workload")
	}
}

// specInputs generates one input stream per batch job of a checked
// spec (a nil stream runs the default input) and the memory cap they
// run under; w is what checkSpec returned.
func specInputs(sp api.SourceSpec, w *progs.Workload) ([][]int64, int64) {
	if w == nil {
		if len(sp.Inputs) == 0 {
			return [][]int64{nil}, sp.MemWords
		}
		return sp.Inputs, sp.MemWords
	}
	scales := sp.Scales
	if len(scales) == 0 {
		scales = []int{0}
	}
	inputs := make([][]int64, len(scales))
	for i, sc := range scales {
		inputs[i] = w.InputFor(sc)
	}
	return inputs, w.MemWords
}

// profileResponse is api.ProfileResponse with the profile typed, so
// that a sync response or a job result encodes it in one pass.
type profileResponse struct {
	Name    string              `json:"name"`
	Jobs    int                 `json:"jobs"`
	Profile *report.JSONProfile `json:"profile"`
	Runs    []api.RunSummary    `json:"runs"`
}

// ---------- sync handlers ----------

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	cl, ok := s.authn(w, r)
	if !ok || !s.allowRate(w, cl) {
		return
	}
	var req api.CompileRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	name, src, _, err := checkSpec(api.SourceSpec{Name: req.Name, Source: req.Source, Workload: req.Workload})
	if err != nil {
		httpError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	prog, err := s.eng.CompileWith(r.Context(), name, src,
		alchemist.CompileOptions{Optimize: req.Optimize})
	if err != nil {
		s.writeExecError(w, userErr(err))
		return
	}
	writeJSON(w, http.StatusOK, api.CompileResponse{
		Name:         name,
		Functions:    len(prog.IR().Funcs),
		Instructions: prog.IR().NumPCs,
	})
}

// handleSync serves POST /v1/profile, /v1/advise and /v1/run: authn →
// rate → decode → check → admit → deadline → execute.
func (s *Server) handleSync(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		cl, ok := s.authn(w, r)
		if !ok || !s.allowRate(w, cl) {
			return
		}
		req, err := decodeSync(r, kind)
		if err != nil {
			s.writeDecodeError(w, err)
			return
		}
		// Check the source before admission, as POST /v1/jobs does, so an
		// invalid body gets 400 even when the queue is full. execute
		// checks again for journal-requeued jobs.
		if _, _, _, err := checkSpec(req.SourceSpec); err != nil {
			s.writeExecError(w, userErr(err))
			return
		}
		timeout := s.timeoutFor(req.TimeoutMS)
		release, ok := s.admitClient(w, cl, timeout)
		if !ok {
			return
		}
		defer release()
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		resp, err := s.execute(ctx, req, nil)
		if err != nil {
			s.writeExecError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// decodeSync decodes a sync route's body as that route's own request
// type, so a run body rejects "top" and a profile or advise body rejects
// "parallel" as unknown fields, and lifts it into a JobRequest of kind.
func decodeSync(r *http.Request, kind string) (api.JobRequest, error) {
	if kind == "run" {
		var rr api.RunRequest
		err := decodeJSON(r, &rr)
		return api.JobRequest{Kind: kind, SourceSpec: rr.SourceSpec, TimeoutMS: rr.TimeoutMS, Parallel: rr.Parallel}, err
	}
	var pr api.ProfileRequest
	err := decodeJSON(r, &pr)
	return api.JobRequest{Kind: kind, SourceSpec: pr.SourceSpec, TimeoutMS: pr.TimeoutMS, Top: pr.Top}, err
}

// ---------- work execution (shared by sync handlers and async jobs) ----------

// execute runs one request of any kind on the shared engine: it checks
// the spec, compiles once, fans one batch job per input out through
// RunBatch ("run") or ProfileBatch ("profile", "advise"), and shapes the
// response by kind. Profiling ignores Parallel and plain runs ignore
// Top. onProgress, when non-nil, receives every batch job's step
// reports.
func (s *Server) execute(ctx context.Context, req api.JobRequest, onProgress func(batchJob int, steps int64)) (any, error) {
	name, src, wl, err := checkSpec(req.SourceSpec)
	if err != nil {
		return nil, userErr(err)
	}
	prog, err := s.eng.CompileWith(ctx, name, src,
		alchemist.CompileOptions{Optimize: req.Optimize})
	if err != nil {
		return nil, userErr(err)
	}
	inputs, memWords := specInputs(req.SourceSpec, wl)
	cfgs := make([]alchemist.ProfileConfig, len(inputs))
	for i, in := range inputs {
		cfgs[i].Input, cfgs[i].MemWords = in, memWords
		if onProgress != nil {
			cfgs[i].OnProgress = func(steps int64) { onProgress(i, steps) }
		}
	}

	if req.Kind == "run" {
		rjobs := make([]alchemist.RunJob, len(cfgs))
		for i := range cfgs {
			cfgs[i].Parallel = req.Parallel
			rjobs[i].Config = &cfgs[i].RunConfig
		}
		results, err := s.eng.RunBatch(ctx, prog, rjobs)
		if err != nil {
			return nil, err
		}
		return &api.RunResponse{Name: name, Jobs: len(rjobs), Runs: summarize(results)}, nil
	}

	pjobs := make([]alchemist.ProfileJob, len(cfgs))
	for i := range cfgs {
		pjobs[i].Config = &cfgs[i]
	}
	merged, results, err := s.eng.ProfileBatch(ctx, prog, pjobs)
	if err != nil {
		return nil, err
	}
	if req.Kind == "advise" {
		return advice(name, len(pjobs), merged, req.Top), nil
	}
	resp := &profileResponse{
		Name:    name,
		Jobs:    len(pjobs),
		Profile: report.ToJSON(merged),
		Runs:    summarize(results),
	}
	if req.Top > 0 && len(resp.Profile.Constructs) > req.Top {
		resp.Profile.Constructs = resp.Profile.Constructs[:req.Top]
	}
	return resp, nil
}

// advice ranks the merged profile's constructs for an advise response,
// keeping the top N (default 8).
func advice(name string, jobs int, merged *alchemist.Profile, top int) *api.AdviseResponse {
	if top <= 0 {
		top = 8
	}
	resp := &api.AdviseResponse{Name: name, Jobs: jobs}
	for _, rep := range alchemist.Advise(merged) {
		if len(resp.Reports) >= top {
			break
		}
		aj := api.AdviceReport{
			Label:          rep.Construct.Label,
			Name:           report.ConstructName(rep.Construct),
			Kind:           rep.Construct.Kind.String(),
			Line:           rep.Construct.Pos.Line,
			Func:           rep.Construct.FuncName,
			Parallelizable: rep.Parallelizable,
			Score:          rep.Score,
		}
		for _, a := range rep.Advices {
			aj.Advice = append(aj.Advice, api.AdviceItem{Action: a.Action.String(), Text: a.Text})
		}
		resp.Reports = append(resp.Reports, aj)
	}
	return resp
}

// summarize converts the batch's run results to their wire form,
// capping each output at 64 words.
func summarize(results []alchemist.BatchResult) []api.RunSummary {
	sums := make([]api.RunSummary, len(results))
	for i, r := range results {
		sums[i] = api.RunSummary{Job: r.Job}
		if r.Run == nil {
			continue
		}
		sums[i].Steps = r.Run.Steps
		sums[i].Ret = r.Run.Ret
		sums[i].OutputLen = len(r.Run.Output)
		sums[i].Output = r.Run.Output[:min(len(r.Run.Output), 64)]
	}
	return sums
}

// ---------- async jobs ----------

// writeIdemReplay answers a replayed Idempotency-Key: 200 (not 202)
// with the existing job and the idempotent_replay marker.
func (s *Server) writeIdemReplay(w http.ResponseWriter, j *job) {
	s.sm.idemReplays.Inc()
	st := j.status(false)
	st.IdempotentReplay = true
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		// Draining is transient: a well-behaved client should back off
		// and retry against the replacement process, so the 503 carries
		// the same retry hints as the 429 paths.
		s.writeRetryable(w, http.StatusServiceUnavailable, s.opts.RetryAfter,
			CodeDraining, "server is draining; not accepting new jobs")
		return
	}
	cl, ok := s.authn(w, r)
	if !ok || !s.allowRate(w, cl) {
		return
	}
	// A replayed Idempotency-Key returns the existing job before any
	// decoding or admission: the first submission's outcome stands,
	// whatever the retry's body says.
	idemKey := r.Header.Get("Idempotency-Key")
	if j := s.store.getIdem(idemKey); j != nil {
		s.writeIdemReplay(w, j)
		return
	}
	var req api.JobRequest
	if err := decodeJSON(r, &req); err != nil {
		s.writeDecodeError(w, err)
		return
	}
	switch req.Kind {
	case "profile", "advise", "run":
	default:
		httpError(w, http.StatusBadRequest, CodeBadRequest, "unknown job kind %q (want profile, advise, or run)", req.Kind)
		return
	}
	// Check the source before paying for an admission slot, so typos
	// fail fast with 400 rather than occupying the queue.
	if _, _, _, err := checkSpec(req.SourceSpec); err != nil {
		httpError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	admitStart := time.Now()
	release, ok := s.admitClient(w, cl, s.timeoutFor(req.TimeoutMS))
	if !ok {
		return
	}
	admitEnd := time.Now()
	// The canonicalized request is journaled with the job so a crash
	// recovery can re-enqueue it.
	reqRaw, err := json.Marshal(req)
	if err != nil {
		release()
		httpError(w, http.StatusInternalServerError, CodeInternal, "encoding request: %v", err)
		return
	}
	j := newJob(req.Kind, reqRaw, idemKey, s.wal)
	// The job adopts the submitting request's trace: its whole timeline
	// shares one trace ID, parented under the request's root span. An
	// SDK retry replays via Idempotency-Key above, so the first
	// submission's trace stands.
	if sc := xtrace.SpanContextFrom(r.Context()); sc.Valid() {
		j.trace = sc
	}
	if winner := s.store.putOrIdem(j); winner != j {
		// Two racing submissions shared the key; the loser's job has no
		// journal footprint yet and is simply dropped.
		release()
		s.writeIdemReplay(w, winner)
		return
	}
	j.enqueue()
	if j.trace.Valid() {
		j.RecordSpan(xtrace.MakeRecord(j.trace.TraceID, j.trace.SpanID,
			"admit", admitStart, admitEnd, nil))
	}
	s.sm.jobsCreated.Inc()
	s.sm.jobsActive.Add(1)
	s.startJob(j, req, release)
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.status(false))
}

// startJob runs the job on its own goroutine, holding the admission
// slot until it finishes. The job's deadline hangs off the server's
// lifetime context, not the creating request: the client can disconnect
// and poll later.
func (s *Server) startJob(j *job, req api.JobRequest, release func()) {
	ctx, cancel := context.WithTimeout(s.lifeCtx, s.timeoutFor(req.TimeoutMS))
	if j.trace.Valid() {
		// Engine spans (compile cache hit/miss/coalesced, per-scale
		// profile/run) started under this context end into both the
		// tracer's retention and the job's persisted timeline.
		ctx = xtrace.ContextWithTracer(ctx, s.tracer)
		ctx = xtrace.ContextWithSpanContext(ctx, j.trace)
		ctx = xtrace.ContextWithRecorder(ctx, j)
	}
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	onProgress := func(batchJob int, steps int64) {
		j.reportProgress(batchJob, steps, s.opts.ProgressInterval)
	}
	s.jobWG.Add(1)
	go func() {
		defer s.jobWG.Done()
		defer release()
		defer cancel()
		// pprof labels attribute CPU samples from this job — and from
		// the engine worker goroutines it fans out to, which inherit
		// the labels — back to the job id and endpoint.
		pprof.Do(ctx, pprof.Labels("job_id", j.id, "endpoint", j.kind), func(ctx context.Context) {
			queuedAt := j.created
			j.setRunning()
			if j.trace.Valid() {
				j.RecordSpan(xtrace.MakeRecord(j.trace.TraceID, j.trace.SpanID,
					"queue", queuedAt, time.Now(), nil))
			}
			j.finish(s.execute(ctx, req, onProgress))
			s.sm.jobsActive.Add(-1)
		})
	}()
}

const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// encodeCursor renders a pagination cursor naming the last returned
// job. The ordering key is (created_at, id), which is stable: recovery
// preserves creation times and ids, and retirement between pages only
// removes rows.
func encodeCursor(st api.JobStatus) string {
	return base64.RawURLEncoding.EncodeToString(
		[]byte(fmt.Sprintf("v1:%d:%s", st.CreatedAt.UnixNano(), st.ID)))
}

// decodeCursor parses a page token back into its ordering key.
func decodeCursor(tok string) (createdNS int64, id string, err error) {
	raw, err := base64.RawURLEncoding.DecodeString(tok)
	if err != nil {
		return 0, "", err
	}
	parts := strings.SplitN(string(raw), ":", 3)
	if len(parts) != 3 || parts[0] != "v1" {
		return 0, "", errors.New("malformed token")
	}
	createdNS, err = strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return 0, "", err
	}
	return createdNS, parts[2], nil
}

// handleJobList serves GET /v1/jobs with a state= filter, a limit=
// page size, and cursor-based page_token= pagination over the stable
// (created_at, id) ordering.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.authn(w, r); !ok {
		return
	}
	q := r.URL.Query()

	var filter api.JobState
	if st := q.Get("state"); st != "" {
		filter = api.JobState(st)
		if !validJobState(filter) {
			httpError(w, http.StatusBadRequest, CodeBadRequest,
				"unknown state %q (want queued, running, succeeded, failed, or interrupted)", st)
			return
		}
	}
	limit := defaultListLimit
	if ls := q.Get("limit"); ls != "" {
		v, err := strconv.Atoi(ls)
		if err != nil || v <= 0 {
			httpError(w, http.StatusBadRequest, CodeBadRequest, "limit must be a positive integer, got %q", ls)
			return
		}
		limit = min(v, maxListLimit)
	}
	var afterNS int64
	var afterID string
	hasCursor := false
	if tok := q.Get("page_token"); tok != "" {
		var err error
		afterNS, afterID, err = decodeCursor(tok)
		if err != nil {
			httpError(w, http.StatusBadRequest, CodeBadRequest, "invalid page_token")
			return
		}
		hasCursor = true
	}

	// The list is in cursor order, and a job's creation time and id never
	// change, so the jobs after the cursor are a suffix of it. Only the
	// jobs of the page, and the one that shows another page follows,
	// pay for a status.
	jobs := s.store.list()
	if hasCursor {
		jobs = jobs[sort.Search(len(jobs), func(i int) bool {
			ns := jobs[i].created.UnixNano()
			return ns > afterNS || ns == afterNS && jobs[i].id > afterID
		}):]
	}
	out := api.JobList{Jobs: make([]api.JobStatus, 0, limit)}
	for _, j := range jobs {
		st, ok := j.listStatus(filter)
		if !ok {
			continue
		}
		if len(out.Jobs) == limit {
			out.NextPageToken = encodeCursor(out.Jobs[limit-1])
			break
		}
		out.Jobs = append(out.Jobs, st)
	}
	writeJSON(w, http.StatusOK, out)
}

// lookupJob authenticates the request and finds the job its {id} path
// names. On failure it has already answered (401, or 404
// job_not_found) and returns nil.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) *job {
	if _, ok := s.authn(w, r); !ok {
		return nil
	}
	j := s.store.get(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, CodeJobNotFound, "no such job %q", r.PathValue("id"))
	}
	return j
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.status(true))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	writeJSON(w, http.StatusOK, j.status(false))
}

// handleJobEvents streams the job's event log as Server-Sent Events:
// every past event is replayed in order, then live events as they
// happen, ending after the terminal state event. A Last-Event-ID header
// (the SSE reconnect convention; the stream's id: field carries the
// event Seq) resumes from the first unseen event instead of replaying
// the whole log. Idle streams emit a ": keepalive" comment every
// SSEKeepAlive so proxy idle timeouts do not cut them.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	next := 0
	if lid := r.Header.Get("Last-Event-ID"); lid != "" {
		n, err := strconv.Atoi(lid)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, CodeBadRequest, "malformed Last-Event-ID %q (want a non-negative event seq)", lid)
			return
		}
		next = n + 1
		s.sm.sseResumed.Inc()
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, CodeInternal, "streaming unsupported by this connection")
		return
	}
	s.sm.sseStreams.Inc()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// The stream interval lands in the job's span timeline when it
	// closes: how long delivery was attached, how many events it moved,
	// and whether it was a Last-Event-ID resume.
	streamStart := time.Now()
	resumed := next > 0
	sent := 0
	defer func() {
		if j.trace.Valid() {
			j.RecordSpan(xtrace.MakeRecord(j.trace.TraceID, j.trace.SpanID,
				"sse", streamStart, time.Now(), map[string]string{
					"events":  strconv.Itoa(sent),
					"resumed": strconv.FormatBool(resumed),
				}))
		}
	}()

	// A client disconnect must unblock waitEvents.
	stop := context.AfterFunc(r.Context(), j.wake)
	defer stop()

	for {
		evs, done, timedOut := j.waitEvents(r.Context(), next, s.opts.SSEKeepAlive)
		if r.Context().Err() != nil {
			return
		}
		if timedOut {
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return
			}
			fl.Flush()
			continue
		}
		for _, ev := range evs {
			if err := writeSSE(w, ev); err != nil {
				return
			}
		}
		fl.Flush()
		next += len(evs)
		sent += len(evs)
		if done {
			return
		}
	}
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	resp := api.JobTrace{
		ID:           j.id,
		State:        j.state,
		TraceID:      j.traceID(),
		Spans:        append([]xtrace.SpanRecord(nil), j.spans...),
		DroppedSpans: j.spansDropped,
	}
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// VersionResponse is the body of GET /v1/version.
type VersionResponse struct {
	Service string `json:"service"`
	obs.BuildInfo
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, VersionResponse{Service: "alchemist", BuildInfo: s.build})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	state := "ok"
	if s.isDraining() {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, struct {
		Status    string        `json:"status"`
		Workers   int           `json:"workers"`
		Queue     int           `json:"queue_capacity"`
		Durable   bool          `json:"durable"`
		Build     obs.BuildInfo `json:"build"`
		Workloads []string      `json:"workloads"`
	}{
		Status:  state,
		Workers: s.eng.Workers(),
		Queue:   s.opts.QueueDepth,
		Durable: s.wal != nil,
		Build:   s.build,
		Workloads: func() []string {
			var names []string
			for _, wl := range progs.All() {
				names = append(names, wl.Name)
			}
			return names
		}(),
	})
}

// ---------- error mapping ----------

// writeDecodeError maps body-parse failures: 413 for oversized bodies,
// 400 otherwise.
func (s *Server) writeDecodeError(w http.ResponseWriter, err error) {
	if isMaxBytes(err) {
		httpError(w, http.StatusRequestEntityTooLarge, CodeBodyTooLarge,
			"request body exceeds %d bytes", s.opts.MaxBodyBytes)
		return
	}
	httpError(w, http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err)
}

// writeExecError maps work failures onto statuses: 400 for user errors
// (bad source), 504 for deadline expiry, 503 for cancellation (server
// shutdown; retryable, so it carries the Retry-After hints), 500
// otherwise.
func (s *Server) writeExecError(w http.ResponseWriter, err error) {
	var ue *userError
	switch {
	case errors.As(err, &ue):
		httpError(w, http.StatusBadRequest, CodeBadRequest, "%v", ue.err)
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, CodeDeadlineExceeded, "%v", err)
	case errors.Is(err, context.Canceled):
		s.writeRetryable(w, http.StatusServiceUnavailable, s.opts.RetryAfter, CodeCanceled, "%v", err)
	default:
		httpError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
	}
}

// writeSSE writes one event in text/event-stream framing. The event
// type doubles as the SSE event name so EventSource listeners can
// subscribe per type; the JSON payload repeats it for plain readers.
func writeSSE(w http.ResponseWriter, ev api.Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\nid: %d\ndata: %s\n\n", ev.Type, ev.Seq, data)
	return err
}
