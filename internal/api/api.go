// Package api declares the v1 wire protocol of the alchemist service
// once: every JSON body that internal/server decodes and encodes, and
// that the client SDK (alchemist/client, which re-exports these types
// as aliases) sends and receives. It imports only the standard library
// and internal/xtrace, so the SDK links neither the server, the
// profiler, nor internal/obs.
//
// Field order is wire order: encoding/json writes fields as declared,
// so reordering a struct changes every body it appears in.
package api

import (
	"encoding/json"
	"time"

	"alchemist/internal/xtrace"
)

// SourceSpec names the program and input suite a request operates on:
// either inline mini-C source (with optional explicit input streams) or
// an embedded workload (with optional input scales). One profiling or
// run job is created per input stream or scale; with neither, a single
// job with the default input.
type SourceSpec struct {
	// Name labels inline source in diagnostics (default "request.mc").
	Name string `json:"name,omitempty"`
	// Source is inline mini-C source text. Exactly one of Source /
	// Workload must be set.
	Source string `json:"source,omitempty"`
	// Workload selects an embedded workload by name (see GET /healthz
	// or `alchemist list` for names).
	Workload string `json:"workload,omitempty"`
	// Inputs are explicit input streams, one batch job per stream
	// (inline source only). The server refuses more than 64.
	Inputs [][]int64 `json:"inputs,omitempty"`
	// Scales are workload input scales, one batch job per scale
	// (workloads only). The server refuses more than 64, a negative
	// scale, and scales adding up to more than 16 times the workload's
	// default scale (0 counts as the default).
	Scales []int `json:"scales,omitempty"`
	// Optimize compiles with the optimization passes.
	Optimize bool `json:"optimize,omitempty"`
	// MemWords overrides the VM memory cap (inline source only;
	// workloads bring their own). The server refuses values below 0 or
	// above 1<<24 words.
	MemWords int64 `json:"mem_words,omitempty"`
}

// CompileRequest is the body of POST /v1/compile.
type CompileRequest struct {
	Name     string `json:"name,omitempty"`
	Source   string `json:"source,omitempty"`
	Workload string `json:"workload,omitempty"`
	Optimize bool   `json:"optimize,omitempty"`
}

// CompileResponse reports the compiled program's shape. Compiling
// through the API warms the server's program cache, so a later profile
// of the same source skips the pipeline.
type CompileResponse struct {
	Name         string `json:"name"`
	Functions    int    `json:"functions"`
	Instructions int    `json:"instructions"`
}

// ProfileRequest is the body of POST /v1/profile and POST /v1/advise.
type ProfileRequest struct {
	SourceSpec
	// TimeoutMS bounds the work's wall-clock time (default: the
	// server's default timeout, clamped to its maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Top truncates the response to the N hottest constructs (0 = all).
	Top int `json:"top,omitempty"`
}

// RunSummary is one batch job's execution outcome.
type RunSummary struct {
	Job   int   `json:"job"`
	Steps int64 `json:"steps"`
	Ret   int64 `json:"ret"`
	// Output holds up to 64 words of out() output; OutputLen is the
	// full length.
	Output    []int64 `json:"output,omitempty"`
	OutputLen int     `json:"output_len"`
}

// ProfileResponse carries the union profile over the input suite. The
// profile payload is left raw: decode it into your own structure, or
// feed it to tooling as-is.
type ProfileResponse struct {
	Name    string          `json:"name"`
	Jobs    int             `json:"jobs"`
	Profile json.RawMessage `json:"profile"`
	Runs    []RunSummary    `json:"runs"`
}

// AdviceItem is one transformation suggestion.
type AdviceItem struct {
	Action string `json:"action"`
	Text   string `json:"text"`
}

// AdviceReport is the advisor's judgment of one construct.
type AdviceReport struct {
	Label          int          `json:"label"`
	Name           string       `json:"name"`
	Kind           string       `json:"kind"`
	Line           int          `json:"line"`
	Func           string       `json:"func"`
	Parallelizable bool         `json:"parallelizable"`
	Score          float64      `json:"score"`
	Advice         []AdviceItem `json:"advice"`
}

// AdviseResponse is the ranked guidance for the profiled suite.
type AdviseResponse struct {
	Name    string         `json:"name"`
	Jobs    int            `json:"jobs"`
	Reports []AdviceReport `json:"reports"`
}

// RunRequest is the body of POST /v1/run.
type RunRequest struct {
	SourceSpec
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Parallel executes spawn statements on goroutines.
	Parallel bool `json:"parallel,omitempty"`
}

// RunResponse carries the per-job execution outcomes.
type RunResponse struct {
	Name string       `json:"name"`
	Jobs int          `json:"jobs"`
	Runs []RunSummary `json:"runs"`
}

// JobRequest is the body of POST /v1/jobs: the union of the sync
// request shapes plus the kind discriminator.
type JobRequest struct {
	// Kind selects the work: "profile", "advise", or "run".
	Kind string `json:"kind"`
	SourceSpec
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	Top       int   `json:"top,omitempty"`
	Parallel  bool  `json:"parallel,omitempty"`
}

// JobState is the lifecycle of an async job. Transitions are strictly
// queued → running → (succeeded | failed); failed covers errors,
// deadline expiry, and cancellation. A job that a durable server's
// journal shows as queued or running after a crash is recovered as
// interrupted (or re-enqueued when the server opts into
// requeue-on-recovery).
type JobState string

const (
	JobQueued      JobState = "queued"
	JobRunning     JobState = "running"
	JobSucceeded   JobState = "succeeded"
	JobFailed      JobState = "failed"
	JobInterrupted JobState = "interrupted"
)

// Terminal reports whether the state is final.
func (st JobState) Terminal() bool {
	return st == JobSucceeded || st == JobFailed || st == JobInterrupted
}

// JobProgress is one batch job's progress snapshot.
type JobProgress struct {
	Job   int   `json:"job"`
	Steps int64 `json:"steps"`
	Done  bool  `json:"done"`
}

// JobStatus is the wire form of an async job.
type JobStatus struct {
	ID         string        `json:"id"`
	Kind       string        `json:"kind"`
	State      JobState      `json:"state"`
	CreatedAt  time.Time     `json:"created_at"`
	StartedAt  *time.Time    `json:"started_at,omitempty"`
	FinishedAt *time.Time    `json:"finished_at,omitempty"`
	Error      string        `json:"error,omitempty"`
	Progress   []JobProgress `json:"progress,omitempty"`
	TotalSteps int64         `json:"total_steps"`
	// Result is the job's result payload, the body its kind's sync
	// route would have answered. It is set on succeeded jobs fetched
	// by ID (GET /v1/jobs/{id}).
	Result json.RawMessage `json:"result,omitempty"`
	// TraceID is the W3C trace ID the job's span timeline records under
	// (the submitting request's trace, when it carried one); the
	// timeline is at GET /v1/jobs/{id}/trace.
	TraceID string `json:"trace_id,omitempty"`
	// Spans counts the timeline entries recorded so far.
	Spans int `json:"spans,omitempty"`
	// IdempotentReplay marks a POST /v1/jobs response that returned an
	// existing job because its Idempotency-Key had been seen before.
	IdempotentReplay bool `json:"idempotent_replay,omitempty"`
}

// JobTrace is the body of GET /v1/jobs/{id}/trace: the job's persisted
// span timeline, which survives server restarts alongside the event
// log.
type JobTrace struct {
	ID      string   `json:"id"`
	State   JobState `json:"state"`
	TraceID string   `json:"trace_id,omitempty"`
	// Spans is the timeline in recording order: admit, queue, compile,
	// per-scale profile/run spans, journal appends, SSE deliveries.
	Spans []xtrace.SpanRecord `json:"spans"`
	// DroppedSpans counts spans discarded past the server's per-job cap.
	DroppedSpans int `json:"dropped_spans,omitempty"`
}

// JobList is the paginated body of GET /v1/jobs.
type JobList struct {
	Jobs []JobStatus `json:"jobs"`
	// NextPageToken continues the listing when more jobs remain; pass
	// it back as ?page_token=. Absent on the last page.
	NextPageToken string `json:"next_page_token,omitempty"`
}

// Event is one entry in a job's ordered event log, streamed over SSE
// and journaled. Seq increases by one per event within a job; the SSE
// stream's id: field carries it, which is what makes resumption exact.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "state" or "progress"
	// State is set on "state" events.
	State JobState `json:"state,omitempty"`
	// Error carries the failure message on the terminal "failed" (or
	// "interrupted") event.
	Error string `json:"error,omitempty"`
	// Job, Steps, and TotalSteps are set on "progress" events: the
	// batch-job index that reported, its executed-step count, and the
	// step total across every batch job so far.
	Job        int   `json:"job,omitempty"`
	Steps      int64 `json:"steps,omitempty"`
	TotalSteps int64 `json:"total_steps,omitempty"`
}

// Terminal reports whether the event ends its job's stream.
func (ev Event) Terminal() bool {
	return ev.Type == "state" && ev.State.Terminal()
}

// ErrorEnvelope is the body of every non-2xx response:
// {"error": {"code", "message", "retry_after_ms"?}}.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the payload of the error envelope.
type ErrorBody struct {
	// Code is the machine-readable error code ("bad_request",
	// "queue_saturated", "rate_limited", ...): a closed set that only
	// grows.
	Code string `json:"code"`
	// Message is the human-readable explanation.
	Message string `json:"message"`
	// RetryAfterMS hints when to retry, on retryable errors.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}
