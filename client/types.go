package client

import (
	"fmt"
	"time"

	"alchemist/internal/api"
	"alchemist/internal/xtrace"
)

// The v1 wire types are declared once, in internal/api, where the
// server encodes and decodes the same structs. These aliases make them
// the SDK's own names, so a consumer never imports an internal package.
type (
	// SourceSpec names the program and input suite a request operates
	// on: inline mini-C source or an embedded workload.
	SourceSpec = api.SourceSpec
	// CompileRequest is the body of POST /v1/compile.
	CompileRequest = api.CompileRequest
	// CompileResponse reports the compiled program's shape.
	CompileResponse = api.CompileResponse
	// ProfileRequest is the body of POST /v1/profile and /v1/advise.
	ProfileRequest = api.ProfileRequest
	// RunSummary is one batch job's execution outcome.
	RunSummary = api.RunSummary
	// ProfileResponse carries the union profile over the input suite,
	// with the profile payload left raw.
	ProfileResponse = api.ProfileResponse
	// AdviceItem is one transformation suggestion.
	AdviceItem = api.AdviceItem
	// AdviceReport is the advisor's judgment of one construct.
	AdviceReport = api.AdviceReport
	// AdviseResponse is the ranked guidance for the profiled suite.
	AdviseResponse = api.AdviseResponse
	// RunRequest is the body of POST /v1/run.
	RunRequest = api.RunRequest
	// RunResponse carries the per-job execution outcomes.
	RunResponse = api.RunResponse
	// JobRequest is the body of POST /v1/jobs.
	JobRequest = api.JobRequest
	// JobState is the lifecycle of an async job.
	JobState = api.JobState
	// JobProgress is one batch job's progress snapshot.
	JobProgress = api.JobProgress
	// JobStatus is the wire form of an async job; Result holds the
	// raw result payload of a succeeded job fetched via Job or
	// SubmitAndWait.
	JobStatus = api.JobStatus
	// SpanRecord is one finished span in a job's trace timeline.
	SpanRecord = xtrace.SpanRecord
	// JobTrace is the body of GET /v1/jobs/{id}/trace.
	JobTrace = api.JobTrace
	// JobList is the paginated body of GET /v1/jobs.
	JobList = api.JobList
	// Event is one entry in a job's ordered event log.
	Event = api.Event
)

// Job states.
const (
	JobQueued      = api.JobQueued
	JobRunning     = api.JobRunning
	JobSucceeded   = api.JobSucceeded
	JobFailed      = api.JobFailed
	JobInterrupted = api.JobInterrupted
)

// APIError is a non-2xx response decoded from the server's uniform
// error envelope {"error": {"code", "message", "retry_after_ms"?}}.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable error code ("rate_limited",
	// "quota_exceeded", "queue_saturated", ...).
	Code string
	// Message is the human-readable explanation.
	Message string
	// RetryAfter is the server's backoff hint (from the Retry-After
	// header or retry_after_ms in the envelope), 0 if absent.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("alchemist api: %d %s: %s", e.Status, e.Code, e.Message)
}

// Temporary reports whether the request may succeed if retried: 429,
// 503, and every other 5xx.
func (e *APIError) Temporary() bool {
	return e.Status == 429 || e.Status >= 500
}
