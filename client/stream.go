package client

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"alchemist/internal/xtrace"
)

// EventStream follows one job's SSE event log. It reconnects on
// connection cuts and transient server errors, resuming with
// Last-Event-ID so no event is lost, and deduplicates on Seq so no
// event is delivered twice. After the terminal event has been returned,
// Next returns io.EOF.
type EventStream struct {
	c     *Client
	jobID string

	// traceID groups every connection attempt of this stream — including
	// resumes after cuts — into one trace on the server.
	traceID xtrace.TraceID

	// next is the Seq the caller has not seen yet; reconnects ask the
	// server to resume from it.
	next int

	body    io.ReadCloser
	scanner *bufio.Scanner
	done    bool
	err     error
}

// StreamEvents opens a resumable event stream for a job, starting at
// event seq `from` (0 streams the whole log). The connection is made
// lazily on the first Next call.
func (c *Client) StreamEvents(jobID string, from int) *EventStream {
	if from < 0 {
		from = 0
	}
	return &EventStream{c: c, jobID: jobID, next: from, traceID: xtrace.NewTraceID()}
}

// Next blocks until the next unseen event arrives and returns it.
// Connection cuts and retryable server errors are healed internally by
// reconnecting with Last-Event-ID; the caller only sees the gap-free
// event sequence. After the terminal event, Next returns io.EOF. A
// non-retryable error (bad job ID, context cancellation, retry budget
// exhausted) is returned as-is and is sticky.
func (es *EventStream) Next(ctx context.Context) (Event, error) {
	if es.err != nil {
		return Event{}, es.err
	}
	if es.done {
		es.err = io.EOF
		return Event{}, io.EOF
	}
	ev, err := es.next1(ctx)
	if err != nil {
		es.err = err
		es.disconnect()
		return Event{}, err
	}
	if ev.Terminal() {
		es.done = true
		es.disconnect()
	}
	return ev, nil
}

// next1 reads events until one with Seq >= es.next shows up,
// reconnecting across failures. Replayed events below es.next (the
// server resends from an older point, or our Last-Event-ID raced a
// cut) are skipped silently.
func (es *EventStream) next1(ctx context.Context) (Event, error) {
	attempt := 0
	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			return Event{}, err
		}
		if es.body == nil {
			if attempt >= es.c.maxAttempts {
				return Event{}, fmt.Errorf("alchemist api: event stream for job %s: giving up after %d attempts: %w", es.jobID, attempt, lastErr)
			}
			if attempt > 0 {
				var hint time.Duration
				var ae *APIError
				if errors.As(lastErr, &ae) {
					hint = ae.RetryAfter
				}
				if err := es.c.sleep(ctx, es.c.backoff(attempt-1, hint)); err != nil {
					return Event{}, err
				}
			}
			attempt++
			if err := es.connect(ctx); err != nil {
				var ae *APIError
				if errors.As(err, &ae) && !ae.Temporary() {
					return Event{}, err
				}
				lastErr = err
				continue
			}
		}
		ev, err := es.readEvent()
		if err != nil {
			// Mid-stream cut: reconnect and resume. The successful
			// connection does not reset the budget to zero outright, but
			// delivering an event does (below), so a flapping link that
			// still makes progress is never abandoned.
			es.disconnect()
			lastErr = fmt.Errorf("alchemist api: event stream for job %s cut: %w", es.jobID, err)
			continue
		}
		if ev.Seq < es.next {
			continue // replay of an event we already delivered
		}
		es.next = ev.Seq + 1
		return ev, nil
	}
}

// connect opens the SSE response, resuming from es.next.
func (es *EventStream) connect(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, es.c.base+"/v1/jobs/"+es.jobID+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set(xtrace.TraceparentHeader, traceparent(es.traceID))
	if es.c.apiKey != "" {
		req.Header.Set("X-Api-Key", es.c.apiKey)
	}
	if es.next > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(es.next-1))
	}
	resp, err := es.c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("alchemist api: connecting event stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		return decodeError(resp, body)
	}
	es.body = resp.Body
	// An event is one short JSON line: the scanner starts at its small
	// default buffer and grows only for a long line, up to 1 MiB.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	es.scanner = sc
	return nil
}

// readEvent parses one SSE event from the open stream. Keepalive
// comments and unknown fields are skipped per the SSE grammar.
func (es *EventStream) readEvent() (Event, error) {
	var data strings.Builder
	sawData := false
	for es.scanner.Scan() {
		line := es.scanner.Text()
		switch {
		case line == "":
			if !sawData {
				continue // e.g. the blank line after a ": keepalive" comment
			}
			var ev Event
			if err := json.Unmarshal([]byte(data.String()), &ev); err != nil {
				return Event{}, fmt.Errorf("decoding event payload: %w", err)
			}
			return ev, nil
		case strings.HasPrefix(line, ":"):
			// comment (keepalive)
		case strings.HasPrefix(line, "data:"):
			if sawData {
				data.WriteByte('\n')
			}
			sawData = true
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		default:
			// event:/id: lines — the payload repeats both, so nothing to do.
		}
	}
	if err := es.scanner.Err(); err != nil {
		return Event{}, err
	}
	return Event{}, io.ErrUnexpectedEOF
}

func (es *EventStream) disconnect() {
	if es.body != nil {
		es.body.Close()
		es.body = nil
		es.scanner = nil
	}
}

// Close releases the stream's connection. Next returns the prior sticky
// error, or io.EOF, afterwards.
func (es *EventStream) Close() error {
	es.disconnect()
	if !es.done && es.err == nil {
		es.err = errors.New("alchemist api: event stream closed")
	}
	return nil
}
