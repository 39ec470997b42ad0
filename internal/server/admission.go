package server

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"alchemist/internal/api"
)

// AnonymousClient is the identity assigned to requests that carry no
// X-Api-Key header. With no APIKeys configured every request is
// anonymous and the per-client limits apply to that one shared bucket.
const AnonymousClient = "anonymous"

// clientState is one client's live admission accounting: a token
// bucket for its request rate and a count of its admitted-but-
// unfinished units of work.
type clientState struct {
	name string

	mu     sync.Mutex
	tokens float64   // current token-bucket fill
	last   time.Time // last bucket refill
	// inflight counts admitted units of work (sync requests + async
	// jobs) that have not released their slot yet.
	inflight int
}

// admission owns the per-client half of the admission path: identity,
// rate limits, quotas, and the execution-time estimate behind deadline
// shedding. The shared queue (Server.admit) stays where it was; this
// layer runs ahead of it so one greedy client cannot occupy every slot.
type admission struct {
	keys  map[string]string // api key -> client name; empty = open mode
	rate  float64           // tokens/second per client; <= 0 disables
	burst float64           // bucket capacity
	quota int               // concurrent units per client; <= 0 disables
	shed  bool              // deadline-feasibility load shedding

	mu      sync.Mutex
	clients map[string]*clientState

	// avgSec is an EWMA of admitted-work durations (admission to
	// release, seconds), the service-time estimate behind shedding.
	durMu  sync.Mutex
	avgSec float64
}

func newAdmission(o Options) *admission {
	a := &admission{
		keys:    o.APIKeys,
		rate:    o.RatePerSec,
		burst:   float64(o.RateBurst),
		quota:   o.ClientQuota,
		shed:    o.ShedDeadlines,
		clients: make(map[string]*clientState),
	}
	return a
}

// identify resolves a request's API key to a client. An empty key is
// the anonymous client; an unknown key (with APIKeys configured) is
// rejected. Without configured keys the header is ignored entirely —
// the server runs open, exactly as before.
func (a *admission) identify(key string) (*clientState, bool) {
	name := AnonymousClient
	if len(a.keys) > 0 && key != "" {
		n, ok := a.keys[key]
		if !ok {
			return nil, false
		}
		name = n
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	cl := a.clients[name]
	if cl == nil {
		cl = &clientState{name: name, tokens: a.burst}
		a.clients[name] = cl
	}
	return cl, true
}

// takeToken spends one rate-limit token from the client's bucket. When
// the bucket is empty it reports how long until the next token accrues,
// which becomes the honest Retry-After.
func (a *admission) takeToken(cl *clientState) (time.Duration, bool) {
	if a.rate <= 0 {
		return 0, true
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	now := time.Now()
	if cl.last.IsZero() {
		cl.tokens = a.burst
	} else {
		cl.tokens += now.Sub(cl.last).Seconds() * a.rate
		if cl.tokens > a.burst {
			cl.tokens = a.burst
		}
	}
	cl.last = now
	if cl.tokens >= 1 {
		cl.tokens--
		return 0, true
	}
	wait := time.Duration((1 - cl.tokens) / a.rate * float64(time.Second))
	return wait, false
}

// reserve claims one unit of the client's concurrency quota.
func (a *admission) reserve(cl *clientState) bool {
	if a.quota <= 0 {
		return true
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.inflight >= a.quota {
		return false
	}
	cl.inflight++
	return true
}

// release returns one quota unit.
func (a *admission) release(cl *clientState) {
	if a.quota <= 0 {
		return
	}
	cl.mu.Lock()
	cl.inflight--
	cl.mu.Unlock()
}

// observe feeds one completed unit's admission-to-release duration into
// the service-time EWMA (alpha 0.2: recent work dominates, one outlier
// does not).
func (a *admission) observe(d time.Duration) {
	a.durMu.Lock()
	defer a.durMu.Unlock()
	s := d.Seconds()
	if a.avgSec == 0 {
		a.avgSec = s
		return
	}
	a.avgSec = 0.8*a.avgSec + 0.2*s
}

// avgDuration returns the current service-time estimate (0 until the
// first unit completes).
func (a *admission) avgDuration() time.Duration {
	a.durMu.Lock()
	defer a.durMu.Unlock()
	return time.Duration(a.avgSec * float64(time.Second))
}

// ---------- server-side admission pipeline ----------

// authn resolves the request's client identity, answering 401 for an
// unknown API key. Every /v1 endpoint runs through it.
func (s *Server) authn(w http.ResponseWriter, r *http.Request) (*clientState, bool) {
	cl, ok := s.adm.identify(r.Header.Get("X-Api-Key"))
	if !ok {
		s.sm.authFailures.Inc()
		httpError(w, http.StatusUnauthorized, CodeUnauthorized, "unknown API key")
		return nil, false
	}
	if ri := requestInfo(r.Context()); ri != nil {
		// Resolved identity flows back to the access log and the
		// per-client dimension of the labeled request counter.
		ri.client = cl.name
	}
	return cl, true
}

// allowRate spends one of the client's rate-limit tokens, answering 429
// rate_limited with an honest Retry-After when the bucket is dry.
func (s *Server) allowRate(w http.ResponseWriter, cl *clientState) bool {
	wait, ok := s.adm.takeToken(cl)
	if ok {
		return true
	}
	s.sm.rateLimited.Inc()
	s.writeRetryable(w, http.StatusTooManyRequests, wait, CodeRateLimited,
		"client %q exceeded %g requests/s; retry after %s",
		cl.name, s.adm.rate, wait.Round(time.Millisecond))
	return false
}

// shedEstimate reports the estimated wait before newly admitted work
// reaches a worker: occupied-slot pressure beyond the worker pool,
// scaled by the measured service time. Zero until enough signal exists.
func (s *Server) shedEstimate() time.Duration {
	avg := s.adm.avgDuration()
	if avg == 0 {
		return 0
	}
	pending := len(s.admit)
	workers := s.eng.Workers()
	if pending < workers {
		return 0
	}
	return time.Duration(float64(pending) / float64(workers) * float64(avg))
}

// admitClient is the full per-unit admission pipeline: client quota,
// deadline-feasibility shedding, then the shared queue. On refusal the
// response has already been written; on success the returned release is
// idempotent and must be called exactly when the unit finishes.
func (s *Server) admitClient(w http.ResponseWriter, cl *clientState, timeout time.Duration) (func(), bool) {
	if !s.adm.reserve(cl) {
		s.sm.quotaRejects.Inc()
		s.writeRetryable(w, http.StatusTooManyRequests, s.opts.RetryAfter, CodeQuotaExceeded,
			"client %q already has %d units of work in flight (quota %d); retry after %s",
			cl.name, s.adm.quota, s.adm.quota, s.opts.RetryAfter)
		return nil, false
	}
	if s.adm.shed {
		if est := s.shedEstimate(); est > 0 && est >= timeout {
			s.adm.release(cl)
			s.sm.sheds.Inc()
			s.writeRetryable(w, http.StatusTooManyRequests, est, CodeQueueSaturated,
				"deadline infeasible: estimated queue wait %s exceeds the %s deadline; retry later or raise timeout_ms",
				est.Round(time.Millisecond), timeout.Round(time.Millisecond))
			return nil, false
		}
	}
	release, ok := s.tryAdmit()
	if !ok {
		s.adm.release(cl)
		s.writeRetryable(w, http.StatusTooManyRequests, s.opts.RetryAfter, CodeQueueSaturated,
			"admission queue full (%d slots); retry after %s", s.opts.QueueDepth, s.opts.RetryAfter)
		return nil, false
	}
	s.sm.admitted.Inc()
	start := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			release()
			s.adm.release(cl)
			s.adm.observe(time.Since(start))
		})
	}, true
}

// writeRetryable writes an error envelope that clients may retry:
// Retry-After (whole seconds, rounded up) plus the precise
// retry_after_ms inside the body.
func (s *Server) writeRetryable(w http.ResponseWriter, status int, retryAfter time.Duration, code, format string, args ...any) {
	if retryAfter <= 0 {
		retryAfter = s.opts.RetryAfter
	}
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	ms := retryAfter.Milliseconds()
	if ms < 1 {
		ms = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, status, api.ErrorEnvelope{Error: api.ErrorBody{
		Code:         code,
		Message:      fmt.Sprintf(format, args...),
		RetryAfterMS: ms,
	}})
}
