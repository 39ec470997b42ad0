package server

// The resilience suite drives the public client SDK against a real
// server through the fault-injection harness, proving the end-to-end
// claim: under dropped connections, 5xx bursts, mid-stream SSE cuts,
// and a hard server kill + restart, every submitted job completes
// exactly once and every event stream is delivered gap-free.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"alchemist"
	"alchemist/client"
	"alchemist/internal/faultinject"
)

// jobCount reports how many distinct jobs the server's store holds —
// the exactly-once ledger.
func (s *Server) jobCount() int {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	return len(s.store.jobs)
}

func TestResilienceExactlyOnceUnderFaultBurst(t *testing.T) {
	s, ts := newTestServer(t, nil)

	// Every request runs the gauntlet: refused dials, responses lost
	// after the server did the work, and synthetic 502s from a flaky
	// front proxy.
	in := faultinject.Chain(ts.Client().Transport)
	in.Use(
		in.DropRequest(faultinject.NewRand(11), 0.20),
		in.DropResponse(faultinject.NewRand(12), 0.15),
		in.ServerError(faultinject.NewRand(13), 0.15, http.StatusBadGateway),
	)
	c := client.New(ts.URL,
		client.WithHTTPClient(&http.Client{Transport: in}),
		client.WithRandSeed(1),
		client.WithRetry(16, time.Millisecond, 20*time.Millisecond))

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := c.SubmitAndWait(ctx, client.JobRequest{
				Kind: "run",
				SourceSpec: client.SourceSpec{
					Name:   fmt.Sprintf("job-%d", i),
					Source: loopSrc,
					Inputs: [][]int64{{int64(100 * (i + 1))}},
				},
				TimeoutMS: 60_000,
			})
			if err != nil {
				errs[i] = err
				return
			}
			if st.State != client.JobSucceeded {
				errs[i] = fmt.Errorf("job %d: state %s (err %q)", i, st.State, st.Error)
				return
			}
			var res client.RunResponse
			if err := json.Unmarshal(st.Result, &res); err != nil {
				errs[i] = err
				return
			}
			m := int64(100 * (i + 1))
			if want := m * (m - 1) / 2; len(res.Runs) != 1 || res.Runs[0].Output[0] != want {
				errs[i] = fmt.Errorf("job %d: result %+v, want output %d", i, res, want)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if in.Injected.Load() == 0 {
		t.Fatal("no faults fired; the gauntlet tested nothing")
	}
	// Exactly once: retried submissions rode their idempotency keys onto
	// the original jobs, so the store holds one job per logical submit.
	if got := s.jobCount(); got != n {
		t.Fatalf("store holds %d jobs after %d logical submissions (duplicates or losses)", got, n)
	}
}

func TestResilienceSSECutGapFreeResume(t *testing.T) {
	s, ts := newTestServer(t, nil)

	// Sever every event stream a few hundred bytes in; leave the JSON
	// endpoints alone so only resumption is under test.
	in := faultinject.Chain(ts.Client().Transport)
	cut := in.CutBody(faultinject.NewRand(21), 1.0, 600)
	in.Use(func(req *http.Request, next http.RoundTripper) (*http.Response, error) {
		if strings.HasSuffix(req.URL.Path, "/events") {
			return cut(req, next)
		}
		return next.RoundTrip(req)
	})
	c := client.New(ts.URL,
		client.WithHTTPClient(&http.Client{Transport: in}),
		client.WithRandSeed(2),
		client.WithRetry(16, time.Millisecond, 20*time.Millisecond))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.SubmitJob(ctx, client.JobRequest{
		Kind:       "run",
		SourceSpec: client.SourceSpec{Name: "chatty", Source: loopSrc, Inputs: [][]int64{{20000}}},
		TimeoutMS:  60_000,
	})
	if err != nil {
		t.Fatal(err)
	}

	es := c.StreamEvents(st.ID, 0)
	defer es.Close()
	want := 0
	sawTerminal := false
	for {
		ev, err := es.Next(ctx)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Seq != want {
			t.Fatalf("event seq %d after %d events: the resumed stream has a gap or duplicate", ev.Seq, want)
		}
		want++
		if ev.Terminal() {
			sawTerminal = true
			if ev.State != client.JobSucceeded {
				t.Fatalf("terminal state %s, want succeeded", ev.State)
			}
		}
	}
	if !sawTerminal {
		t.Fatal("stream ended without its terminal event")
	}
	if in.Injected.Load() < 2 {
		t.Fatalf("only %d stream cuts fired; resumption was not exercised", in.Injected.Load())
	}
	if s.sm.sseResumed.Value() == 0 {
		t.Fatal("server saw no Last-Event-ID resumes")
	}
}

func TestResilienceKillRestartConvergence(t *testing.T) {
	dir := t.TempDir()
	newSrv := func() *Server {
		t.Helper()
		s, err := New(Options{
			Engine:            alchemist.NewEngine(alchemist.WithWorkers(1)),
			DataDir:           dir,
			RequeueOnRecovery: true,
			ProgressInterval:  -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s1 := newSrv()
	if err := s1.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := s1.Addr().String()
	c := client.New("http://"+addr,
		client.WithRandSeed(3),
		client.WithRetry(40, 5*time.Millisecond, 100*time.Millisecond))

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// With one worker, the blocker pins the engine so the target is
	// deterministically non-terminal (queued) when the server dies. The
	// target is submitted only once the blocker holds the worker, or it
	// could take the worker first and finish before the kill.
	if _, err := c.SubmitJob(ctx, client.JobRequest{
		Kind:       "run",
		SourceSpec: client.SourceSpec{Name: "blocker", Source: foreverSrc},
		TimeoutMS:  1500,
	}); err != nil {
		t.Fatal(err)
	}
	inflight := s1.eng.Metrics().Gauge("alchemist_engine_inflight_jobs", "")
	for deadline := time.Now().Add(30 * time.Second); inflight.Value() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the blocker never took the engine's worker")
		}
	}
	target, err := c.SubmitJob(ctx, client.JobRequest{
		Kind:       "run",
		SourceSpec: client.SourceSpec{Name: "target", Source: loopSrc, Inputs: [][]int64{{1000}}},
		TimeoutMS:  60_000,
	})
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		st  *client.JobStatus
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		st, err := c.WaitJob(ctx, target.ID)
		done <- outcome{st, err}
	}()

	// Let the watcher attach its stream, then kill the server the way a
	// SIGKILL would: sockets severed, journal frozen, no goodbye events.
	time.Sleep(150 * time.Millisecond)
	s1.Kill()

	s2 := newSrv()
	defer s2.Close()
	if rec := s2.Recovery(); rec.Jobs != 2 || rec.Requeued != 2 {
		t.Fatalf("recovery = %+v, want 2 jobs recovered and requeued", rec)
	}
	var startErr error
	for i := 0; i < 300; i++ {
		if startErr = s2.Start(addr); startErr == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if startErr != nil {
		t.Fatalf("could not rebind %s: %v", addr, startErr)
	}

	res := <-done
	if res.err != nil {
		t.Fatalf("WaitJob did not survive the restart: %v", res.err)
	}
	if res.st.State != client.JobSucceeded {
		t.Fatalf("target state %s (err %q), want succeeded", res.st.State, res.st.Error)
	}
	var run client.RunResponse
	if err := json.Unmarshal(res.st.Result, &run); err != nil {
		t.Fatal(err)
	}
	if len(run.Runs) != 1 || run.Runs[0].Output[0] != 499500 {
		t.Fatalf("target result %+v, want output 499500", run)
	}
	// Exactly once across the crash: recovery rebuilt the two jobs, it
	// did not duplicate them.
	if got := s2.jobCount(); got != 2 {
		t.Fatalf("store holds %d jobs after restart, want 2", got)
	}
}

// TestResilienceServerSideFaultMiddleware proves the harness composes on
// the server side too: a handler that fails a third of all requests with
// 503 still converges for a retrying client.
func TestResilienceServerSideFaultMiddleware(t *testing.T) {
	s, err := New(Options{
		Engine:           alchemist.NewEngine(alchemist.WithWorkers(2)),
		ProgressInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h, injected := faultinject.Middleware(faultinject.NewRand(31), 0.33, http.StatusServiceUnavailable, s.Handler())
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := client.New(ts.URL,
		client.WithRandSeed(4),
		client.WithRetry(16, time.Millisecond, 20*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.SubmitAndWait(ctx, client.JobRequest{
		Kind:       "run",
		SourceSpec: client.SourceSpec{Name: "mid", Source: loopSrc, Inputs: [][]int64{{500}}},
		TimeoutMS:  60_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != client.JobSucceeded {
		t.Fatalf("state %s, want succeeded", st.State)
	}
	if injected.Load() == 0 {
		t.Fatal("middleware injected nothing")
	}
	if got := s.jobCount(); got != 1 {
		t.Fatalf("store holds %d jobs, want 1", got)
	}
}
