package alchemist

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

const runBatchSrc = `
int main() {
	int n = in(0);
	int s = 0;
	for (int i = 0; i < n; i++) {
		s += i;
	}
	out(s);
	return s % 1000;
}
`

func TestRunBatchOrderAndResults(t *testing.T) {
	eng := NewEngine(WithWorkers(4))
	prog, err := eng.Compile(context.Background(), "rb.mc", runBatchSrc)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []RunJob{
		{Input: []int64{10}},
		{Input: []int64{100}},
		{Input: []int64{1000}},
	}
	results, err := eng.RunBatch(context.Background(), prog, jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{45, 4950, 499500}
	for i, r := range results {
		if r.Job != i {
			t.Errorf("result %d has Job=%d", i, r.Job)
		}
		if r.Err != nil {
			t.Errorf("job %d: %v", i, r.Err)
			continue
		}
		if len(r.Run.Output) != 1 || r.Run.Output[0] != want[i] {
			t.Errorf("job %d output = %v, want [%d]", i, r.Run.Output, want[i])
		}
	}
}

func TestRunBatchSharesJobMetrics(t *testing.T) {
	eng := NewEngine(WithWorkers(2))
	prog, err := eng.Compile(context.Background(), "rb.mc", runBatchSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunBatch(context.Background(), prog, []RunJob{
		{Input: []int64{5}}, {Input: []int64{6}},
	}); err != nil {
		t.Fatal(err)
	}
	snap := eng.Metrics().Snapshot()
	if got := snap.Counters["alchemist_engine_jobs_total"]; got != 2 {
		t.Errorf("jobs_total = %d, want 2", got)
	}
	if got := snap.Histograms["alchemist_engine_job_wall_seconds"].Count; got != 2 {
		t.Errorf("job_wall count = %d, want 2", got)
	}
}

func TestRunBatchCancellation(t *testing.T) {
	eng := NewEngine(WithWorkers(1))
	prog, err := eng.Compile(context.Background(), "rb.mc", runBatchSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := eng.RunBatch(ctx, prog, []RunJob{
		{Input: []int64{1 << 40}}, {Input: []int64{1 << 40}},
	})
	if err == nil {
		t.Fatal("expected error from cancelled batch")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	for i, r := range results {
		if r.Err == nil {
			t.Errorf("job %d unexpectedly succeeded", i)
		}
	}
}

func TestRunBatchDeadline(t *testing.T) {
	eng := NewEngine(WithWorkers(1))
	prog, err := eng.Compile(context.Background(), "rb.mc", runBatchSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = eng.RunBatch(ctx, prog, []RunJob{{Input: []int64{1 << 40}}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestRunJobOnProgress(t *testing.T) {
	eng := NewEngine(WithWorkers(2))
	prog, err := eng.Compile(context.Background(), "rb.mc", runBatchSrc)
	if err != nil {
		t.Fatal(err)
	}
	var last atomic.Int64
	var calls atomic.Int64
	results, err := eng.RunBatch(context.Background(), prog, []RunJob{{
		Input: []int64{50000},
		Config: &RunConfig{OnProgress: func(steps int64) {
			calls.Add(1)
			if prev := last.Load(); steps < prev {
				t.Errorf("progress went backwards: %d after %d", steps, prev)
			}
			last.Store(steps)
		}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() < 2 {
		t.Errorf("OnProgress called %d times, want >= 2 (interval + final)", calls.Load())
	}
	if got := last.Load(); got != results[0].Run.Steps {
		t.Errorf("final progress = %d, want total steps %d", got, results[0].Run.Steps)
	}
}
