package alchemist_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"alchemist"
	"alchemist/internal/obs"
	"alchemist/internal/xtrace"
)

// counter reads a registry counter by name without creating noise: the
// engine registered all of its metrics at construction, so the lookup
// always finds an existing instrument.
func counter(r *obs.Registry, name string) int64 {
	return r.Counter(name, "").Value()
}

// gauge reads a registry gauge by name, like counter.
func gauge(r *obs.Registry, name string) int64 {
	return r.Gauge(name, "").Value()
}

// TestEngineSingleflight: a thundering herd on one cold source costs one
// compile; everyone else hits the cache or coalesces onto the in-flight
// compile. The invariant compiles + hits + coalesced == lookups holds
// regardless of scheduling.
func TestEngineSingleflight(t *testing.T) {
	ctx := context.Background()
	eng := alchemist.NewEngine()
	const n = 16

	start := make(chan struct{})
	progs := make([]*alchemist.Program, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			p, err := eng.Compile(ctx, "herd.mc", `int main() { return 42; }`)
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 1; i < n; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("compile %d returned a different program", i)
		}
	}
	st := eng.CacheStats()
	compiles := counter(eng.Metrics(), "alchemist_engine_compiles_total")
	if st.Hits+st.Misses != n {
		t.Errorf("hits(%d) + misses(%d) != %d lookups", st.Hits, st.Misses, n)
	}
	if compiles+st.Hits+st.Coalesced != n {
		t.Errorf("compiles(%d) + hits(%d) + coalesced(%d) != %d lookups",
			compiles, st.Hits, st.Coalesced, n)
	}
	if compiles != 1 {
		t.Errorf("compiles = %d, want exactly 1 for a singleflighted herd", compiles)
	}
	if got := counter(eng.Metrics(), "alchemist_engine_singleflight_coalesced_total"); got != st.Coalesced {
		t.Errorf("coalesced metric = %d, CacheStats.Coalesced = %d", got, st.Coalesced)
	}
}

// bigSrc synthesizes a program whose compiled footprint exceeds
// DefaultProgramCost instructions, so it charges more than one cache
// cost unit.
func bigSrc() string {
	var sb strings.Builder
	sb.WriteString("int main() {\n  int s = 0;\n")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, "  s = s * 3 + %d;\n", i)
	}
	sb.WriteString("  out(s);\n  return 0;\n}\n")
	return sb.String()
}

// TestEngineCostEviction: cache pressure is charged by program footprint,
// not entry count — one big program displaces proportionally more.
func TestEngineCostEviction(t *testing.T) {
	ctx := context.Background()
	eng := alchemist.NewEngine(alchemist.WithCacheSize(2))

	if _, err := eng.Compile(ctx, "big.mc", bigSrc()); err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.Cost < 2 {
		t.Fatalf("big program cost = %d units, want >= 2 (footprint too small to exercise the cost model)", st.Cost)
	}
	if st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats after big insert = %+v, want Entries=1 Evictions=0", st)
	}

	// A one-unit program pushes the total over budget; the big program is
	// the LRU entry and goes first.
	if _, err := eng.Compile(ctx, "small.mc", `int main() { return 1; }`); err != nil {
		t.Fatal(err)
	}
	st = eng.CacheStats()
	if st.Evictions != 1 || st.Entries != 1 || st.Cost != 1 {
		t.Errorf("stats after small insert = %+v, want Evictions=1 Entries=1 Cost=1", st)
	}
}

// TestEngineOversizedProgramCachesAlone: a program larger than the whole
// budget still caches (alone) instead of thrashing on every lookup.
func TestEngineOversizedProgramCachesAlone(t *testing.T) {
	ctx := context.Background()
	eng := alchemist.NewEngine(alchemist.WithCacheSize(1))

	p1, err := eng.Compile(ctx, "big.mc", bigSrc())
	if err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.Entries != 1 || st.Evictions != 0 || st.Cost < 2 {
		t.Fatalf("stats = %+v, want the oversized program cached alone", st)
	}
	p2, err := eng.Compile(ctx, "big.mc", bigSrc())
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("oversized program was not served from the cache")
	}
}

// TestEngineMetricsEndpoint is the acceptance golden: after one
// engine-driven profile, /metrics serves nonzero VM step and cache
// counters in the Prometheus text format.
func TestEngineMetricsEndpoint(t *testing.T) {
	ctx := context.Background()
	eng := alchemist.NewEngine()
	prog, err := eng.Compile(ctx, "batch.mc", batchSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Profile(ctx, prog, alchemist.ProfileConfig{
		RunConfig: alchemist.RunConfig{Input: []int64{1, 2, 3}},
	}); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(obs.Handler(eng.Metrics()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)

	metric := func(name string) int64 {
		t.Helper()
		m := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("metric %s missing from /metrics:\n%s", name, body)
		}
		v, _ := strconv.ParseInt(m[1], 10, 64)
		return v
	}
	if steps := metric("alchemist_vm_steps_total"); steps <= 0 {
		t.Errorf("alchemist_vm_steps_total = %d, want > 0", steps)
	}
	if runs := metric("alchemist_vm_runs_total"); runs != 1 {
		t.Errorf("alchemist_vm_runs_total = %d, want 1", runs)
	}
	if misses := metric("alchemist_engine_cache_misses_total"); misses != 1 {
		t.Errorf("alchemist_engine_cache_misses_total = %d, want 1", misses)
	}
	metric("alchemist_engine_cache_hits_total") // present, zero is fine
	if loads := metric("alchemist_profile_shadow_loads_total"); loads <= 0 {
		t.Errorf("alchemist_profile_shadow_loads_total = %d, want > 0", loads)
	}
}

// TestEngineScratchAccounting: every batch job and every sequential run
// checks one scratch buffer out and back in; the free list allocates at
// most one per concurrent worker, and keeps them through garbage
// collections, so a later batch allocates none.
func TestEngineScratchAccounting(t *testing.T) {
	ctx := context.Background()
	const workers, jobCount = 2, 6
	eng := alchemist.NewEngine(alchemist.WithWorkers(workers))
	prog, err := eng.Compile(ctx, "batch.mc", batchSrc)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]alchemist.ProfileJob, jobCount)
	for i := range jobs {
		jobs[i] = alchemist.ProfileJob{Input: []int64{int64(i), int64(i * 2)}}
	}
	if _, _, err := eng.ProfileBatch(ctx, prog, jobs); err != nil {
		t.Fatal(err)
	}

	reg := eng.Metrics()
	gets := counter(reg, "alchemist_engine_scratch_gets_total")
	puts := counter(reg, "alchemist_engine_scratch_puts_total")
	news := counter(reg, "alchemist_engine_scratch_news_total")
	if gets != jobCount || puts != jobCount {
		t.Errorf("scratch gets = %d puts = %d, want both %d", gets, puts, jobCount)
	}
	if news < 1 || news > workers {
		t.Errorf("scratch news = %d, want within [1, %d]", news, workers)
	}
	if got := counter(reg, "alchemist_engine_jobs_total"); got != jobCount {
		t.Errorf("jobs = %d, want %d", got, jobCount)
	}
	if got := counter(reg, "alchemist_profile_pool_allocated_total"); got <= 0 {
		t.Errorf("pool allocated = %d, want > 0", got)
	}

	// Hold one job on every worker at once, so the free list fills: the
	// checks below then hold whichever worker each later job lands on.
	long, err := eng.Compile(ctx, "long.mc",
		`int main() { int s = 0; for (int i = 0; i < 30000; i++) { s += in(i % inlen()); } out(s); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	var arrived sync.WaitGroup
	arrived.Add(workers)
	held := make([]alchemist.ProfileJob, workers)
	for i := range held {
		var once sync.Once
		held[i] = alchemist.ProfileJob{Input: []int64{1}, Config: &alchemist.ProfileConfig{
			RunConfig: alchemist.RunConfig{OnProgress: func(int64) {
				once.Do(func() { arrived.Done(); arrived.Wait() })
			}},
		}}
	}
	if _, _, err := eng.ProfileBatch(ctx, long, held); err != nil {
		t.Fatal(err)
	}
	if news = counter(reg, "alchemist_engine_scratch_news_total"); news != workers {
		t.Fatalf("scratch news = %d after %d jobs at once, want %d", news, workers, workers)
	}

	// Runs keep their VM memory in the same scratches; a Parallel run
	// takes none.
	runs := make([]alchemist.RunJob, jobCount)
	for i := range runs {
		runs[i] = alchemist.RunJob{Input: []int64{int64(i)}}
	}
	if _, err := eng.RunBatch(ctx, prog, runs); err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []bool{false, true} {
		if _, err := eng.Run(ctx, prog, alchemist.RunConfig{Input: []int64{3}, Parallel: parallel}); err != nil {
			t.Fatal(err)
		}
	}
	gets = counter(reg, "alchemist_engine_scratch_gets_total")
	puts = counter(reg, "alchemist_engine_scratch_puts_total")
	if want := int64(2*jobCount + workers + 1); gets != want || puts != want {
		t.Errorf("after a RunBatch and two Runs: scratch gets = %d puts = %d, want both %d", gets, puts, want)
	}
	if got := counter(reg, "alchemist_engine_scratch_news_total"); got != news {
		t.Errorf("runs made scratch: news = %d, was %d", got, news)
	}

	runtime.GC()
	runtime.GC()
	if _, _, err := eng.ProfileBatch(ctx, prog, jobs); err != nil {
		t.Fatal(err)
	}
	if got := counter(reg, "alchemist_engine_scratch_news_total"); got != news {
		t.Errorf("scratch news = %d after two GCs and another batch, want still %d", got, news)
	}
}

// TestEngineScratchIdleBytes: alchemist_engine_scratch_idle_bytes counts
// what idle scratches hold, VM memory included, and a Parallel run
// neither takes scratch memory nor leaves any behind.
func TestEngineScratchIdleBytes(t *testing.T) {
	ctx := context.Background()
	eng := alchemist.NewEngine(alchemist.WithWorkers(1))
	reg := eng.Metrics()
	const idle = "alchemist_engine_scratch_idle_bytes"
	if got := gauge(reg, idle); got != 0 {
		t.Fatalf("%s = %d before any job, want 0", idle, got)
	}
	prog, err := eng.Compile(ctx, "big.mc", bigGlobalSrc)
	if err != nil {
		t.Fatal(err)
	}
	rc := alchemist.RunConfig{Input: []int64{5}, MemWords: 1 << 21}
	prof, _, err := eng.Profile(ctx, prog, alchemist.ProfileConfig{RunConfig: rc})
	if err != nil {
		t.Fatal(err)
	}
	held := gauge(reg, idle)
	if want := 8<<20 + prof.Shadow.Bytes; held < want {
		t.Errorf("%s = %d after profiling a 2^20-word program, want at least %d (VM words plus %d shadow bytes)",
			idle, held, want, prof.Shadow.Bytes)
	}

	gets := counter(reg, "alchemist_engine_scratch_gets_total")
	rc.Parallel = true
	if _, err := eng.Run(ctx, prog, rc); err != nil {
		t.Fatal(err)
	}
	if got := gauge(reg, idle); got != held {
		t.Errorf("%s = %d after a Parallel run, was %d", idle, got, held)
	}
	if got := counter(reg, "alchemist_engine_scratch_gets_total"); got != gets {
		t.Errorf("a Parallel run took scratch: gets %d, was %d", got, gets)
	}

	// The memory is still there for the next sequential run.
	rc.Parallel = false
	if _, err := eng.Run(ctx, prog, rc); err != nil {
		t.Fatal(err)
	}
	if got := gauge(reg, idle); got != held {
		t.Errorf("%s = %d after a sequential run of the same program, was %d", idle, got, held)
	}
}

// TestProfileJobOnProgress: per-job progress reports are monotonic and
// end with the job's exact final step count.
func TestProfileJobOnProgress(t *testing.T) {
	ctx := context.Background()
	eng := alchemist.NewEngine(alchemist.WithWorkers(2))
	// Long enough that every job crosses several check windows.
	src := `int main() { int s = 0; for (int i = 0; i < 30000; i++) { s += in(i % inlen()); } out(s); return 0; }`
	prog, err := eng.Compile(ctx, "prog.mc", src)
	if err != nil {
		t.Fatal(err)
	}

	const jobCount = 3
	var mu sync.Mutex
	reports := make([][]int64, jobCount)
	jobs := make([]alchemist.ProfileJob, jobCount)
	for i := range jobs {
		i := i
		jobs[i] = alchemist.ProfileJob{
			Input: []int64{int64(i), 5, 9},
			Config: &alchemist.ProfileConfig{RunConfig: alchemist.RunConfig{
				OnProgress: func(steps int64) {
					mu.Lock()
					reports[i] = append(reports[i], steps)
					mu.Unlock()
				},
			}},
		}
	}
	_, results, err := eng.ProfileBatch(ctx, prog, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if len(reports[i]) < 2 {
			t.Fatalf("job %d delivered %d reports, want >= 2", i, len(reports[i]))
		}
		for k := 1; k < len(reports[i]); k++ {
			if reports[i][k] < reports[i][k-1] {
				t.Errorf("job %d reports not monotonic: %v", i, reports[i])
				break
			}
		}
		if last := reports[i][len(reports[i])-1]; last != r.Run.Steps {
			t.Errorf("job %d final report = %d, want Run.Steps = %d", i, last, r.Run.Steps)
		}
	}
}

// TestProfileJobOnProgressCancel: cancelling mid-batch aborts the
// running job and fails queued jobs with context.Canceled.
func TestProfileJobOnProgressCancel(t *testing.T) {
	eng := alchemist.NewEngine(alchemist.WithWorkers(1))
	src := `int main() { int s = 0; for (int i = 0; i < 100000000; i++) { s += i; } out(s); return 0; }`
	prog, err := eng.Compile(context.Background(), "long.mc", src)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Jobs start in arbitrary order, so every job cancels on its first
	// progress report: whichever runs first aborts itself mid-run, and
	// the queued jobs fail without starting.
	cfg := &alchemist.ProfileConfig{RunConfig: alchemist.RunConfig{
		OnProgress: func(int64) { cancel() },
	}}
	jobs := []alchemist.ProfileJob{{Config: cfg}, {Config: cfg}, {Config: cfg}}
	merged, results, err := eng.ProfileBatch(ctx, prog, jobs)
	if merged != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("batch = (%v, %v), want context.Canceled", merged, err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d err = %v, want context.Canceled", i, r.Err)
		}
	}
}

// spanSink collects ended spans.
type spanSink struct {
	mu    sync.Mutex
	spans []xtrace.SpanRecord
}

func (s *spanSink) RecordSpan(rec xtrace.SpanRecord) {
	s.mu.Lock()
	s.spans = append(s.spans, rec)
	s.mu.Unlock()
}

// TestBatchJobSpans: every batch job, profiled or plainly run, gets one
// span named by its kind with its batch_job index, and a failing job's
// span carries the error.
func TestBatchJobSpans(t *testing.T) {
	var sink spanSink
	ctx := xtrace.ContextWithRecorder(context.Background(), &sink)
	eng := alchemist.NewEngine(alchemist.WithWorkers(2))
	prog, err := eng.Compile(ctx, "batch.mc", batchSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.ProfileBatch(ctx, prog, []alchemist.ProfileJob{{Input: []int64{1}}, {Input: []int64{2}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunBatch(ctx, prog, []alchemist.RunJob{
		{Input: []int64{1}},
		{Input: []int64{2}, Config: &alchemist.RunConfig{StepLimit: 5}},
	}); err == nil {
		t.Fatal("expected the StepLimit job to fail")
	}

	got := map[string]bool{}
	for _, sp := range sink.spans {
		if sp.Name == "compile" {
			continue
		}
		key := sp.Name + "/" + sp.Attrs["batch_job"]
		got[key] = true
		if wantErr := key == "run/1"; (sp.Attrs["error"] != "") != wantErr {
			t.Errorf("span %s error attr = %q, want error: %v", key, sp.Attrs["error"], wantErr)
		}
	}
	want := map[string]bool{"profile/0": true, "profile/1": true, "run/0": true, "run/1": true}
	if len(sink.spans) != 5 || !reflect.DeepEqual(got, want) {
		t.Errorf("batch spans = %v (of %d spans), want %v plus one compile span", got, len(sink.spans), want)
	}
	if got := counter(eng.Metrics(), "alchemist_engine_jobs_total"); got != 4 {
		t.Errorf("jobs_total = %d, want 4", got)
	}
	if got := counter(eng.Metrics(), "alchemist_engine_job_errors_total"); got != 1 {
		t.Errorf("job_errors_total = %d, want 1", got)
	}
}
