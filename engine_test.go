package alchemist_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"alchemist"
)

const batchSrc = `// batch.mc
int hist[256];
int total;

void handle(int v) {
	int acc = 0;
	for (int k = 0; k < 40; k++) {
		acc += (v * 31 + k) & 255;
	}
	hist[v & 255] += acc;
	total += acc;
}

int main() {
	for (int i = 0; i < inlen(); i++) {
		handle(in(i));
	}
	out(total);
	return 0;
}`

func batchInputs() [][]int64 {
	inputs := make([][]int64, 3)
	for j := range inputs {
		in := make([]int64, 30)
		for i := range in {
			in[i] = int64(i*7 + j*13)
		}
		inputs[j] = in
	}
	return inputs
}

// TestEngineCompileCache: identical (name, source, options) hit the
// cache and return the identical *Program; distinct options miss.
func TestEngineCompileCache(t *testing.T) {
	ctx := context.Background()
	eng := alchemist.NewEngine(alchemist.WithCacheSize(2))

	p1, err := eng.Compile(ctx, "batch.mc", batchSrc)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := eng.Compile(ctx, "batch.mc", batchSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("second Compile of identical source did not hit the cache")
	}
	if st := eng.CacheStats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats after hit = %+v, want Hits=1 Misses=1 Entries=1", st)
	}

	// Same source, different options: distinct entry, distinct program.
	p3, err := eng.CompileWith(ctx, "batch.mc", batchSrc, alchemist.CompileOptions{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("Optimize compile returned the unoptimized cache entry")
	}
	if st := eng.CacheStats(); st.Misses != 2 || st.Entries != 2 {
		t.Errorf("stats after optimize miss = %+v, want Misses=2 Entries=2", st)
	}

	// Capacity is 2: a third distinct entry evicts the LRU one
	// (batch.mc unoptimized was used least recently... MoveToFront puts
	// the optimize entry first, so the plain entry is evicted only after
	// another insert).
	if _, err := eng.Compile(ctx, "other.mc", "int main() { return 0; }"); err != nil {
		t.Fatal(err)
	}
	st := eng.CacheStats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats after eviction = %+v, want Evictions=1 Entries=2", st)
	}

	// The evicted program recompiles to a fresh pointer.
	p4, err := eng.Compile(ctx, "batch.mc", batchSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p4 == p1 {
		t.Error("evicted entry still served from cache")
	}
}

// TestEngineCacheDisabled: negative cache size compiles fresh each time.
func TestEngineCacheDisabled(t *testing.T) {
	ctx := context.Background()
	eng := alchemist.NewEngine(alchemist.WithCacheSize(-1))
	p1, err := eng.Compile(ctx, "batch.mc", batchSrc)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := eng.Compile(ctx, "batch.mc", batchSrc)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Error("cache disabled but programs shared")
	}
	if st := eng.CacheStats(); st != (alchemist.CacheStats{}) {
		t.Errorf("stats = %+v, want zero", st)
	}
}

// TestEngineCompileConcurrent: racing compiles of one source converge on
// one cached program.
func TestEngineCompileConcurrent(t *testing.T) {
	ctx := context.Background()
	eng := alchemist.NewEngine()
	progs := make([]*alchemist.Program, 16)
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := eng.Compile(ctx, "batch.mc", batchSrc)
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(progs); i++ {
		if progs[i] != progs[0] {
			t.Fatalf("compile %d returned a different program", i)
		}
	}
	if st := eng.CacheStats(); st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

// TestProfileBatchMatchesSequentialMerge: the concurrent batch produces
// a merged profile byte-identical (via WriteJSON) to sequentially
// profiling each input and merging.
func TestProfileBatchMatchesSequentialMerge(t *testing.T) {
	ctx := context.Background()
	eng := alchemist.NewEngine(alchemist.WithWorkers(3))
	prog, err := eng.Compile(ctx, "batch.mc", batchSrc)
	if err != nil {
		t.Fatal(err)
	}
	inputs := batchInputs()

	// Sequential reference: Profile per input, each on a fresh Engine
	// (so no scratch is shared with the batch), then Merge.
	seq := make([]*alchemist.Profile, len(inputs))
	for i, in := range inputs {
		p, _, err := alchemist.NewEngine().Profile(ctx, prog, alchemist.ProfileConfig{
			RunConfig: alchemist.RunConfig{Input: in},
		})
		if err != nil {
			t.Fatal(err)
		}
		seq[i] = p
	}
	want, err := alchemist.Merge(seq...)
	if err != nil {
		t.Fatal(err)
	}

	jobs := make([]alchemist.ProfileJob, len(inputs))
	for i, in := range inputs {
		jobs[i] = alchemist.ProfileJob{Input: in}
	}
	got, results, err := eng.ProfileBatch(ctx, prog, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Job != i || r.Err != nil || r.Profile == nil || r.Run == nil {
			t.Fatalf("result %d = %+v", i, r)
		}
	}

	var wantJSON, gotJSON bytes.Buffer
	if err := alchemist.WriteJSON(&wantJSON, want); err != nil {
		t.Fatal(err)
	}
	if err := alchemist.WriteJSON(&gotJSON, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON.Bytes(), gotJSON.Bytes()) {
		t.Errorf("batch JSON differs from sequential merge JSON:\nbatch: %.400s\nseq:   %.400s",
			gotJSON.String(), wantJSON.String())
	}
}

// TestProfileEachStreams: every job reports exactly once with its index.
func TestProfileEachStreams(t *testing.T) {
	ctx := context.Background()
	eng := alchemist.NewEngine(alchemist.WithWorkers(2))
	prog, err := eng.Compile(ctx, "batch.mc", batchSrc)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]alchemist.ProfileJob, 5)
	for i := range jobs {
		jobs[i] = alchemist.ProfileJob{Input: []int64{int64(i), int64(i + 1)}}
	}
	seen := make(map[int]bool)
	for r := range eng.ProfileEach(ctx, prog, jobs) {
		if r.Err != nil {
			t.Fatalf("job %d: %v", r.Job, r.Err)
		}
		if seen[r.Job] {
			t.Fatalf("job %d reported twice", r.Job)
		}
		seen[r.Job] = true
	}
	if len(seen) != len(jobs) {
		t.Errorf("saw %d results, want %d", len(seen), len(jobs))
	}
}

// TestProfileBatchJobError: a failing job surfaces its error and fails
// the batch.
func TestProfileBatchJobError(t *testing.T) {
	ctx := context.Background()
	eng := alchemist.NewEngine()
	prog, err := eng.Compile(ctx, "oob.mc", `int main() { out(in(0)); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	merged, results, err := eng.ProfileBatch(ctx, prog, []alchemist.ProfileJob{
		{Input: []int64{7}},
		{Input: []int64{}}, // in(0) out of range
	})
	if err == nil || merged != nil {
		t.Fatalf("batch = (%v, %v), want error", merged, err)
	}
	if results[0].Err != nil || results[1].Err == nil {
		t.Errorf("per-job errors = [%v, %v]", results[0].Err, results[1].Err)
	}
}

// TestProfileBatchCancel: cancelling the context fails the batch with
// context.Canceled.
func TestProfileBatchCancel(t *testing.T) {
	eng := alchemist.NewEngine(alchemist.WithWorkers(1))
	src := `int main() { int s = 0; for (int i = 0; i < 100000000; i++) { s += i; } out(s); return 0; }`
	prog, err := eng.Compile(context.Background(), "long.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err = eng.ProfileBatch(ctx, prog, []alchemist.ProfileJob{{}, {}, {}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancelled batch took %v", elapsed)
	}
}

// TestProfileBatchNilContext: a nil context is tolerated like every
// other entry point, not a panic in the worker goroutines.
func TestProfileBatchNilContext(t *testing.T) {
	eng := alchemist.NewEngine()
	prog, err := eng.Compile(nil, "nilctx.mc", `int main() { out(inlen()); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	merged, _, err := eng.ProfileBatch(nil, prog, []alchemist.ProfileJob{
		{Input: []int64{1}}, {Input: []int64{2, 3}},
	})
	if err != nil || merged == nil {
		t.Fatalf("batch = (%v, %v)", merged, err)
	}
}

// TestProfileRejectsParallel: profiling must not silently override a
// parallel config — it errors instead.
func TestProfileRejectsParallel(t *testing.T) {
	ctx, eng := context.Background(), alchemist.NewEngine()
	prog, err := eng.Compile(ctx, "p.mc", `int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []alchemist.ProfileConfig{
		{RunConfig: alchemist.RunConfig{Parallel: true}},
		{RunConfig: alchemist.RunConfig{SimWorkers: 2}},
	} {
		if _, _, err := eng.Profile(ctx, prog, cfg); !errors.Is(err, alchemist.ErrProfileNeedsSequential) {
			t.Errorf("Profile(%+v) err = %v, want ErrProfileNeedsSequential", cfg, err)
		}
	}
}

// TestProfileReaderSlotsBound: a word's reader count is 8 bits wide, so
// Profile refuses more than 255 reader slots before it takes scratch,
// rather than wrapping the count and losing WAR heads; 255 keeps every
// reader.
func TestProfileReaderSlotsBound(t *testing.T) {
	ctx, eng := context.Background(), alchemist.NewEngine()
	var src strings.Builder
	src.WriteString("int v;\nint s;\nvoid readv() {\n")
	for i := 0; i < 255; i++ {
		fmt.Fprintf(&src, "\ts = v + %d;\n", i)
	}
	src.WriteString("}\nint main() {\n\tfor (int i = 0; i < 3; i++) { readv(); v = i; }\n\treturn 0;\n}\n")
	prog, err := eng.Compile(ctx, "readers.mc", src.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, slots := range []int{256, 300} {
		if _, _, err := eng.Profile(ctx, prog, alchemist.ProfileConfig{ReaderSlots: slots}); err == nil {
			t.Errorf("Profile with %d reader slots succeeded, want an error", slots)
		}
	}
	if gets := counter(eng.Metrics(), "alchemist_engine_scratch_gets_total"); gets != 0 {
		t.Errorf("refused profiles took scratch %d times", gets)
	}
	prof, _, err := eng.Profile(ctx, prog, alchemist.ProfileConfig{ReaderSlots: 255})
	if err != nil {
		t.Fatal(err)
	}
	if war := prof.ConstructForFunc("readv").CountEdges(alchemist.WAR); war != 255 {
		t.Errorf("255 slots: %d WAR edges out of readv, want 255", war)
	}
}

// TestProfileJobConfig: a batch job runs under its own config, with the
// job input substituted.
func TestProfileJobConfig(t *testing.T) {
	ctx := context.Background()
	eng := alchemist.NewEngine()
	prog, err := eng.Compile(ctx, "batch.mc", batchSrc)
	if err != nil {
		t.Fatal(err)
	}
	_, results, err := eng.ProfileBatch(ctx, prog, []alchemist.ProfileJob{
		{
			Input:  []int64{1, 2, 3},
			Config: &alchemist.ProfileConfig{RunConfig: alchemist.RunConfig{StepLimit: 50}},
		},
		{
			Input:  []int64{5},
			Config: &alchemist.ProfileConfig{RunConfig: alchemist.RunConfig{Input: []int64{1, 2, 3, 4}}},
		},
	})
	if err == nil {
		t.Fatal("expected the job's StepLimit to trap")
	}
	if r := results[0]; r.Err == nil || !errContains(r.Err, "step limit") {
		t.Errorf("job err = %v, want step-limit trap", r.Err)
	}
	_, want, err := eng.Profile(ctx, prog, alchemist.ProfileConfig{
		RunConfig: alchemist.RunConfig{Input: []int64{5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := results[1]; r.Err != nil || r.Run.Steps != want.Steps {
		t.Errorf("job 1 = (%v, %+v), want the job input to replace the config's (steps %d)", r.Err, r.Run, want.Steps)
	}
}

func errContains(err error, sub string) bool {
	return err != nil && bytes.Contains([]byte(err.Error()), []byte(sub))
}

// TestCompileCtxCancelled: compilation respects an already-cancelled
// context.
func TestCompileCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := alchemist.NewEngine().Compile(ctx, "x.mc", "int main() { return 0; }"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Compile err = %v, want context.Canceled", err)
	}
}

// TestScratchReuseMatchesFreshEngine: a job's profile and pool counters
// do not depend on which job used the worker's scratch buffers before.
// Pool size changes profiles (core's TestSmallPoolDropsOnlyEnclosingEdges
// uses this program), so a retained pool must take each job's own
// PoolPrealloc.
func TestScratchReuseMatchesFreshEngine(t *testing.T) {
	ctx := context.Background()
	const src = `
int v;
int s;
void produce() { v = v + 1; }
int main() {
	for (int i = 0; i < 200; i++) {
		produce();
		s = v;
	}
	return 0;
}`
	profile := func(eng *alchemist.Engine, prealloc int) (*alchemist.Profile, []byte) {
		t.Helper()
		prog, err := eng.Compile(ctx, "pool.mc", src)
		if err != nil {
			t.Fatal(err)
		}
		prof, _, err := eng.Profile(ctx, prog, alchemist.ProfileConfig{PoolPrealloc: prealloc})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := alchemist.WriteJSON(&buf, prof); err != nil {
			t.Fatal(err)
		}
		return prof, buf.Bytes()
	}
	for _, order := range [][2]int{{4, 0}, {0, 4}} {
		warm := alchemist.NewEngine(alchemist.WithWorkers(1))
		profile(warm, order[0])
		got, gotJSON := profile(warm, order[1])
		want, wantJSON := profile(alchemist.NewEngine(alchemist.WithWorkers(1)), order[1])
		if got.Pool != want.Pool {
			t.Errorf("PoolPrealloc %d after %d: pool %+v, fresh engine %+v", order[1], order[0], got.Pool, want.Pool)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("PoolPrealloc %d after %d: profile JSON differs from a fresh engine's", order[1], order[0])
		}
	}

	// The VM memory is recycled too. A fills a large array and local and
	// allocated memory with non-zero words; B lays its globals out
	// differently and sums memory it never wrote, which must read zero
	// on a warm Engine as on a fresh one.
	const srcA = `
int pad;
int big[50000];
int main() {
	int a[3000];
	int b[] = alloc(20000);
	for (int i = 0; i < 50000; i++) big[i] = i * 7 + 1;
	for (int i = 0; i < 3000; i++) a[i] = -i - 1;
	for (int i = 0; i < 20000; i++) b[i] = i | 1;
	out(big[49999] + a[2999] + b[19999]);
	return 0;
}`
	const srcB = `
int x;
int y[1000];
int z;
int sum(int n) {
	int l[500];
	int s = 0;
	for (int i = 0; i < n; i++) s += l[i] * (i + 1);
	l[0] = s + 1;
	return s + l[0];
}
int main() {
	int s = x + z;
	for (int i = 0; i < 1000; i++) s += y[i] * (i + 1);
	int b[] = alloc(30000);
	for (int i = 0; i < 30000; i++) s += b[i];
	for (int k = 1; k <= 60; k++) s += sum(k * 8);
	for (int i = 0; i < 1000; i++) y[i] = s + i;
	out(s);
	out(y[999]);
	return s;
}`
	fresh := func() *alchemist.Engine { return alchemist.NewEngine(alchemist.WithWorkers(1)) }
	compile := func(eng *alchemist.Engine, name, src string) *alchemist.Program {
		t.Helper()
		p, err := eng.Compile(ctx, name, src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	run := func(eng *alchemist.Engine, p *alchemist.Program) *alchemist.RunResult {
		t.Helper()
		res, err := eng.Run(ctx, p, alchemist.RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	profileJSON := func(eng *alchemist.Engine, p *alchemist.Program) (*alchemist.RunResult, []byte) {
		t.Helper()
		prof, res, err := eng.Profile(ctx, p, alchemist.ProfileConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := alchemist.WriteJSON(&buf, prof); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	// The references run first on fresh Engines, so on fresh memory.
	e1, e2 := fresh(), fresh()
	want := run(e1, compile(e1, "b.mc", srcB))
	_, wantJSON := profileJSON(e2, compile(e2, "b.mc", srcB))
	// Unwritten memory reads zero, so only the 60 sum calls add 1 each.
	if want.Output[0] != 60 {
		t.Fatalf("fresh engine: B outputs %v, want 60", want.Output)
	}

	warm := fresh()
	a := compile(warm, "a.mc", srcA)
	run(warm, a)
	profileJSON(warm, a)
	b := compile(warm, "b.mc", srcB)
	gotRun := run(warm, b)
	gotProfiled, gotJSON := profileJSON(warm, b)
	for _, c := range []struct {
		name string
		got  *alchemist.RunResult
	}{{"Run", gotRun}, {"Profile", gotProfiled}} {
		if !slices.Equal(c.got.Output, want.Output) || c.got.Ret != want.Ret || c.got.Steps != want.Steps {
			t.Errorf("warm %s of B after A = %+v, fresh engine %+v", c.name, c.got, want)
		}
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Error("warm Profile of B after A: profile JSON differs from a fresh engine's")
	}
}

// bigGlobalSrc has a global array of 2^20 words (8 MiB) and touches two
// of its words.
const bigGlobalSrc = `
int g[1048576];
int main() {
	g[0] = in(0);
	g[1048575] = g[0] + 1;
	out(g[0] + g[1048575]);
	return 0;
}`

// TestWarmEngineReusesVMMemory: on a warm Engine a run or profile of a
// program with a 2^20-word global segment takes its VM memory from the
// scratch instead of allocating 8 MiB.
func TestWarmEngineReusesVMMemory(t *testing.T) {
	ctx := context.Background()
	eng := alchemist.NewEngine(alchemist.WithWorkers(1))
	prog, err := eng.Compile(ctx, "big.mc", bigGlobalSrc)
	if err != nil {
		t.Fatal(err)
	}
	rc := alchemist.RunConfig{Input: []int64{20}}
	calls := []struct {
		name string
		fn   func() error
	}{
		{"Run", func() error { _, err := eng.Run(ctx, prog, rc); return err }},
		{"Profile", func() error { _, _, err := eng.Profile(ctx, prog, alchemist.ProfileConfig{RunConfig: rc}); return err }},
	}
	for _, c := range calls {
		if err := c.fn(); err != nil { // warm-up
			t.Fatal(err)
		}
	}
	for _, c := range calls {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := c.fn(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("warm %s allocated %d bytes, want under 1 MiB", c.name, got)
		}
	}
}
