package alchemist

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"alchemist/internal/compile"
	"alchemist/internal/core"
	"alchemist/internal/obs"
	"alchemist/internal/shadow"
	"alchemist/internal/vm"
	"alchemist/internal/xtrace"
)

// DefaultCacheSize is the compiled-program cache capacity of an Engine
// built without WithCacheSize.
const DefaultCacheSize = 64

// DefaultProgramCost is the program footprint — instruction count plus
// constant count (string pool and global initializers) — charged as one
// cache cost unit. WithCacheSize(n) budgets n units, so n typical
// programs (well under DefaultProgramCost footprint each, costing one
// unit apiece) fit exactly as under the old entry-count semantics, while
// a program k times the default footprint charges k units and displaces
// proportionally more of the cache.
const DefaultProgramCost = 4096

// CompileOptions selects compilation behaviour and is part of the
// program-cache key: the same source compiled with different options
// occupies distinct cache entries.
type CompileOptions struct {
	// Optimize runs the optimization passes (constant folding,
	// unreachable-code elimination) before PCs are assigned. Profiles of
	// optimized code are still well-formed: predicates — and therefore
	// constructs — are never folded away.
	Optimize bool
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers bounds the number of batch jobs an Engine executes
// concurrently in ProfileBatch / ProfileEach / RunBatch. Values < 1 fall
// back to runtime.GOMAXPROCS(0).
func WithWorkers(n int) Option {
	return func(e *Engine) { e.workers = n }
}

// WithCacheSize sets the compiled-program cache budget in units of
// DefaultProgramCost footprint — for typical programs, the entry count.
// 0 keeps DefaultCacheSize; negative disables caching entirely. A
// single program larger than the whole budget is still cached (alone)
// rather than thrashing.
func WithCacheSize(n int) Option {
	return func(e *Engine) { e.cacheCap = n }
}

// WithRegistry installs the metrics registry the Engine instruments
// itself into, letting several engines (or other subsystems) share one
// registry behind a single /metrics endpoint. Without it each Engine
// creates its own private registry, available via Metrics().
func WithRegistry(r *obs.Registry) Option {
	return func(e *Engine) { e.reg = r }
}

// CacheStats reports compiled-program cache behaviour.
type CacheStats struct {
	// Hits and Misses count Compile/CompileWith lookups.
	Hits   int64
	Misses int64
	// Coalesced counts misses that waited on a concurrent compile of the
	// same key instead of compiling redundantly (singleflight).
	Coalesced int64
	// Evictions counts entries dropped to stay within the cost budget.
	Evictions int64
	// Entries is the current cache population.
	Entries int
	// Cost is the cached programs' total footprint in DefaultProgramCost
	// units; eviction keeps it within the WithCacheSize budget.
	Cost int64
}

// Engine is the long-lived service entry point: it owns a compiled-
// program LRU cache and a bounded worker pool for concurrent batch
// profiling. An Engine is safe for concurrent use by multiple
// goroutines; the zero value is not usable — construct one with
// NewEngine.
//
// Every engine instruments itself into an obs.Registry (its own, or one
// shared via WithRegistry): cache traffic, compiles, worker-pool queue
// depth and in-flight jobs, per-job wall time, VM dispatch-loop
// counters, and profiler shadow/pool activity. Metrics() exposes the
// registry; obs.StartServer serves it over HTTP.
type Engine struct {
	workers  int
	cacheCap int

	reg *obs.Registry
	em  *engineMetrics
	vmm *vm.Metrics

	// sem bounds concurrent batch jobs across all ProfileBatch,
	// ProfileEach and RunBatch calls on this Engine.
	sem chan struct{}

	// free holds idle scratch (VM memory, shadow memory, construct
	// pool) for the next run or profile. It keeps at most Workers() of
	// them, so what the Engine retains is bounded by the jobs it runs at
	// once, and a garbage collection does not drop them.
	free chan *core.Scratch

	mu     sync.Mutex
	cache  map[programKey]*list.Element
	order  *list.List // front = most recently used
	flight map[programKey]*compileFlight
	cost   int64 // total cached cost, DefaultProgramCost units
	stats  CacheStats
}

// engineMetrics is the Engine's pre-resolved instrument set.
type engineMetrics struct {
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	coalesced      *obs.Counter
	compiles       *obs.Counter
	compileErrors  *obs.Counter
	cacheEntries   *obs.Gauge
	cacheCost      *obs.Gauge

	queueDepth   *obs.Gauge
	inflightJobs *obs.Gauge
	jobs         *obs.Counter
	jobErrors    *obs.Counter
	jobWall      *obs.Histogram

	scratchGets *obs.Counter
	scratchPuts *obs.Counter
	scratchNews *obs.Counter
	scratchIdle *obs.Gauge

	shadowLoads   *obs.Counter
	shadowStores  *obs.Counter
	poolReused    *obs.Counter
	poolAllocated *obs.Counter
}

func newEngineMetrics(r *obs.Registry) *engineMetrics {
	return &engineMetrics{
		cacheHits: r.Counter("alchemist_engine_cache_hits_total",
			"Compiled-program cache lookups served from the cache."),
		cacheMisses: r.Counter("alchemist_engine_cache_misses_total",
			"Compiled-program cache lookups that had to compile or wait."),
		cacheEvictions: r.Counter("alchemist_engine_cache_evictions_total",
			"Cache entries dropped to stay within the cost budget."),
		coalesced: r.Counter("alchemist_engine_singleflight_coalesced_total",
			"Cache misses that waited on an in-flight compile of the same key."),
		compiles: r.Counter("alchemist_engine_compiles_total",
			"Full lexer/parser/sema/compile pipeline runs."),
		compileErrors: r.Counter("alchemist_engine_compile_errors_total",
			"Compile pipeline runs that failed."),
		cacheEntries: r.Gauge("alchemist_engine_cache_entries",
			"Current compiled-program cache population."),
		cacheCost: r.Gauge("alchemist_engine_cache_cost_units",
			"Current cache footprint in DefaultProgramCost units."),
		queueDepth: r.Gauge("alchemist_engine_queue_depth",
			"Batch jobs waiting for a worker slot."),
		inflightJobs: r.Gauge("alchemist_engine_inflight_jobs",
			"Batch jobs currently executing."),
		jobs: r.Counter("alchemist_engine_jobs_total",
			"Batch profiling jobs completed, including failed ones."),
		jobErrors: r.Counter("alchemist_engine_job_errors_total",
			"Batch profiling jobs that failed (including cancellations)."),
		jobWall: r.Histogram("alchemist_engine_job_wall_seconds",
			"Wall-clock time of one batch profiling job.", nil),
		scratchGets: r.Counter("alchemist_engine_scratch_gets_total",
			"Scratch buffers checked out of the free list by sequential runs and profiles."),
		scratchPuts: r.Counter("alchemist_engine_scratch_puts_total",
			"Scratch buffers returned to the free list by sequential runs and profiles."),
		scratchNews: r.Counter("alchemist_engine_scratch_news_total",
			"Scratch buffers newly made because the free list was empty."),
		scratchIdle: r.Gauge("alchemist_engine_scratch_idle_bytes",
			"Bytes held by idle scratch buffers on the free list: VM memory, shadow memory and construct pool."),
		shadowLoads: r.Counter("alchemist_profile_shadow_loads_total",
			"Shadow-memory read records across profiled runs."),
		shadowStores: r.Counter("alchemist_profile_shadow_stores_total",
			"Shadow-memory write records across profiled runs."),
		poolReused: r.Counter("alchemist_profile_pool_reused_total",
			"Construct-pool acquisitions served by recycling a retired node."),
		poolAllocated: r.Counter("alchemist_profile_pool_allocated_total",
			"Construct-pool nodes allocated fresh."),
	}
}

// programKey identifies one cache entry: the source identity plus every
// compile option that changes the produced bytecode.
type programKey struct {
	name     string
	srcHash  [sha256.Size]byte
	optimize bool
}

type programEntry struct {
	key  programKey
	prog *Program
	cost int64
}

// compileFlight is one in-flight compile that concurrent misses of the
// same key wait on instead of compiling redundantly.
type compileFlight struct {
	done chan struct{}
	prog *Program
	err  error
}

// NewEngine builds an Engine. With no options it caches up to
// DefaultCacheSize programs and profiles batches with GOMAXPROCS
// workers.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{cacheCap: DefaultCacheSize}
	for _, o := range opts {
		o(e)
	}
	if e.workers < 1 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	if e.cacheCap == 0 {
		e.cacheCap = DefaultCacheSize
	}
	if e.reg == nil {
		e.reg = obs.NewRegistry()
	}
	e.em = newEngineMetrics(e.reg)
	e.vmm = vm.NewMetrics(e.reg)
	e.free = make(chan *core.Scratch, e.workers)
	e.sem = make(chan struct{}, e.workers)
	if e.cacheCap > 0 {
		e.cache = make(map[programKey]*list.Element)
		e.order = list.New()
		e.flight = make(map[programKey]*compileFlight)
	}
	return e
}

// Workers reports the batch-profiling concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Metrics returns the registry this Engine instruments itself into —
// the one installed with WithRegistry, or the Engine's private one.
// Serve it with obs.StartServer or render it with WritePrometheus /
// WriteJSON.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// CacheStats returns a snapshot of the compiled-program cache counters.
func (e *Engine) CacheStats() CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// programCost charges a compiled program's footprint (instructions plus
// constants) in DefaultProgramCost units, minimum one.
func programCost(p *Program) int64 {
	foot := int64(p.ir.NumPCs) + int64(len(p.ir.Strings)) + int64(len(p.ir.GlobalInit))
	units := (foot + DefaultProgramCost - 1) / DefaultProgramCost
	if units < 1 {
		units = 1
	}
	return units
}

// Compile returns the compiled program for (name, src), reusing the
// cache when the same source was compiled with the same options before.
// Hot sources therefore skip the lexer/parser/sema/compile pipeline
// entirely. The returned *Program is shared: it is immutable after
// compilation and safe for concurrent Run/Profile calls.
func (e *Engine) Compile(ctx context.Context, name, src string) (*Program, error) {
	return e.CompileWith(ctx, name, src, CompileOptions{})
}

// CompileWith is Compile with explicit per-call options. Concurrent
// misses of the same (source, options) key are singleflighted: one call
// compiles while the others wait for its result, so a thundering herd
// on a cold source costs one pipeline run, not one per caller.
func (e *Engine) CompileWith(ctx context.Context, name, src string, co CompileOptions) (*Program, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, sp := xtrace.StartSpan(ctx, "compile")
	defer sp.End()
	if e.cache == nil { // caching disabled
		sp.SetAttr("cache", "off")
		return e.compileCounted(name, src, co)
	}
	key := programKey{name: name, srcHash: sha256.Sum256([]byte(src)), optimize: co.Optimize}

	e.mu.Lock()
	if el, ok := e.cache[key]; ok {
		e.order.MoveToFront(el)
		e.stats.Hits++
		e.em.cacheHits.Inc()
		prog := el.Value.(*programEntry).prog
		e.mu.Unlock()
		sp.SetAttr("cache", "hit")
		return prog, nil
	}
	e.stats.Misses++
	e.em.cacheMisses.Inc()
	if fl, ok := e.flight[key]; ok {
		// Coalesce onto the in-flight compile of the same key.
		e.stats.Coalesced++
		e.em.coalesced.Inc()
		e.mu.Unlock()
		sp.SetAttr("cache", "coalesced")
		select {
		case <-fl.done:
			return fl.prog, fl.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	fl := &compileFlight{done: make(chan struct{})}
	e.flight[key] = fl
	e.mu.Unlock()
	sp.SetAttr("cache", "miss")

	// Compile outside the lock: a slow compile must not stall cache hits
	// on other sources. Waiters for this key block on fl.done instead.
	prog, err := e.compileCounted(name, src, co)
	if err != nil {
		sp.SetAttr("error", err.Error())
	}

	e.mu.Lock()
	fl.prog, fl.err = prog, err
	delete(e.flight, key)
	if err == nil {
		e.insertLocked(key, prog)
	}
	e.mu.Unlock()
	close(fl.done)
	return prog, err
}

// compileCounted runs the full lexer/parser/sema/compile pipeline under
// the pipeline counters.
func (e *Engine) compileCounted(name, src string, co CompileOptions) (*Program, error) {
	e.em.compiles.Inc()
	p, err := compile.BuildConfig(name, src, compile.Config{Optimize: co.Optimize})
	if err != nil {
		e.em.compileErrors.Inc()
		return nil, err
	}
	return &Program{ir: p, Source: src, Name: name}, nil
}

// insertLocked caches prog under key and evicts from the LRU tail until
// the total cost fits the budget again. The newest entry is never
// evicted, so one oversized program caches alone instead of thrashing.
func (e *Engine) insertLocked(key programKey, prog *Program) {
	if el, ok := e.cache[key]; ok { // lost a benign race; adopt
		e.order.MoveToFront(el)
		return
	}
	cost := programCost(prog)
	el := e.order.PushFront(&programEntry{key: key, prog: prog, cost: cost})
	e.cache[key] = el
	e.cost += cost
	for e.cost > int64(e.cacheCap) && e.order.Len() > 1 {
		oldest := e.order.Back()
		ent := oldest.Value.(*programEntry)
		e.order.Remove(oldest)
		delete(e.cache, ent.key)
		e.cost -= ent.cost
		e.stats.Evictions++
		e.em.cacheEvictions.Inc()
	}
	e.stats.Entries = e.order.Len()
	e.stats.Cost = e.cost
	e.em.cacheEntries.Set(int64(e.order.Len()))
	e.em.cacheCost.Set(e.cost)
}

// Run executes p without instrumentation under ctx. Cancellation is
// observed by every interpreter goroutine within one VM step-check
// window (vm.CancelCheckInterval instructions); the error is then
// ctx.Err(). A sequential run keeps its VM memory in a scratch from the
// free list Profile uses; a Parallel run allocates its whole memory cap
// and takes none.
func (e *Engine) Run(ctx context.Context, p *Program, cfg RunConfig) (*RunResult, error) {
	var sc *core.Scratch
	if !cfg.Parallel {
		sc = e.scratchGet()
		defer e.scratchPut(sc)
	}
	return core.RunProgramCtx(ctx, p.ir, cfg.vmConfig(e.vmm), sc)
}

// Profile executes p sequentially under the profiler under ctx, observing
// ctx like Run does. A config requesting parallel execution is rejected
// with ErrProfileNeedsSequential.
func (e *Engine) Profile(ctx context.Context, p *Program, cfg ProfileConfig) (*Profile, *RunResult, error) {
	if cfg.Parallel || cfg.SimWorkers > 0 {
		return nil, nil, ErrProfileNeedsSequential
	}
	if cfg.ReaderSlots > shadow.MaxReaderSlots {
		return nil, nil, fmt.Errorf("alchemist: %d reader slots, at most %d", cfg.ReaderSlots, shadow.MaxReaderSlots)
	}
	opts := core.DefaultOptions()
	opts.TrackWAR = !cfg.DisableWAR
	opts.TrackWAW = !cfg.DisableWAW
	opts.ReaderSlots = cfg.ReaderSlots
	opts.PoolPrealloc = cfg.PoolPrealloc
	opts.Scratch = e.scratchGet()
	defer e.scratchPut(opts.Scratch)
	prof, res, err := core.ProfileProgramCtx(ctx, p.ir, cfg.vmConfig(e.vmm), opts)
	e.flushProfileStats(prof)
	return prof, res, err
}

// ProfileJob is one profiling run within a batch: an input stream plus
// an optional per-job config.
type ProfileJob struct {
	// Input is served to the program via the in()/inlen() builtins.
	Input []int64
	// Config configures this job; nil means the zero ProfileConfig. A
	// non-nil Input above replaces the config's Input field. Set
	// Config.OnProgress for per-job step reports; it is called from the
	// job's worker goroutine, so one callback shared across jobs must be
	// safe for concurrent use.
	Config *ProfileConfig
}

// RunJob is one uninstrumented execution within a batch: an input
// stream plus an optional per-job run config.
type RunJob struct {
	// Input is served to the program via the in()/inlen() builtins.
	Input []int64
	// Config configures this job exactly as ProfileJob.Config does; nil
	// means the zero RunConfig.
	Config *RunConfig
}

// BatchResult is the outcome of one ProfileJob or RunJob.
type BatchResult struct {
	// Job indexes into the jobs slice passed to the batch call.
	Job int
	// Profile (profiling jobs only) and Run are set when Err is nil.
	Profile *Profile
	Run     *RunResult
	// Err is the job's failure, including ctx.Err() for jobs abandoned
	// after cancellation.
	Err error
}

// scratchGet takes an idle scratch off the free list, or makes one when
// more runs and profiles run at once than the list holds.
func (e *Engine) scratchGet() *core.Scratch {
	e.em.scratchGets.Inc()
	select {
	case sc := <-e.free:
		e.em.scratchIdle.Add(-sc.Bytes())
		return sc
	default:
		e.em.scratchNews.Inc()
		return &core.Scratch{}
	}
}

// scratchPut returns sc to the free list, or drops it when the list is
// full. Its size is read first: once listed, another job may take it.
func (e *Engine) scratchPut(sc *core.Scratch) {
	e.em.scratchPuts.Inc()
	held := sc.Bytes()
	select {
	case e.free <- sc:
		e.em.scratchIdle.Add(held)
	default:
	}
}

// flushProfileStats folds one finished profile's shadow-memory and
// construct-pool counters into the registry. Nil profiles are ignored.
func (e *Engine) flushProfileStats(prof *Profile) {
	if prof == nil {
		return
	}
	e.em.shadowLoads.Add(prof.Shadow.Loads)
	e.em.shadowStores.Add(prof.Shadow.Stores)
	e.em.poolReused.Add(prof.Pool.Reused)
	e.em.poolAllocated.Add(prof.Pool.Allocated)
}

// fanOut schedules n batch jobs onto the engine's worker pool, streaming
// one result per job in completion order on the returned channel (closed
// after the last result). Jobs wait in the queue-depth gauge until a
// worker slot frees; cancellation fails not-yet-started jobs with
// ctx.Err().
func (e *Engine) fanOut(ctx context.Context, kind string, n int, run func(ctx context.Context, i int) BatchResult) <-chan BatchResult {
	if ctx == nil { // tolerate nil like every other entry point
		ctx = context.Background()
	}
	out := make(chan BatchResult, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(ctx context.Context, i int) {
			defer wg.Done()
			out <- e.slot(ctx, kind, i, run)
		}(ctx, i)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// slot runs batch job i on a worker slot once one frees. The job gets a
// span named by kind, a batch_job pprof label narrowing CPU samples to
// it (the worker goroutine inherits any job_id/endpoint labels from its
// spawner), and one count in the in-flight, wall-time and job metrics.
func (e *Engine) slot(ctx context.Context, kind string, i int, run func(ctx context.Context, i int) BatchResult) BatchResult {
	e.em.queueDepth.Add(1)
	select {
	case e.sem <- struct{}{}:
		e.em.queueDepth.Add(-1)
		defer func() { <-e.sem }()
	case <-ctx.Done():
		e.em.queueDepth.Add(-1)
		e.em.jobs.Inc()
		e.em.jobErrors.Inc()
		return BatchResult{Job: i, Err: ctx.Err()}
	}
	label := strconv.Itoa(i)
	_, sp := xtrace.StartSpan(ctx, kind)
	sp.SetAttr("batch_job", label)

	e.em.inflightJobs.Add(1)
	start := time.Now()
	var r BatchResult
	pprof.Do(ctx, pprof.Labels("batch_job", label), func(ctx context.Context) {
		r = run(ctx, i)
	})
	e.em.jobWall.Observe(time.Since(start).Seconds())
	e.em.inflightJobs.Add(-1)
	e.em.jobs.Inc()
	if r.Err != nil {
		e.em.jobErrors.Inc()
		sp.SetAttr("error", r.Err.Error())
	}
	sp.End()
	r.Job = i
	return r
}

// collect gathers a fan-out's results in job order. The error is the
// failure of the lowest-indexed failing job; the results still carry
// every individual outcome.
func collect(ch <-chan BatchResult, n int) ([]BatchResult, error) {
	results := make([]BatchResult, n)
	for r := range ch {
		results[r.Job] = r
	}
	for i, r := range results {
		if r.Err != nil {
			return results, fmt.Errorf("alchemist: batch job %d: %w", i, r.Err)
		}
	}
	return results, nil
}

// ProfileEach fans the jobs over the engine's worker pool, running each
// through Engine.Profile, and streams one BatchResult per job in
// completion order. The returned channel is closed after the last
// result. Cancelling ctx aborts running jobs (each observes it within
// one VM step-check window) and fails not-yet-started ones with
// ctx.Err().
func (e *Engine) ProfileEach(ctx context.Context, p *Program, jobs []ProfileJob) <-chan BatchResult {
	return e.fanOut(ctx, "profile", len(jobs), func(ctx context.Context, i int) BatchResult {
		var cfg ProfileConfig
		if jobs[i].Config != nil {
			cfg = *jobs[i].Config
		}
		if jobs[i].Input != nil {
			cfg.Input = jobs[i].Input
		}
		prof, res, err := e.Profile(ctx, p, cfg)
		return BatchResult{Profile: prof, Run: res, Err: err}
	})
}

// ProfileBatch profiles p over all jobs concurrently and merges the
// per-job profiles, in job order, into one union profile — equivalent
// to (and byte-identical with, via WriteJSON) calling Profile per job
// sequentially and passing the results to Merge. The per-job results
// are returned in job order alongside the merged profile. If any job
// fails, the merged profile is nil and the error is the failure of the
// lowest-indexed failing job.
func (e *Engine) ProfileBatch(ctx context.Context, p *Program, jobs []ProfileJob) (*Profile, []BatchResult, error) {
	if len(jobs) == 0 {
		return nil, nil, fmt.Errorf("alchemist: ProfileBatch needs at least one job")
	}
	results, err := collect(e.ProfileEach(ctx, p, jobs), len(jobs))
	if err != nil {
		return nil, results, err
	}
	profiles := make([]*Profile, len(jobs))
	for i, r := range results {
		profiles[i] = r.Profile
	}
	merged, err := Merge(profiles...)
	if err != nil {
		return nil, results, err
	}
	return merged, results, nil
}

// RunBatch executes p over all jobs concurrently through Engine.Run, on
// the same worker pool as the profiling batches, so mixed run/profile
// load shares one concurrency bound. Results come back in job order,
// and the returned error is the failure of the lowest-indexed failing
// job (the per-job results still carry every individual outcome).
func (e *Engine) RunBatch(ctx context.Context, p *Program, jobs []RunJob) ([]BatchResult, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("alchemist: RunBatch needs at least one job")
	}
	return collect(e.fanOut(ctx, "run", len(jobs), func(ctx context.Context, i int) BatchResult {
		var cfg RunConfig
		if jobs[i].Config != nil {
			cfg = *jobs[i].Config
		}
		if jobs[i].Input != nil {
			cfg.Input = jobs[i].Input
		}
		res, err := e.Run(ctx, p, cfg)
		return BatchResult{Run: res, Err: err}
	}), len(jobs))
}
