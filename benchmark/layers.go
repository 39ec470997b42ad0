package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"alchemist"
	"alchemist/internal/compile"
	"alchemist/internal/core"
	"alchemist/internal/indexing"
	"alchemist/internal/ir"
	"alchemist/internal/shadow"
	"alchemist/internal/vm"
)

// ---------- spans ----------

// span is one timed call into a layer, recorded from the benchmark side of
// the call.
type span struct {
	Name   string
	Op     int
	Parent int // index of the enclosing span, -1 for none
	Start  int64
	End    int64
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call.
type spanRecorder struct {
	mu    sync.Mutex
	spans []span
}

// start opens a span and returns its id for end and for children.
func (s *spanRecorder) start(name string, op, parent int) int {
	if s == nil {
		return -1
	}
	t := nanotime()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans = append(s.spans, span{Name: name, Op: op, Parent: parent, Start: t})
	return len(s.spans) - 1
}

func (s *spanRecorder) end(id int) {
	if s == nil {
		return
	}
	t := nanotime()
	s.mu.Lock()
	s.spans[id].End = t
	s.mu.Unlock()
}

// spanStat aggregates the spans of one name. Self time is a span's
// duration minus the part of it its children cover.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (s *spanRecorder) summary() []spanStat {
	if s == nil {
		return nil
	}
	children := map[int][][2]int64{}
	for _, sp := range s.spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], [2]int64{sp.Start, sp.End})
		}
	}
	by := map[string]*spanStat{}
	var names []string
	for i, sp := range s.spans {
		st := by[sp.Name]
		if st == nil {
			st = &spanStat{Name: sp.Name}
			by[sp.Name] = st
			names = append(names, sp.Name)
		}
		d := sp.End - sp.Start
		st.Count++
		st.TotalMS += float64(d) / 1e6
		st.SelfMS += float64(d-covered(children[i], sp.Start, sp.End)) / 1e6
	}
	out := make([]spanStat, 0, len(names))
	for _, n := range names {
		out = append(out, *by[n])
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64 = 0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], end), min(iv[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// ---------- sampled clock ----------

var epoch = time.Now()

// nanotime reads the monotonic clock in nanoseconds since start-up.
func nanotime() int64 { return int64(time.Since(epoch)) }

// sampleMask selects one call in 64 per event kind for timing.
const sampleMask = 63

// clock is the sampled timer of one event kind. Each sampled call is timed
// together with an empty region read just before it, so the timer's own
// cost is measured under the same conditions and subtracted.
type clock struct{ calls, sampled, ns, emptyNs int64 }

func (c *clock) hit(phase int64) bool {
	c.calls++
	return (c.calls+phase)&sampleMask == 0
}

// add records one sampled call: [a, s) is the empty region, [s, e) the call.
func (c *clock) add(a, s, e int64) {
	c.emptyNs += s - a
	c.ns += e - s
	c.sampled++
}

func (c *clock) merge(o clock) {
	c.calls += o.calls
	c.sampled += o.sampled
	c.ns += o.ns
	c.emptyNs += o.emptyNs
}

// busyNs estimates the kind's total time: the mean sampled duration less
// the timer's own cost, times the call count.
func (c *clock) busyNs() float64 {
	if c.sampled == 0 {
		return 0
	}
	return max(float64(c.ns-c.emptyNs), 0) / float64(c.sampled) * float64(c.calls)
}

func (c *clock) meanNs() float64 { return ratio(c.busyNs(), float64(c.calls)) }

// clockTracer forwards every VM event to a core.Profiler and times one
// call in 64 per event kind. Step is not timed: it costs less than the
// timer's own jitter, so its time is taken as the residual of whole runs.
// Each Load and Store is mirrored into a standalone shadow.Memory, which
// gives the shadow-only cost and the RAW/WAR/WAW dependence counts;
// profiler Load/Store time minus the mirror's time is the Table II walk.
type clockTracer struct {
	p      *core.Profiler
	mirror *shadow.Memory
	phase  int64

	branch, frame, load, store clock
	shLoad, shStore            clock
	raw, war, waw              int64
}

func (t *clockTracer) Step(gpc int) { t.p.Step(gpc) }

func (t *clockTracer) Branch(in *ir.Instr, gpc int, taken bool) {
	if !t.branch.hit(t.phase) {
		t.p.Branch(in, gpc, taken)
		return
	}
	a, s := nanotime(), nanotime()
	t.p.Branch(in, gpc, taken)
	t.branch.add(a, s, nanotime())
}

func (t *clockTracer) EnterFunc(f *ir.Func) {
	if !t.frame.hit(t.phase) {
		t.p.EnterFunc(f)
		return
	}
	a, s := nanotime(), nanotime()
	t.p.EnterFunc(f)
	t.frame.add(a, s, nanotime())
}

func (t *clockTracer) ExitFunc(f *ir.Func) {
	if !t.frame.hit(t.phase) {
		t.p.ExitFunc(f)
		return
	}
	a, s := nanotime(), nanotime()
	t.p.ExitFunc(f)
	t.frame.add(a, s, nanotime())
}

func (t *clockTracer) Load(addr int64, gpc int) {
	if t.load.hit(t.phase) {
		a, s := nanotime(), nanotime()
		t.p.Load(addr, gpc)
		t.load.add(a, s, nanotime())
	} else {
		t.p.Load(addr, gpc)
	}
	now := t.p.Time()
	var raw bool
	if t.shLoad.hit(t.phase) {
		a, s := nanotime(), nanotime()
		_, raw = t.mirror.Load(addr, int32(gpc), now, nil)
		t.shLoad.add(a, s, nanotime())
	} else {
		_, raw = t.mirror.Load(addr, int32(gpc), now, nil)
	}
	if raw {
		t.raw++
	}
}

func (t *clockTracer) Store(addr int64, gpc int) {
	if t.store.hit(t.phase) {
		a, s := nanotime(), nanotime()
		t.p.Store(addr, gpc)
		t.store.add(a, s, nanotime())
	} else {
		t.p.Store(addr, gpc)
	}
	now := t.p.Time()
	var waw bool
	var readers []shadow.Access
	if t.shStore.hit(t.phase) {
		a, s := nanotime(), nanotime()
		_, waw, readers = t.mirror.Store(addr, int32(gpc), now, nil)
		t.shStore.add(a, s, nanotime())
	} else {
		_, waw, readers = t.mirror.Store(addr, int32(gpc), now, nil)
	}
	if waw {
		t.waw++
	}
	t.war += int64(len(readers))
}

// countTracer is the no-op tracer: it only counts calls, so running under
// it measures what the tracer interface costs the VM per event.
type countTracer struct{ calls int64 }

func (*countTracer) Step(int)                    {}
func (*countTracer) Load(int64, int)             {}
func (*countTracer) Store(int64, int)            {}
func (t *countTracer) EnterFunc(*ir.Func)        { t.calls++ }
func (*countTracer) ExitFunc(*ir.Func)           {}
func (*countTracer) Branch(*ir.Instr, int, bool) {}

// ---------- per-layer decomposition ----------

// layerItem is one program run the traced mode splits into layers. Items
// with the same group form one batch and are merged.
type layerItem struct {
	name, src string
	input     []int64
	memWords  int64
	group     int
}

// layerSums accumulates one pass over a workload's items.
type layerSums struct {
	compileNs, vmNewNs, newPoolNs, nativeNs, noopNs, plainNs int64
	profRunNs, wrappedRunNs, finishNs, mergeNs, jsonNs       int64
	instrs, steps, calls, jsonBytes                          int64
	static, dynamic, edges, violatingRAW                     int64
	raw, war, waw                                            int64
	sh                                                       shadow.Stats
	pool                                                     indexing.PoolStats
	branch, frame, load, store, shLoad, shStore              clock
}

// layerReps is how often each layer call repeats per item of a workload
// with n items. Medians are kept, so a cold first call (page faults, heap
// growth) does not stand for the layer. Workloads with many items repeat
// less: their noise averages out across items, and the traced run stays
// short.
func layerReps(n int) int { return min(3, max(1, 24/n)) }

// timed runs fn after a GC and returns its wall time.
func timed(fn func()) int64 {
	runtime.GC()
	s := nanotime()
	fn()
	return nanotime() - s
}

func medianNs(v []int64) int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s[len(s)/2]
}

// profileRun repeats core.ProfileProgramCtx call by call: NewProfiler,
// vm.New with the tracer set, Run, Finish. It optionally wraps the
// profiler in a clockTracer, and returns the Run and Finish times.
func profileRun(prog *ir.Program, cfg vm.Config, wrap *clockTracer) (prof *core.Profile, runNs, finishNs int64, err error) {
	if cfg.MemWords == 0 {
		cfg.MemWords = 1 << 22
	}
	p := core.NewProfiler(prog, cfg.MemWords, core.DefaultOptions())
	cfg.Tracer = p
	if wrap != nil {
		wrap.p = p
		wrap.mirror = shadow.New(cfg.MemWords, 0)
		cfg.Tracer = wrap
	}
	m, err := vm.New(prog, cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	s := nanotime()
	if _, err := m.Run(); err != nil {
		return nil, 0, 0, err
	}
	f := nanotime()
	prof = p.Finish()
	return prof, f - s, nanotime() - f, nil
}

// decompose runs every item through each layer boundary and stores the
// per-layer metrics. The layer-by-layer profile and the one under the clock
// wrapper must both hash the same as Engine.Profile, or the split does not
// measure what users run.
func (r *runner) decompose(items []layerItem) {
	var t layerSums
	reps := layerReps(len(items))
	if r.cfg.small {
		reps = 1
	}
	groups := map[int][]*core.Profile{}
	for _, it := range items {
		sp := r.spans.start("layers "+it.name, -1, -1)
		prof, err := t.add(r, it, reps, sp)
		r.spans.end(sp)
		r.check("layers "+it.name, err)
		if prof != nil {
			groups[it.group] = append(groups[it.group], prof)
		}
	}
	for _, ps := range groups {
		if len(ps) > 1 {
			sp := r.spans.start("core.Merge", -1, -1)
			t.mergeNs += timed(func() { _, _ = core.Merge(ps...) })
			r.spans.end(sp)
		}
	}
	t.metrics(r.metrics)
}

func (t *layerSums) add(r *runner, it layerItem, reps, parent int) (*core.Profile, error) {
	times := map[string][]int64{}
	cfg := vm.Config{Input: it.input, MemWords: it.memWords}
	var (
		prog        *ir.Program
		m           *vm.VM
		res         *vm.Result
		prof, wprof *core.Profile
		ct          *clockTracer
		noop        *countTracer
		enc         []byte
		run, wrun   int64
		finish      int64
	)
	for rep := 0; rep < reps; rep++ {
		noop = &countTracer{}
		ncfg := cfg
		ncfg.Tracer = noop
		ct = &clockTracer{phase: int64(r.cfg.seed % (sampleMask + 1))}
		calls := []struct {
			name string
			fn   func() error
		}{
			{"compile.Build", func() (err error) { prog, err = compile.Build(it.name+".mc", it.src); return err }},
			{"vm.New", func() (err error) { m, err = vm.New(prog, cfg); return err }},
			{"VM.Run", func() (err error) { res, err = m.Run(); return err }},
			{"vm.New", func() (err error) { m, err = vm.New(prog, ncfg); return err }},
			{"VM.Run no-op tracer", func() (err error) { _, err = m.Run(); return err }},
			{"indexing.NewPool", func() error { indexing.NewPool(1 << 16); return nil }},
			{"profile", func() (err error) { prof, run, finish, err = profileRun(prog, cfg, nil); return err }},
			{"profile clock-traced", func() (err error) { wprof, wrun, _, err = profileRun(prog, cfg, ct); return err }},
			{"report.WriteJSON", func() (err error) { enc, err = profileJSON(prof); return err }},
		}
		for _, c := range calls {
			var err error
			sp := r.spans.start(c.name, -1, parent)
			times[c.name] = append(times[c.name], timed(func() { err = c.fn() }))
			r.spans.end(sp)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
		}
		times["profile run"] = append(times["profile run"], run)
		times["profile clock-traced run"] = append(times["profile clock-traced run"], wrun)
		times["Profiler.Finish"] = append(times["Profiler.Finish"], finish)
	}
	// The untraced reference is what a user gets: Engine.Profile.
	eng := alchemist.NewEngine(alchemist.WithWorkers(1))
	ctx := context.Background()
	p, err := eng.Compile(ctx, it.name+".mc", it.src)
	var ref *alchemist.Profile
	if err == nil {
		ref, _, err = eng.Profile(ctx, p, alchemist.ProfileConfig{RunConfig: alchemist.RunConfig{Input: it.input, MemWords: it.memWords}})
	}
	if err != nil {
		return nil, fmt.Errorf("Engine.Profile: %w", err)
	}
	want, err := profileJSON(ref)
	if err != nil {
		return nil, err
	}
	for _, got := range []*core.Profile{prof, wprof} {
		enc, err := profileJSON(got)
		if err != nil {
			return nil, err
		}
		if hashOf(enc) != hashOf(want) {
			return nil, errors.New("layer-by-layer profile differs from Engine.Profile")
		}
	}

	med := func(name string) int64 { return medianNs(times[name]) }
	t.compileNs += med("compile.Build")
	t.vmNewNs += med("vm.New")
	t.nativeNs += med("VM.Run")
	t.noopNs += med("VM.Run no-op tracer")
	t.newPoolNs += med("indexing.NewPool")
	t.plainNs += med("profile")
	t.wrappedRunNs += med("profile clock-traced run")
	t.profRunNs += med("profile run")
	t.finishNs += med("Profiler.Finish")
	t.jsonNs += med("report.WriteJSON")
	t.jsonBytes += int64(len(enc))
	t.instrs += int64(prog.NumPCs)
	t.steps += res.Steps
	t.calls += noop.calls

	t.static += prof.StaticConstructs
	t.dynamic += prof.DynamicConstructs
	t.violatingRAW += int64(prof.TotalViolating(core.RAW))
	for _, c := range prof.Constructs {
		t.edges += int64(len(c.Edges))
	}
	t.sh.Loads += prof.Shadow.Loads
	t.sh.Stores += prof.Shadow.Stores
	t.sh.PagesAllocated += prof.Shadow.PagesAllocated
	t.sh.EvictedReaders += prof.Shadow.EvictedReaders
	t.pool.Allocated += prof.Pool.Allocated
	t.pool.Reused += prof.Pool.Reused
	t.pool.Rotations += prof.Pool.Rotations
	t.raw += ct.raw
	t.war += ct.war
	t.waw += ct.waw
	t.branch.merge(ct.branch)
	t.frame.merge(ct.frame)
	t.load.merge(ct.load)
	t.store.merge(ct.store)
	t.shLoad.merge(ct.shLoad)
	t.shStore.merge(ct.shStore)
	return prof, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (t *layerSums) metrics(m map[string]float64) {
	const ms = 1e6
	steps := float64(t.steps)
	m["compile.ms"] = float64(t.compileNs) / ms
	m["compile.instrs"] = float64(t.instrs)

	m["vm.steps"] = steps
	m["vm.calls"] = float64(t.calls)
	m["vm.new_ms"] = float64(t.vmNewNs) / ms
	m["vm.native_ns_per_step"] = ratio(float64(t.nativeNs), steps)
	m["vm.tracer_call_ns_per_step"] = ratio(float64(t.noopNs-t.nativeNs), steps)

	shadowNs := t.shLoad.busyNs() + t.shStore.busyNs()
	walkNs := max(t.load.busyNs()+t.store.busyNs()-shadowNs, 0)
	// Step: the profiled run less the run under a no-op tracer (VM dispatch
	// and the tracer calls themselves) less the other kinds' busy time.
	stepNs := max(float64(t.profRunNs-t.noopNs)-t.branch.busyNs()-t.frame.busyNs()-t.load.busyNs()-t.store.busyNs(), 0)
	m["core.step_ms"] = stepNs / ms
	m["core.step_ns"] = ratio(stepNs, steps)
	m["core.branch_ms"] = t.branch.busyNs() / ms
	m["core.branch_ns"] = t.branch.meanNs()
	m["core.frame_ms"] = t.frame.busyNs() / ms
	m["core.load_ms"] = t.load.busyNs() / ms
	m["core.load_ns"] = t.load.meanNs()
	m["core.store_ms"] = t.store.busyNs() / ms
	m["core.store_ns"] = t.store.meanNs()
	m["core.walk_ms"] = walkNs / ms
	m["core.walk_ns_per_dep"] = ratio(walkNs, float64(t.raw+t.war+t.waw))
	m["core.deps_raw"] = float64(t.raw)
	m["core.deps_war"] = float64(t.war)
	m["core.deps_waw"] = float64(t.waw)
	m["core.finish_ms"] = float64(t.finishNs) / ms
	m["core.merge_ms"] = float64(t.mergeNs) / ms
	m["core.ns_per_step"] = ratio(float64(t.profRunNs), steps)
	m["core.slowdown_x"] = ratio(float64(t.plainNs), float64(t.vmNewNs+t.nativeNs))
	m["core.static_constructs"] = float64(t.static)
	m["core.dynamic_constructs"] = float64(t.dynamic)
	m["core.edges"] = float64(t.edges)
	m["core.violating_raw"] = float64(t.violatingRAW)

	m["shadow.ms"] = shadowNs / ms
	m["shadow.load_ns"] = t.shLoad.meanNs()
	m["shadow.store_ns"] = t.shStore.meanNs()
	m["shadow.loads"] = float64(t.sh.Loads)
	m["shadow.stores"] = float64(t.sh.Stores)
	m["shadow.pages"] = float64(t.sh.PagesAllocated)
	m["shadow.evicted_readers"] = float64(t.sh.EvictedReaders)

	m["indexing.newpool_ms"] = float64(t.newPoolNs) / ms
	m["indexing.pool_allocated"] = float64(t.pool.Allocated)
	m["indexing.pool_reused"] = float64(t.pool.Reused)
	m["indexing.pool_rotations"] = float64(t.pool.Rotations)
	m["indexing.reuse_ratio"] = ratio(float64(t.pool.Reused), float64(t.dynamic))

	m["report.json_ms"] = float64(t.jsonNs) / ms
	m["report.json_bytes"] = float64(t.jsonBytes)

	m["trace_overhead_pct"] = 100 * ratio(float64(t.wrappedRunNs-t.profRunNs), float64(t.profRunNs))
}
