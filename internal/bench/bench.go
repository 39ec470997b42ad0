// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§IV) from the embedded workloads:
// Table III (profiling cost and construct counts), Fig. 6(a)–(d) (profile
// quality on previously-parallelized programs), Table IV (conflict counts
// at the parallelized locations), and Table V (realized speedups of the
// spawn/sync variants). Every experiment compiles, runs and profiles
// through an alchemist.Engine; only the ablation helper Profile calls
// the profiler core directly.
package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"alchemist"
	"alchemist/internal/core"
	"alchemist/internal/indexing"
	"alchemist/internal/obs"
	"alchemist/internal/progs"
	"alchemist/internal/report"
	"alchemist/internal/vm"
)

// Scale selects input sizes: each workload's default (the paper
// configuration), or its small input.
type Scale struct {
	// Small uses each workload's SmallScale input (fast CI runs).
	Small bool
}

// runConfig is the run configuration of workload w at scale sc.
func runConfig(w *progs.Workload, sc Scale) alchemist.RunConfig {
	scale := 0
	if sc.Small {
		scale = w.SmallScale
	}
	return alchemist.RunConfig{Input: w.InputFor(scale), MemWords: w.MemWords}
}

// RunProfiled compiles the workload on a fresh Engine and profiles it.
func RunProfiled(w *progs.Workload, sc Scale) (*core.Profile, error) {
	ctx := context.TODO()
	eng := alchemist.NewEngine()
	prog, err := eng.Compile(ctx, w.Name+".mc", w.Source)
	if err != nil {
		return nil, err
	}
	prof, _, err := eng.Profile(ctx, prog, alchemist.ProfileConfig{RunConfig: runConfig(w, sc)})
	return prof, err
}

// Profile profiles the workload with explicit core options. The
// ablations set options that ProfileConfig does not expose
// (DisablePoolReuse), so this helper calls the profiler core directly.
func Profile(w *progs.Workload, sc Scale, opts core.Options) (*core.Profile, error) {
	cfg := runConfig(w, sc)
	prof, _, err := core.ProfileSource(w.Name+".mc", w.Source, vm.Config{Input: cfg.Input, MemWords: cfg.MemWords}, opts)
	return prof, err
}

// ---------- Table III ----------

// Table3Row measures one workload: LOC, static/dynamic construct counts,
// and native vs profiled wall-clock. Both runs share one fresh Engine, so
// each starts cold, and the program is compiled before either timer
// starts.
func Table3Row(w *progs.Workload, sc Scale) (report.Table3Row, error) {
	ctx := context.TODO()
	eng := alchemist.NewEngine()
	prog, err := eng.Compile(ctx, w.Name+".mc", w.Source)
	if err != nil {
		return report.Table3Row{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	cfg := runConfig(w, sc)
	start := time.Now()
	if _, err := eng.Run(ctx, prog, cfg); err != nil {
		return report.Table3Row{}, fmt.Errorf("%s native: %w", w.Name, err)
	}
	orig := time.Since(start)
	start = time.Now()
	prof, _, err := eng.Profile(ctx, prog, alchemist.ProfileConfig{RunConfig: cfg})
	profT := time.Since(start)
	if err != nil {
		return report.Table3Row{}, fmt.Errorf("%s profiled: %w", w.Name, err)
	}
	return report.Table3Row{
		Benchmark:   w.Name,
		LOC:         w.LOC(),
		Static:      prof.StaticConstructs,
		Dynamic:     prof.DynamicConstructs,
		OrigSeconds: orig.Seconds(),
		ProfSeconds: profT.Seconds(),
	}, nil
}

// Table3 measures every workload.
func Table3(sc Scale) ([]report.Table3Row, error) {
	var rows []report.Table3Row
	for _, w := range progs.All() {
		row, err := Table3Row(w, sc)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------- Construct selection helpers ----------

// LargestLoopIn returns the loop construct with the greatest Ttotal whose
// head lies inside the named function, or nil.
func LargestLoopIn(p *core.Profile, funcName string) *core.ConstructStat {
	for _, c := range p.Constructs { // sorted by Ttotal descending
		if c.Kind == indexing.KindLoop && c.FuncName == funcName {
			return c
		}
	}
	return nil
}

// LoopsIn returns every loop construct of the named function, by
// descending Ttotal.
func LoopsIn(p *core.Profile, funcName string) []*core.ConstructStat {
	var out []*core.ConstructStat
	for _, c := range p.Constructs {
		if c.Kind == indexing.KindLoop && c.FuncName == funcName {
			out = append(out, c)
		}
	}
	return out
}

// ---------- Fig. 6 ----------

// Fig6Result carries one Fig. 6 panel.
type Fig6Result struct {
	Title  string
	Points []report.Point
	// Removed lists labels excluded in a second-pass panel (Fig. 6(b)).
	Removed map[int]bool
}

// Fig6Gzip computes panels (a) and (b): the gzip profile, then the
// profile after removing the top loop construct and everything
// parallelized along with it.
func Fig6Gzip(sc Scale, top int) (a, b Fig6Result, _ *core.Profile, err error) {
	prof, err := RunProfiled(progs.Gzip(), sc)
	if err != nil {
		return a, b, nil, err
	}
	a = Fig6Result{Title: "gzip profile 1", Points: report.Fig6(prof, top, nil)}
	// C1 in the paper is the per-file compression loop (line 3404); here
	// it is the largest loop construct in main.
	c1 := LargestLoopIn(prof, "main")
	if c1 == nil {
		return a, b, prof, fmt.Errorf("gzip: no loop construct found")
	}
	removed := report.RemoveParallelized(prof, c1.Label)
	b = Fig6Result{
		Title:   "gzip profile 2 (after removing C1 and co-parallelized constructs)",
		Points:  report.Fig6(prof, top, removed),
		Removed: removed,
	}
	return a, b, prof, nil
}

// Fig6Parser computes panel (c).
func Fig6Parser(sc Scale, top int) (Fig6Result, *core.Profile, error) {
	prof, err := RunProfiled(progs.Parser(), sc)
	if err != nil {
		return Fig6Result{}, nil, err
	}
	return Fig6Result{Title: "197.parser profile", Points: report.Fig6(prof, top, nil)}, prof, nil
}

// Fig6Lisp computes panel (d).
func Fig6Lisp(sc Scale, top int) (Fig6Result, *core.Profile, error) {
	prof, err := RunProfiled(progs.Lisp(), sc)
	if err != nil {
		return Fig6Result{}, nil, err
	}
	return Fig6Result{Title: "130.lisp profile", Points: report.Fig6(prof, top, nil)}, prof, nil
}

// ---------- Table IV ----------

// Table4 profiles the four §IV.B.2 programs and reports the conflict
// counts at the constructs that were actually parallelized.
func Table4(sc Scale) ([]report.Table4Row, error) {
	var rows []report.Table4Row

	// bzip2: the file loop in main and the block loop in compressStream.
	bz, err := RunProfiled(progs.Bzip2(), sc)
	if err != nil {
		return nil, err
	}
	if c := LargestLoopIn(bz, "main"); c != nil {
		rows = append(rows, report.Table4For("bzip2", bz, c))
	}
	if c := LargestLoopIn(bz, "compressStream"); c != nil {
		rows = append(rows, report.Table4For("bzip2", bz, c))
	}

	// ogg: the file loop in main.
	og, err := RunProfiled(progs.Ogg(), sc)
	if err != nil {
		return nil, err
	}
	if c := LargestLoopIn(og, "main"); c != nil {
		rows = append(rows, report.Table4For("ogg", og, c))
	}

	// aes: the encryption loop in main.
	ae, err := RunProfiled(progs.AES(), sc)
	if err != nil {
		return nil, err
	}
	if c := aesMainLoop(ae); c != nil {
		rows = append(rows, report.Table4For("aes", ae, c))
	}

	// par2: the block loop in process_data and the file loop in
	// open_source_files.
	p2, err := RunProfiled(progs.Par2(), sc)
	if err != nil {
		return nil, err
	}
	if c := LargestLoopIn(p2, "process_data"); c != nil {
		rows = append(rows, report.Table4For("par2", p2, c))
	}
	if c := LargestLoopIn(p2, "open_source_files"); c != nil {
		rows = append(rows, report.Table4For("par2", p2, c))
	}
	return rows, nil
}

// aesMainLoop returns the word loop over the input in aes's main: the
// largest loop in main that is not the input-reading loop (the paper's
// "sixth largest construct").
func aesMainLoop(p *core.Profile) *core.ConstructStat {
	loops := LoopsIn(p, "main")
	var best *core.ConstructStat
	for _, l := range loops {
		// The encryption loop carries WAW/WAR edges (on ivec/ecount); the
		// input copy loop does not.
		if l.CountEdges(core.WAW)+l.CountEdges(core.WAR) > 0 {
			if best == nil || l.Ttotal > best.Ttotal {
				best = l
			}
		}
	}
	if best == nil && len(loops) > 0 {
		best = loops[0]
	}
	return best
}

// ---------- Table V ----------

// Table5Workers is the virtual worker count for Table V, matching the
// paper's 4-thread configurations on the 4-core Opteron.
const Table5Workers = 4

// Table5Row compares one workload's sequential program against its
// spawn/sync variant under the VM's deterministic virtual-time parallel
// simulation: the speedup is the ratio of instruction-count makespans on
// Table5Workers virtual workers (on a multi-core host the Parallel
// goroutine mode can be timed instead; the simulation keeps the
// experiment reproducible on any machine). Each variant runs once, as a
// one-job batch on eng's worker slots, and reports into its own slot of
// progress (nil-safe).
func Table5Row(ctx context.Context, eng *alchemist.Engine, w *progs.Workload, sc Scale, progress *obs.Progress) (report.Table5Row, error) {
	if !w.HasParallel() {
		return report.Table5Row{}, fmt.Errorf("%s has no parallel variant", w.Name)
	}
	run := func(name, src string, workers int) (*alchemist.RunResult, error) {
		prog, err := eng.Compile(ctx, name, src)
		if err != nil {
			return nil, err
		}
		slot := progress.AllocJob()
		defer progress.MarkDone(slot)
		cfg := runConfig(w, sc)
		cfg.SimWorkers = workers
		cfg.OnProgress = func(steps int64) { progress.Update(slot, steps) }
		// The batch's error is its one job's, wrapped; report the job's.
		res, _ := eng.RunBatch(ctx, prog, []alchemist.RunJob{{Config: &cfg}})
		return res[0].Run, res[0].Err
	}
	seq, err := run(w.Name+".mc", w.Source, 0)
	if err != nil {
		return report.Table5Row{}, fmt.Errorf("%s sequential: %w", w.Name, err)
	}
	par, err := run(w.Name+"_par.mc", w.ParSource, Table5Workers)
	if err != nil {
		return report.Table5Row{}, fmt.Errorf("%s parallel: %w", w.Name, err)
	}
	return report.Table5Row{
		Benchmark: w.Name,
		Workers:   Table5Workers,
		SeqSteps:  seq.VirtualSteps,
		ParSteps:  par.VirtualSteps,
	}, nil
}

// Table5 measures every workload that has a parallel variant (bzip2, ogg,
// par2, aes — the paper's Table V set), in that row order. The rows start
// together and eng's worker slots bound how many runs execute at once;
// VirtualSteps is deterministic, so the rows do not depend on that
// bound. A failing row does not stop the others; the error is the first
// failing row's.
func Table5(ctx context.Context, eng *alchemist.Engine, sc Scale, progress *obs.Progress) ([]report.Table5Row, error) {
	workloads := []*progs.Workload{progs.Bzip2(), progs.Ogg(), progs.Par2(), progs.AES()}
	rows := make([]report.Table5Row, len(workloads))
	errs := make([]error, len(workloads))
	var wg sync.WaitGroup
	for i, w := range workloads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows[i], errs[i] = Table5Row(ctx, eng, w, sc, progress)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}
