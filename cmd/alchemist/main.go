// Command alchemist profiles mini-C programs for parallelization
// opportunities and regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	alchemist profile   (-w workload | -f file.mc) [flags]  ranked dependence profile (Fig. 2/3)
//	alchemist advise    (-w workload | -f file.mc) [flags]  transformation guidance
//	alchemist fig6      [-small]                            Fig. 6(a)-(d) scatter data
//	alchemist table3    [-small]                            Table III (profiling cost)
//	alchemist table4    [-small]                            Table IV (conflicts at parallelized spots)
//	alchemist table5    [-small] [-jobs N]                  Table V (speedups)
//	alchemist run       (-w workload | -f file.mc) [-parallel] [-par-src]
//	alchemist disasm    (-w workload | -f file.mc)
//	alchemist serve     [-addr host:port] [flags]           HTTP profiling service
//	alchemist list                                          available workloads
//
// profile and advise accept an input suite — several profiling jobs that
// are fanned over -jobs workers and merged into one union profile
// (paper §II: profile completeness is a function of the test inputs):
// -scales "0,1,2" profiles a workload at several input scales, and for
// -f programs -input takes ';'-separated streams. profile, advise,
// table5, and run accept -timeout to bound the wall-clock time; a
// timed-out run fails with context.DeadlineExceeded.
//
// profile and table5 accept -metrics-addr to serve the observability
// endpoint (/metrics in Prometheus text format, /metrics.json, and
// net/http/pprof under /debug/pprof/) on a side listener while the
// command runs, and print a one-line metrics summary on completion.
// Both also accept -progress for a live per-job progress display on
// stderr (a rewriting status line on a terminal, periodic plain lines
// otherwise).
//
// serve exposes the same engine as a JSON-over-HTTP service with an
// async job queue, backpressure, and SSE progress streaming; see
// internal/server for the endpoint reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"alchemist"
	"alchemist/internal/advisor"
	"alchemist/internal/bench"
	"alchemist/internal/ir"
	"alchemist/internal/obs"
	"alchemist/internal/progs"
	"alchemist/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "profile":
		err = cmdProfile(args)
	case "advise":
		err = cmdAdvise(args)
	case "fig6":
		err = cmdFig6(args)
	case "table3":
		err = cmdTable3(args)
	case "table4":
		err = cmdTable4(args)
	case "table5":
		err = cmdTable5(args)
	case "run":
		err = cmdRun(args)
	case "disasm":
		err = cmdDisasm(args)
	case "serve":
		err = cmdServe(args)
	case "list":
		err = cmdList(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "alchemist: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "alchemist: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `alchemist - transparent dependence distance profiler (CGO'09 reproduction)

commands:
  profile   ranked per-construct dependence profile (paper Fig. 2/3)
  advise    transformation guidance per construct
  fig6      Fig. 6(a)-(d): size vs violating RAW deps for parallelized programs
  table3    Table III: LOC, construct counts, native vs profiled time
  table4    Table IV: conflict counts at the parallelized locations
  table5    Table V: sequential vs parallel virtual time and speedup
  run       execute a program (optionally the spawn/sync variant in parallel)
  disasm    dump compiled bytecode
  serve     HTTP profiling service: sync + async jobs, SSE progress, /metrics
  list      list embedded workloads

run 'alchemist <command> -h' for flags`)
}

// newCtx builds the command context, honoring a -timeout flag.
func newCtx(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.WithCancel(context.Background())
}

// startMetrics serves the registry's /metrics, /metrics.json, and
// /debug/pprof endpoints on a side listener when addr is non-empty
// (":0" picks a free port). The returned stop function closes the
// listener; it is a no-op when no address was given.
func startMetrics(addr string, reg *obs.Registry) (stop func(), err error) {
	if addr == "" {
		return func() {}, nil
	}
	srv, err := obs.StartServer(addr, reg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "metrics: serving /metrics /metrics.json /debug/pprof on %s\n", srv.URL())
	return func() { srv.Close() }, nil
}

// metricsSummary renders the one-line completion summary from the
// registry's headline counters.
func metricsSummary(reg *obs.Registry) string {
	s := reg.Snapshot()
	c := func(name string) int64 { return s.Counters[name] }
	return fmt.Sprintf(
		"metrics: vm_runs=%d vm_steps=%d cache_hits=%d cache_misses=%d compiles=%d jobs=%d job_errors=%d",
		c("alchemist_vm_runs_total"), c("alchemist_vm_steps_total"),
		c("alchemist_engine_cache_hits_total"), c("alchemist_engine_cache_misses_total"),
		c("alchemist_engine_compiles_total"),
		c("alchemist_engine_jobs_total"), c("alchemist_engine_job_errors_total"))
}

// sourceFlags resolves -w / -f / -scale into a program + input.
type sourceFlags struct {
	workload string
	file     string
	scale    int
	parSrc   bool
}

func (sf *sourceFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&sf.workload, "w", "", "embedded workload name (see 'alchemist list')")
	fs.StringVar(&sf.file, "f", "", "mini-C source file")
	fs.IntVar(&sf.scale, "scale", 0, "workload input scale (0 = paper default)")
	fs.BoolVar(&sf.parSrc, "par-src", false, "use the workload's spawn/sync variant")
}

// loadJobs resolves the source plus the multi-input flags into one
// profiling job per input: -scales (workloads) or ';'-separated -input
// groups (files). With neither, there is exactly one job.
func (sf *sourceFlags) loadJobs(inputCSV, scalesCSV string) (name, src string, jobs []alchemist.ProfileJob, memWords int64, err error) {
	switch {
	case sf.workload != "":
		if inputCSV != "" {
			return "", "", nil, 0, fmt.Errorf("-input applies to -f programs; use -scale/-scales with -w")
		}
		w, err := progs.ByName(sf.workload)
		if err != nil {
			return "", "", nil, 0, err
		}
		src := w.Source
		if sf.parSrc {
			if !w.HasParallel() {
				return "", "", nil, 0, fmt.Errorf("workload %s has no parallel variant", w.Name)
			}
			src = w.ParSource
		}
		scales := []int{sf.scale}
		if scalesCSV != "" {
			scales = scales[:0]
			for _, p := range strings.Split(scalesCSV, ",") {
				s, err := strconv.Atoi(strings.TrimSpace(p))
				if err != nil {
					return "", "", nil, 0, fmt.Errorf("bad scale %q", p)
				}
				scales = append(scales, s)
			}
		}
		for _, s := range scales {
			jobs = append(jobs, alchemist.ProfileJob{Input: w.InputFor(s)})
		}
		return w.Name + ".mc", src, jobs, w.MemWords, nil
	case sf.file != "":
		if scalesCSV != "" {
			return "", "", nil, 0, fmt.Errorf("-scales applies to -w workloads; use ';'-separated -input groups with -f")
		}
		data, err := os.ReadFile(sf.file)
		if err != nil {
			return "", "", nil, 0, err
		}
		groups := strings.Split(inputCSV, ";")
		for i, group := range groups {
			// An empty -input means one job with no input, but an empty
			// group inside a suite is a typo (stray ';'), not a request
			// to merge in an input-less run.
			if strings.TrimSpace(group) == "" && len(groups) > 1 {
				return "", "", nil, 0, fmt.Errorf("empty input group %d in %q (stray ';'?)", i+1, inputCSV)
			}
			input, err := parseInput(group)
			if err != nil {
				return "", "", nil, 0, err
			}
			jobs = append(jobs, alchemist.ProfileJob{Input: input})
		}
		return sf.file, string(data), jobs, 0, nil
	default:
		return "", "", nil, 0, fmt.Errorf("need -w <workload> or -f <file.mc>")
	}
}

// load resolves the single-run form: exactly one input stream.
func (sf *sourceFlags) load(inputCSV string) (name, src string, input []int64, memWords int64, err error) {
	name, src, jobs, memWords, err := sf.loadJobs(inputCSV, "")
	if err != nil {
		return "", "", nil, 0, err
	}
	if len(jobs) != 1 {
		return "", "", nil, 0, fmt.Errorf("this command takes a single input stream, got %d", len(jobs))
	}
	return name, src, jobs[0].Input, memWords, nil
}

func parseInput(csv string) ([]int64, error) {
	if csv == "" {
		return nil, nil
	}
	parts := strings.Split(csv, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad input element %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseTypes(s string) ([]alchemist.DepType, error) {
	if s == "" {
		return []alchemist.DepType{alchemist.RAW}, nil
	}
	var out []alchemist.DepType
	for _, p := range strings.Split(s, ",") {
		switch strings.ToLower(strings.TrimSpace(p)) {
		case "raw":
			out = append(out, alchemist.RAW)
		case "war":
			out = append(out, alchemist.WAR)
		case "waw":
			out = append(out, alchemist.WAW)
		case "all":
			out = append(out, alchemist.RAW, alchemist.WAR, alchemist.WAW)
		default:
			return nil, fmt.Errorf("unknown dependence type %q", p)
		}
	}
	return out, nil
}

// profileMerged compiles the source through an Engine instrumented into
// reg and profiles every job concurrently, returning the union profile.
// progress (nil-safe) receives live per-job step counts, with each job
// marked done as it completes.
func profileMerged(ctx context.Context, reg *obs.Registry, name, src string, jobs []alchemist.ProfileJob, memWords int64, workers int, progress *obs.Progress) (*alchemist.Profile, error) {
	eng := alchemist.NewEngine(alchemist.WithWorkers(workers), alchemist.WithRegistry(reg))
	prog, err := eng.Compile(ctx, name, src)
	if err != nil {
		return nil, err
	}
	for i := range jobs {
		progress.Update(i, 0)
		jobs[i].Config = &alchemist.ProfileConfig{RunConfig: alchemist.RunConfig{
			MemWords: memWords, OnProgress: func(steps int64) { progress.Update(i, steps) },
		}}
	}
	// Stream per-job completions so the live display can count finished
	// jobs, then merge exactly as ProfileBatch would.
	results := make([]alchemist.BatchResult, len(jobs))
	for r := range eng.ProfileEach(ctx, prog, jobs) {
		results[r.Job] = r
		progress.MarkDone(r.Job)
	}
	profiles := make([]*alchemist.Profile, len(jobs))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("batch job %d: %w", i, r.Err)
		}
		profiles[i] = r.Profile
	}
	return alchemist.Merge(profiles...)
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	var sf sourceFlags
	sf.register(fs)
	top := fs.Int("top", 12, "constructs to print (0 = all)")
	edges := fs.Int("edges", 8, "edges per construct (0 = all)")
	all := fs.Bool("all", false, "print non-violating edges too")
	typesCSV := fs.String("types", "raw", "dependence types: raw,war,waw or all")
	inputCSV := fs.String("input", "", "comma-separated input stream for -f programs; ';' separates per-job streams")
	scalesCSV := fs.String("scales", "", "comma-separated workload scales: one profiling job per scale, merged")
	jobs := fs.Int("jobs", 1, "concurrent profiling jobs")
	timeout := fs.Duration("timeout", 0, "abort after this duration (0 = none)")
	jsonOut := fs.Bool("json", false, "emit the profile as JSON")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /metrics.json, /debug/pprof on this address (\":0\" picks a port)")
	liveProgress := fs.Bool("progress", false, "render live per-job progress on stderr")
	fs.Parse(args)

	name, src, pjobs, memWords, err := sf.loadJobs(*inputCSV, *scalesCSV)
	if err != nil {
		return err
	}
	types, err := parseTypes(*typesCSV)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	stopMetrics, err := startMetrics(*metricsAddr, reg)
	if err != nil {
		return err
	}
	defer stopMetrics()
	var progress *obs.Progress
	if *liveProgress {
		progress = &obs.Progress{}
	}
	stopProgress := startProgress(*liveProgress, progress)
	ctx, cancel := newCtx(*timeout)
	defer cancel()
	prof, err := profileMerged(ctx, reg, name, src, pjobs, memWords, *jobs, progress)
	stopProgress()
	if err != nil {
		return err
	}
	defer fmt.Fprintln(os.Stderr, metricsSummary(reg))
	if *jsonOut {
		return report.WriteJSON(os.Stdout, prof)
	}
	report.Write(os.Stdout, prof, report.Options{
		Top: *top, MaxEdges: *edges, Types: types, ShowAllEdges: *all,
	})
	return nil
}

func cmdAdvise(args []string) error {
	fs := flag.NewFlagSet("advise", flag.ExitOnError)
	var sf sourceFlags
	sf.register(fs)
	top := fs.Int("top", 8, "constructs to advise on")
	inputCSV := fs.String("input", "", "comma-separated input stream for -f programs; ';' separates per-job streams")
	scalesCSV := fs.String("scales", "", "comma-separated workload scales: one profiling job per scale, merged")
	jobs := fs.Int("jobs", 1, "concurrent profiling jobs")
	timeout := fs.Duration("timeout", 0, "abort after this duration (0 = none)")
	fs.Parse(args)

	name, src, pjobs, memWords, err := sf.loadJobs(*inputCSV, *scalesCSV)
	if err != nil {
		return err
	}
	ctx, cancel := newCtx(*timeout)
	defer cancel()
	prof, err := profileMerged(ctx, obs.NewRegistry(), name, src, pjobs, memWords, *jobs, nil)
	if err != nil {
		return err
	}
	reports := advisor.Analyze(prof, advisor.Config{})
	advisor.WriteReports(os.Stdout, prof, reports, *top)
	return nil
}

func cmdFig6(args []string) error {
	fs := flag.NewFlagSet("fig6", flag.ExitOnError)
	small := fs.Bool("small", false, "use small inputs")
	top := fs.Int("top", 11, "constructs per panel")
	fs.Parse(args)
	sc := bench.Scale{Small: *small}

	a, b, _, err := bench.Fig6Gzip(sc, *top)
	if err != nil {
		return err
	}
	fmt.Printf("Fig 6(a): %s\n", a.Title)
	report.WriteFig6(os.Stdout, a.Points)
	fmt.Printf("\nFig 6(b): %s\n", b.Title)
	report.WriteFig6(os.Stdout, b.Points)

	c, _, err := bench.Fig6Parser(sc, *top)
	if err != nil {
		return err
	}
	fmt.Printf("\nFig 6(c): %s\n", c.Title)
	report.WriteFig6(os.Stdout, c.Points)

	d, _, err := bench.Fig6Lisp(sc, *top)
	if err != nil {
		return err
	}
	fmt.Printf("\nFig 6(d): %s\n", d.Title)
	report.WriteFig6(os.Stdout, d.Points)
	return nil
}

func cmdTable3(args []string) error {
	fs := flag.NewFlagSet("table3", flag.ExitOnError)
	small := fs.Bool("small", false, "use small inputs")
	fs.Parse(args)
	rows, err := bench.Table3(bench.Scale{Small: *small})
	if err != nil {
		return err
	}
	report.WriteTable3(os.Stdout, rows)
	return nil
}

func cmdTable4(args []string) error {
	fs := flag.NewFlagSet("table4", flag.ExitOnError)
	small := fs.Bool("small", false, "use small inputs")
	fs.Parse(args)
	rows, err := bench.Table4(bench.Scale{Small: *small})
	if err != nil {
		return err
	}
	report.WriteTable4(os.Stdout, rows)
	return nil
}

func cmdTable5(args []string) error {
	fs := flag.NewFlagSet("table5", flag.ExitOnError)
	small := fs.Bool("small", false, "use small inputs")
	jobs := fs.Int("jobs", 1, "concurrent VM runs (the Engine's worker count)")
	timeout := fs.Duration("timeout", 0, "abort after this duration (0 = none)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /metrics.json, /debug/pprof on this address (\":0\" picks a port)")
	liveProgress := fs.Bool("progress", false, "render live per-run progress on stderr")
	fs.Parse(args)
	reg := obs.NewRegistry()
	stopMetrics, err := startMetrics(*metricsAddr, reg)
	if err != nil {
		return err
	}
	defer stopMetrics()
	var progress *obs.Progress
	if *liveProgress {
		progress = &obs.Progress{}
	}
	stopProgress := startProgress(*liveProgress, progress)
	ctx, cancel := newCtx(*timeout)
	defer cancel()
	eng := alchemist.NewEngine(alchemist.WithWorkers(*jobs), alchemist.WithRegistry(reg))
	rows, err := bench.Table5(ctx, eng, bench.Scale{Small: *small}, progress)
	stopProgress()
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, metricsSummary(reg))
	report.WriteTable5(os.Stdout, rows)
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var sf sourceFlags
	sf.register(fs)
	parallel := fs.Bool("parallel", false, "execute spawns on goroutines")
	inputCSV := fs.String("input", "", "comma-separated input stream for -f programs")
	timeout := fs.Duration("timeout", 0, "abort after this duration (0 = none)")
	fs.Parse(args)

	name, src, input, memWords, err := sf.load(*inputCSV)
	if err != nil {
		return err
	}
	ctx, cancel := newCtx(*timeout)
	defer cancel()
	eng := alchemist.NewEngine()
	prog, err := eng.Compile(ctx, name, src)
	if err != nil {
		return err
	}
	res, err := eng.Run(ctx, prog, alchemist.RunConfig{
		Input: input, MemWords: memWords, Parallel: *parallel, Stdout: os.Stdout,
	})
	if err != nil {
		return err
	}
	fmt.Printf("steps=%d ret=%d out=%v\n", res.Steps, res.Ret, res.Output)
	return nil
}

func cmdDisasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ExitOnError)
	var sf sourceFlags
	sf.register(fs)
	fs.Parse(args)

	name, src, _, _, err := sf.load("")
	if err != nil {
		return err
	}
	prog, err := alchemist.NewEngine().Compile(context.Background(), name, src)
	if err != nil {
		return err
	}
	for _, f := range prog.IR().Funcs {
		fmt.Print(ir.Disassemble(f))
	}
	return nil
}

func cmdList(args []string) error {
	fmt.Printf("%-12s %-6s %-9s %s\n", "name", "LOC", "parallel", "description")
	for _, w := range progs.All() {
		par := "-"
		if w.HasParallel() {
			par = "yes"
		}
		fmt.Printf("%-12s %-6d %-9s %s\n", w.Name, w.LOC(), par, w.Description)
	}
	return nil
}
