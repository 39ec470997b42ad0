// Package alchemist is a transparent dependence-distance profiling
// infrastructure for finding parallelization opportunities in sequential
// programs, reproducing "Alchemist: A Transparent Dependence Distance
// Profiling Infrastructure" (Zhang, Navabi, Jagannathan; CGO 2009) in
// pure Go.
//
// The paper profiles C binaries under Valgrind; this reproduction ships
// its own substrate: a small C-like language ("mini-C") compiled to
// bytecode and executed on an instrumented VM. On top of that substrate
// the package implements the paper's contribution unchanged — execution
// indexing with a lazily-retired construct pool, online RAW/WAR/WAW
// dependence-distance profiling for every program construct, and the
// transformation guidance derived from comparing dependence distances
// with construct durations.
//
// Typical use:
//
//	eng := alchemist.NewEngine(alchemist.WithWorkers(4))
//	prog, err := eng.Compile(ctx, "gzip.mc", src)
//	profile, _, err := eng.Profile(ctx, prog, alchemist.ProfileConfig{})
//	fmt.Print(alchemist.Report(profile, alchemist.ReportOptions{Top: 10}))
//	for _, r := range alchemist.Advise(profile) { ... }
//
// The Engine is the service entry point: it caches compiled programs,
// threads context.Context through compilation and execution, and fans
// batch profiling runs over a bounded worker pool (ProfileBatch).
// Programs that have been annotated with spawn/sync can also be executed
// in parallel (Run with Parallel: true) to measure realized speedups.
package alchemist

import (
	"errors"
	"io"

	"alchemist/internal/advisor"
	"alchemist/internal/core"
	"alchemist/internal/indexing"
	"alchemist/internal/ir"
	"alchemist/internal/report"
	"alchemist/internal/vm"
)

// Re-exported result types. These are aliases so that the full profiling
// data model defined in the internal packages is part of the public API.
type (
	// Profile is the result of one profiled execution.
	Profile = core.Profile
	// ConstructStat is the profile of one static construct.
	ConstructStat = core.ConstructStat
	// Edge is one static dependence edge with its minimal distance.
	Edge = core.Edge
	// DepType classifies dependences (RAW, WAR, WAW).
	DepType = core.DepType
	// ConstructKind classifies constructs (function, loop, conditional).
	ConstructKind = indexing.Kind
	// RunResult summarizes an execution.
	RunResult = vm.Result
	// Advice is one transformation suggestion.
	Advice = advisor.Advice
	// AdviceReport is the advisor output for one construct.
	AdviceReport = advisor.Report
	// Fig6Point is one construct's coordinates in a Fig. 6-style plot.
	Fig6Point = report.Point
	// ReportOptions controls profile rendering.
	ReportOptions = report.Options
)

// Dependence types.
const (
	RAW = core.RAW
	WAR = core.WAR
	WAW = core.WAW
)

// Construct kinds.
const (
	KindFunc = indexing.KindFunc
	KindLoop = indexing.KindLoop
	KindCond = indexing.KindCond
)

// Program is a compiled mini-C program, as returned by Engine.Compile.
type Program struct {
	ir *ir.Program
	// Source is the original source text.
	Source string
	// Name is the file name used in diagnostics and positions.
	Name string
}

// IR exposes the compiled program for tooling (disassembly, PC lookup).
func (p *Program) IR() *ir.Program { return p.ir }

// RunConfig parameterizes an uninstrumented execution.
type RunConfig struct {
	// Input is served to the program via the in()/inlen() builtins.
	Input []int64
	// MemWords caps the flat memory, in 8-byte words (default
	// vm.DefaultMemWords, 1<<22 words); an allocation beyond it traps
	// with "out of memory". Sequential runs, profiled or not, grow their
	// memory to what the program allocates, so a large cap costs nothing
	// until it is used; Parallel runs allocate the whole cap up front.
	// The Engine keeps a sequential run's memory in an idle scratch for
	// the next run or profile, so after a job that used the whole cap an
	// idle Engine still holds 8 bytes a word of it, once per scratch.
	MemWords int64
	// StepLimit aborts runaway sequential programs (0 = off).
	StepLimit int64
	// Parallel executes spawn statements on goroutines.
	Parallel bool
	// SimWorkers > 0 enables the deterministic virtual-time parallel
	// simulation with that many workers; RunResult.VirtualSteps then
	// reports the instruction-count makespan. Mutually exclusive with
	// Parallel.
	SimWorkers int
	// Stdout receives print() output (default: discarded).
	Stdout io.Writer
	// Seed seeds the program-visible PRNG.
	Seed uint64
	// OnProgress, when set, receives the executed instruction count from
	// the root interpreter goroutine every vm.CancelCheckInterval steps
	// (piggybacked on the existing cancellation check, so the hot path
	// is untouched) and once more with the final total on successful
	// completion. Reports are monotonically non-decreasing.
	OnProgress func(steps int64)
}

// vmConfig is the VM configuration of c, instrumented into m.
func (c RunConfig) vmConfig(m *vm.Metrics) vm.Config {
	return vm.Config{
		Input:      c.Input,
		MemWords:   c.MemWords,
		StepLimit:  c.StepLimit,
		Parallel:   c.Parallel,
		SimWorkers: c.SimWorkers,
		Out:        c.Stdout,
		Seed:       c.Seed,
		OnProgress: c.OnProgress,
		Metrics:    m,
	}
}

// ErrProfileNeedsSequential is returned by Engine.Profile when the
// config requests parallel execution: the profiler is a sequential-mode
// VM tracer, and dependence distances are defined over the sequential
// instruction stream (the paper profiles the sequential program).
var ErrProfileNeedsSequential = errors.New(
	"alchemist: profiling requires sequential execution: unset RunConfig.Parallel and RunConfig.SimWorkers")

// ProfileConfig parameterizes a profiled execution.
//
// Profiling always runs the program sequentially: the embedded
// RunConfig must not set Parallel or SimWorkers, otherwise
// Engine.Profile fails with ErrProfileNeedsSequential. (Earlier versions
// silently forced sequential execution instead.)
type ProfileConfig struct {
	RunConfig
	// TrackWAR / TrackWAW enable anti- and output-dependence profiling;
	// both default to true unless DisableWAR/DisableWAW is set.
	DisableWAR bool
	DisableWAW bool
	// ReaderSlots bounds the distinct reader PCs remembered per memory
	// word (WAR recall vs. memory; default 4, at most 255).
	ReaderSlots int
	// PoolPrealloc warms the construct pool (default 65536 nodes, taken
	// from memory only as the run first uses them).
	PoolPrealloc int
}

// Report renders a ranked Fig. 2/3-style text profile.
func Report(p *Profile, opts ReportOptions) string {
	return report.Text(p, opts)
}

// Advise analyzes a profile and returns ranked transformation guidance.
func Advise(p *Profile) []*AdviceReport {
	return advisor.Analyze(p, advisor.Config{})
}

// AdviceText renders advice reports as text.
func AdviceText(p *Profile, reports []*AdviceReport, top int) string {
	return advisor.TextReports(p, reports, top)
}

// Fig6 computes normalized size-vs-violations points for the top
// constructs, as plotted in the paper's Fig. 6.
func Fig6(p *Profile, top int) []Fig6Point {
	return report.Fig6(p, top, nil)
}

// Fig6Excluding recomputes Fig. 6 after removing the given construct and
// everything parallelized along with it (the paper's Fig. 6(b) step).
func Fig6Excluding(p *Profile, top int, label int) []Fig6Point {
	return report.Fig6(p, top, report.RemoveParallelized(p, label))
}

// Merge combines profiles from several runs of the same program on
// different inputs: durations and edge counts are summed, minimal
// distances kept. The paper notes profile completeness is a function of
// the test inputs (§II); merging judges constructs against the union of
// observed dependences.
func Merge(profiles ...*Profile) (*Profile, error) {
	return core.Merge(profiles...)
}

// WriteJSON writes the profile in a machine-readable JSON form.
func WriteJSON(w io.Writer, p *Profile) error {
	return report.WriteJSON(w, p)
}

// ProfileDiff is one construct's change between two profiles.
type ProfileDiff = report.DiffEntry

// Diff compares the violating-dependence sets of two profiles of the
// same program — before/after a transformation, or across inputs.
func Diff(oldP, newP *Profile) ([]ProfileDiff, error) {
	return report.Diff(oldP, newP)
}
