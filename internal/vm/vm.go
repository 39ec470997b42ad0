// Package vm executes ir bytecode and exposes the instrumentation hooks
// that the Alchemist profiler consumes.
//
// The VM plays the role Valgrind plays in the paper: every executed
// instruction, memory access, call/return, and branch is reported to an
// optional Tracer. Timestamps are executed-instruction counts, exactly as
// in the paper. With a nil Tracer the VM runs a fast uninstrumented path;
// the ratio between the two is what Table III's "Orig." vs "Prof." columns
// measure.
//
// Memory model: one flat []int64 word array. Globals occupy a static
// prefix; local arrays and alloc() regions are bump-allocated and never
// reused, so recycled stack slots cannot manufacture false dependences.
// Scalar locals live in frame registers and generate no memory events
// (they model register-allocated C locals).
//
// Concurrency: with Config.Parallel, spawn runs the callee on its own
// goroutine over the shared memory and sync joins the current
// activation's spawns. Programs are expected to partition memory between
// spawns, as the paper's hand-parallelized benchmarks do.
package vm

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"alchemist/internal/ir"
	"alchemist/internal/sema"
	"alchemist/internal/source"
)

// CancelCheckInterval is the maximum number of executed instructions
// between context-cancellation checks in the dispatch loop. The check is
// piggybacked on the step-limit branch, so a cancellable run costs the
// same single compare per instruction as an uncancellable one; a
// cancelled context is observed within one interval per goroutine.
const CancelCheckInterval = 4096

// DefaultMemWords is the memory cap, in 8-byte words, used when
// Config.MemWords is zero: 32 MiB.
const DefaultMemWords = 1 << 22

// Tracer receives execution events from the VM. Implementations must be
// fast: unless the tracer is Clocked, Step fires for every instruction.
// Tracers are only supported in plain sequential mode (neither Parallel
// nor SimWorkers).
type Tracer interface {
	// Step fires before each instruction executes; gpc is the global PC.
	// A Clocked tracer gets it only at instructions marked ir.Instr.Pops.
	Step(gpc int)
	// Load fires for each tracked-memory read.
	Load(addr int64, gpc int)
	// Store fires for each tracked-memory write.
	Store(addr int64, gpc int)
	// EnterFunc fires after a frame is set up, before its first Step.
	EnterFunc(f *ir.Func)
	// ExitFunc fires when a frame returns.
	ExitFunc(f *ir.Func)
	// Branch fires after a conditional branch resolves.
	Branch(in *ir.Instr, gpc int, taken bool)
}

// Clocked is a Tracer that reads time from the VM instead of counting
// Steps. Before the first event, the run lends it its step counter, which
// counts the instructions executed so far, the current one included, at
// every event. The VM then calls Step only at instructions marked
// ir.Instr.Pops.
type Clocked interface {
	Tracer
	// UseClock lends the tracer the run's step counter. The counter is
	// valid until the run returns; read it only from the VM's events or
	// after the run.
	UseClock(steps *int64)
}

// Config parameterizes a VM instance.
type Config struct {
	// MemWords caps the flat memory, in 8-byte words (default
	// DefaultMemWords); an allocation beyond it traps with "out of
	// memory". Sequential and SimWorkers runs grow the memory as the
	// program allocates, so a run pays only for the words it can
	// address; Parallel runs allocate the whole cap up front.
	MemWords int64
	// Mem, when its capacity covers the global segment, is the buffer a
	// sequential or SimWorkers run keeps its flat memory in, so a caller
	// running programs back to back can recycle one buffer (VM.Mem
	// returns it after the run). Its contents do not matter: the run
	// clears the globals and then each range alloc extends into, and
	// grows into a fresh slice only past the buffer's capacity. The
	// capacity never raises MemWords. Parallel runs ignore Mem.
	Mem []int64
	// StepLimit aborts runaway programs (sequential mode only; 0 = off).
	StepLimit int64
	// Input is the read-only input stream served by the in()/inlen()
	// builtins.
	Input []int64
	// Out receives print output (default: discard).
	Out io.Writer
	// Parallel makes spawn launch goroutines; incompatible with Tracer.
	Parallel bool
	// SimWorkers, when > 0, enables the deterministic virtual-time
	// parallel simulation: spawned functions execute inline but their
	// instruction counts are greedily scheduled onto this many virtual
	// workers, and Result.VirtualSteps reports the makespan. This
	// substitutes for real multicore hardware (the paper's 4-core
	// Opteron) on machines without spare cores, and is exactly
	// reproducible. Mutually exclusive with Parallel.
	SimWorkers int
	// Tracer observes execution (plain sequential mode only: not with
	// Parallel or SimWorkers).
	Tracer Tracer
	// Seed initializes the deterministic PRNG behind rand().
	Seed uint64
	// OnProgress, when set, is called from the root interpreter goroutine
	// with the steps executed so far: every CancelCheckInterval steps
	// (piggybacked on the dispatch loop's existing slow-path check, so it
	// adds no per-instruction cost) and once more with the final total
	// when the run completes successfully. Reports are monotonically
	// non-decreasing. Spawned goroutines do not report.
	OnProgress func(steps int64)
	// Metrics, when set, receives this run's dispatch-loop counters,
	// flushed once at exit so the hot path stays untouched.
	Metrics *Metrics
}

// Result summarizes a completed run.
type Result struct {
	// Steps is the total number of executed instructions across all
	// goroutines (total work).
	Steps int64
	// VirtualSteps is the critical-path length under the virtual-time
	// parallel simulation (SimWorkers > 0): the instruction-count
	// makespan with spawns scheduled onto the virtual workers. Without
	// simulation it equals Steps for sequential runs and is 0 for
	// goroutine-parallel runs (wall-clock is the measure there).
	VirtualSteps int64
	// Output is everything the program emitted via out().
	Output []int64
	// Ret is main's return value (0 for void main).
	Ret int64
}

// RuntimeError is a trap raised by the interpreted program.
type RuntimeError struct {
	Pos source.Pos
	Msg string
}

func (e *RuntimeError) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("%s: runtime error: %s", e.Pos, e.Msg)
	}
	return "runtime error: " + e.Msg
}

// VM executes one program once.
type VM struct {
	prog *ir.Program
	cfg  Config

	// mem is the flat memory. Every address a program can form lies
	// below allocNext, so sequential and simulated runs keep mem exactly
	// that long (alloc extends it, within its capacity when it can);
	// Parallel runs, whose goroutines share mem without locks, allocate
	// MemWords up front.
	mem       []int64
	allocNext int64

	input  []int64
	out    io.Writer
	tracer Tracer
	// everyStep is set unless tracer is Clocked: such a tracer needs
	// Step before every instruction.
	everyStep bool

	rngMu sync.Mutex
	rng   uint64

	outMu  sync.Mutex
	output []int64

	parSteps  int64 // atomic; steps from spawned goroutines
	parChecks int64 // atomic; slow-path checks from spawned goroutines

	errMu    sync.Mutex
	spawnErr error

	ran bool
}

// New prepares a VM. The VM is single-use: call Run exactly once.
func New(p *ir.Program, cfg Config) (*VM, error) {
	if cfg.MemWords == 0 {
		cfg.MemWords = DefaultMemWords
	}
	if cfg.MemWords < p.GlobalWords {
		return nil, fmt.Errorf("vm: MemWords %d smaller than global segment %d", cfg.MemWords, p.GlobalWords)
	}
	if cfg.MemWords > ir.MaxMemWords {
		return nil, fmt.Errorf("vm: MemWords %d exceeds addressable range", cfg.MemWords)
	}
	if cfg.Parallel && cfg.Tracer != nil {
		return nil, errors.New("vm: tracing requires sequential mode")
	}
	if cfg.Parallel && cfg.SimWorkers > 0 {
		return nil, errors.New("vm: Parallel and SimWorkers are mutually exclusive")
	}
	if cfg.SimWorkers > 0 && cfg.Tracer != nil {
		// A simulated spawn runs on its own execCtx, whose step count is
		// not the run's clock.
		return nil, errors.New("vm: tracing is not supported with SimWorkers")
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	var mem []int64
	switch {
	case cfg.Parallel:
		mem = make([]int64, cfg.MemWords)
	case int64(cap(cfg.Mem)) >= p.GlobalWords:
		mem = cfg.Mem[:p.GlobalWords]
		clear(mem)
	default:
		mem = make([]int64, p.GlobalWords)
	}
	cfg.Mem = nil // the run owns the buffer; do not pin it past a growth
	_, clocked := cfg.Tracer.(Clocked)
	vm := &VM{
		prog:      p,
		cfg:       cfg,
		mem:       mem,
		allocNext: p.GlobalWords,
		input:     cfg.Input,
		out:       cfg.Out,
		tracer:    cfg.Tracer,
		everyStep: !clocked,
		rng:       seed,
	}
	// Install global scalar initializers.
	for i, addr := range p.GlobalAddr {
		if addr != 0 {
			vm.mem[addr] = p.GlobalInit[i]
		}
	}
	return vm, nil
}

// Mem exposes the flat memory after a run, for inspection or as the
// Config.Mem of a later run. It covers exactly the words the run
// allocated (globals included), or after a Parallel run the whole
// MemWords cap; its capacity may be larger.
func (vm *VM) Mem() []int64 { return vm.mem }

// GlobalValue returns the value of the named global scalar, for tests and
// harnesses.
func (vm *VM) GlobalValue(name string) (int64, bool) {
	for i, n := range vm.prog.GlobalNames {
		if n == name && vm.prog.GlobalAddr[i] != 0 {
			return vm.mem[vm.prog.GlobalAddr[i]], true
		}
	}
	return 0, false
}

// GlobalArrayValues copies the contents of the named global array.
func (vm *VM) GlobalArrayValues(name string) ([]int64, bool) {
	for i, n := range vm.prog.GlobalNames {
		if n == name && vm.prog.GlobalArray[i] != 0 {
			ref := vm.prog.GlobalArray[i]
			out := make([]int64, ref.Len())
			copy(out, vm.mem[ref.Base():ref.Base()+ref.Len()])
			return out, true
		}
	}
	return nil, false
}

// Run executes main and returns the result.
func (vm *VM) Run() (*Result, error) {
	return vm.RunCtx(context.Background())
}

// RunCtx executes main under ctx. Cancellation is observed by every
// interpreter goroutine within CancelCheckInterval instructions; the
// returned error is then ctx.Err() (context.Canceled or
// context.DeadlineExceeded), not a RuntimeError.
func (vm *VM) RunCtx(ctx context.Context) (*Result, error) {
	if vm.ran {
		return nil, errors.New("vm: Run called twice")
	}
	vm.ran = true
	if vm.prog.Main == nil {
		return nil, errors.New("vm: program has no main")
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	ex := vm.newExecCtx(ctx)
	if c, ok := vm.tracer.(Clocked); ok {
		c.UseClock(&ex.steps)
	}
	ret, err := vm.runFrame(vm.prog.Main, ex.regs.push(vm.prog.Main.NumRegs), ex)
	totalSteps := ex.steps + atomic.LoadInt64(&vm.parSteps)
	if err == nil {
		err = vm.firstSpawnError()
	}
	if err == nil && vm.cfg.OnProgress != nil {
		// Final report: short runs that never crossed a check window
		// still observe their completion.
		vm.cfg.OnProgress(totalSteps)
		ex.progressed++
	}
	vm.cfg.Metrics.flushRun(totalSteps,
		ex.checks+atomic.LoadInt64(&vm.parChecks), ex.progressed)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Steps:  totalSteps,
		Output: vm.output,
		Ret:    ret,
	}
	if !vm.cfg.Parallel {
		res.VirtualSteps = ex.vtime
	}
	return res, nil
}

func (vm *VM) firstSpawnError() error {
	vm.errMu.Lock()
	defer vm.errMu.Unlock()
	return vm.spawnErr
}

func (vm *VM) recordSpawnError(err error) {
	vm.errMu.Lock()
	defer vm.errMu.Unlock()
	if vm.spawnErr == nil {
		vm.spawnErr = err
	}
}

// execCtx is per-goroutine interpreter state.
type execCtx struct {
	vm    *VM
	steps int64
	// vtime is the virtual clock: equal to steps along a sequential
	// chain, but spawned children advance it only through the
	// virtual-worker schedule at join points.
	vtime int64

	// ctx is non-nil only when the run is cancellable (ctx.Done() is
	// non-nil); limit mirrors Config.StepLimit. Both feed the single
	// dispatch-loop slow-path branch: the loop compares steps against
	// nextCheck, and check() re-arms nextCheck so that cancellation is
	// polled every CancelCheckInterval steps and the step limit trips at
	// exactly steps == limit+1 (the historical trap point). A run with
	// no context and no limit parks nextCheck at MaxInt64.
	ctx       context.Context
	limit     int64
	nextCheck int64

	// progress is the root goroutine's OnProgress hook (nil on spawned
	// children); checks and progressed count slow-path checks and
	// delivered reports for the per-run metrics flush.
	progress   func(steps int64)
	checks     int64
	progressed int64

	// regs is the register stack the goroutine's frames take their
	// registers from.
	regs *regStack
}

// newExecCtx builds the root interpreter state for a run under ctx.
func (vm *VM) newExecCtx(ctx context.Context) *execCtx {
	ex := &execCtx{vm: vm, limit: vm.cfg.StepLimit, progress: vm.cfg.OnProgress, regs: &regStack{}}
	if ctx != nil && ctx.Done() != nil {
		ex.ctx = ctx
	}
	ex.armCheck()
	return ex
}

// child derives the interpreter state for a spawned goroutine or a
// simulated child: fresh counters, same cancellation scope, registers
// from regs. A simulated child runs inline and shares its parent's
// register stack; a goroutine needs its own.
func (ex *execCtx) child(regs *regStack) *execCtx {
	c := &execCtx{vm: ex.vm, ctx: ex.ctx, limit: ex.limit, regs: regs}
	c.armCheck()
	return c
}

// regStack hands out frame registers in call order, so a call costs no
// allocation once the stack has reached the run's deepest frame. Growing
// leaves the frames already handed out on the old array, where they stay
// valid until they return.
type regStack struct {
	buf []int64
	sp  int
}

// push returns n zeroed registers for a new frame.
func (s *regStack) push(n int) []int64 {
	end := s.sp + n
	if end > len(s.buf) {
		s.buf = make([]int64, max(2*len(s.buf), end, 64))
	}
	r := s.buf[s.sp:end:end]
	clear(r)
	s.sp = end
	return r
}

// pop releases the n registers of the most recently pushed frame.
func (s *regStack) pop(n int) { s.sp -= n }

// armCheck schedules the next slow-path check. A limit of MaxInt64 can
// never trap (steps > limit is unsatisfiable), so it parks like
// limit 0 rather than overflowing limit+1.
func (ex *execCtx) armCheck() {
	next := int64(math.MaxInt64)
	if ex.limit > 0 && ex.limit < math.MaxInt64 {
		next = ex.limit + 1
	}
	if ex.ctx != nil || ex.progress != nil {
		if c := ex.steps + CancelCheckInterval; c < next {
			next = c
		}
	}
	ex.nextCheck = next
}

// check is the dispatch loop's slow path: context cancellation first,
// then the step limit, then the progress report, then re-arm.
func (ex *execCtx) check(in *ir.Instr) error {
	ex.checks++
	if ex.ctx != nil {
		if err := ex.ctx.Err(); err != nil {
			return err
		}
	}
	if ex.limit > 0 && ex.steps > ex.limit {
		return ex.vm.trap(in, "step limit %d exceeded", ex.limit)
	}
	if ex.progress != nil {
		ex.progress(ex.steps)
		ex.progressed++
	}
	ex.armCheck()
	return nil
}

// simSpawn records one simulated spawn: the parent's virtual time at the
// spawn site and the child's own critical-path length.
type simSpawn struct {
	start int64
	span  int64
}

// simMakespan greedily schedules the pending spawns onto `workers`
// virtual workers (each child becomes available at its spawn time) and
// returns the completion time of the whole group.
func simMakespan(pending []simSpawn, workers int, now int64) int64 {
	if workers < 1 {
		workers = 1
	}
	avail := make([]int64, workers)
	finish := now
	for _, s := range pending {
		wi := 0
		for i := 1; i < workers; i++ {
			if avail[i] < avail[wi] {
				wi = i
			}
		}
		start := avail[wi]
		if s.start > start {
			start = s.start
		}
		end := start + s.span
		avail[wi] = end
		if end > finish {
			finish = end
		}
	}
	return finish
}

func (vm *VM) trap(in *ir.Instr, format string, args ...any) error {
	return &RuntimeError{Pos: in.Pos, Msg: fmt.Sprintf(format, args...)}
}

// alloc bump-allocates n words and returns a packed reference.
func (vm *VM) alloc(n int64, in *ir.Instr) (ir.ArrayRef, error) {
	if n < 0 || n > ir.MaxArrayLen {
		return 0, vm.trap(in, "invalid allocation size %d", n)
	}
	var base int64
	if vm.cfg.Parallel {
		base = atomic.AddInt64(&vm.allocNext, n) - n
	} else {
		base = vm.allocNext
		vm.allocNext += n
	}
	if base+n > vm.cfg.MemWords {
		return 0, vm.trap(in, "out of memory: need %d words beyond %d", n, base)
	}
	if end := base + n; end > int64(len(vm.mem)) {
		// Parallel runs never get here: their memory starts at the cap.
		// Within the capacity the new range is cleared, since a recycled
		// buffer holds an earlier run's words; past it, doubling keeps the
		// copying linear in the final size.
		if end <= int64(cap(vm.mem)) {
			vm.mem = vm.mem[:end]
			clear(vm.mem[base:])
		} else {
			grown := make([]int64, end, min(max(2*int64(cap(vm.mem)), end), vm.cfg.MemWords))
			copy(grown, vm.mem)
			vm.mem = grown
		}
	}
	return ir.MakeArrayRef(base, n), nil
}

func (vm *VM) randNext() int64 {
	vm.rngMu.Lock()
	x := vm.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	vm.rng = x
	vm.rngMu.Unlock()
	return int64(x >> 1) // keep it non-negative
}

func (vm *VM) emitOut(v int64) {
	if vm.cfg.Parallel {
		vm.outMu.Lock()
		vm.output = append(vm.output, v)
		vm.outMu.Unlock()
		return
	}
	vm.output = append(vm.output, v)
}

func (vm *VM) printStr(s string) {
	vm.outMu.Lock()
	io.WriteString(vm.out, s)
	vm.outMu.Unlock()
}

// element resolves an array access, validating the index.
func (vm *VM) element(refVal, idx int64, in *ir.Instr) (int64, error) {
	ref := ir.ArrayRef(refVal)
	if refVal == 0 {
		return 0, vm.trap(in, "use of uninitialized array")
	}
	if idx < 0 || idx >= ref.Len() {
		return 0, vm.trap(in, "index %d out of range [0,%d)", idx, ref.Len())
	}
	return ref.Base() + idx, nil
}

// call runs one activation of in.Callee on ex, passing the values of
// in.Args from the caller's registers.
func (vm *VM) call(in *ir.Instr, regs []int64, ex *execCtx) (int64, error) {
	n := in.Callee.NumRegs
	callee := ex.regs.push(n)
	for i, r := range in.Args {
		callee[i] = regs[r]
	}
	v, err := vm.runFrame(in.Callee, callee, ex)
	ex.regs.pop(n)
	return v, err
}

// runFrame interprets one activation of f over regs, its frame registers
// with the arguments already in place.
func (vm *VM) runFrame(f *ir.Func, regs []int64, ex *execCtx) (int64, error) {
	var wg *sync.WaitGroup
	var pending []simSpawn
	joinSpawns := func() {
		if wg != nil {
			wg.Wait()
		}
		if len(pending) > 0 {
			ex.vtime = simMakespan(pending, vm.cfg.SimWorkers, ex.vtime)
			pending = pending[:0]
		}
	}

	t := vm.tracer
	if t != nil {
		t.EnterFunc(f)
	}

	code := f.Code
	base := f.Base
	pc := 0
	for {
		in := &code[pc]
		ex.steps++
		ex.vtime++
		if ex.steps >= ex.nextCheck {
			if err := ex.check(in); err != nil {
				joinSpawns()
				return 0, err
			}
		}
		if t != nil && (vm.everyStep || in.Pops) {
			t.Step(base + pc)
		}
		switch in.Op {
		case ir.OpConst:
			regs[in.A] = in.Imm
		case ir.OpMov:
			regs[in.A] = regs[in.B]
		case ir.OpAdd:
			regs[in.A] = regs[in.B] + regs[in.C]
		case ir.OpSub:
			regs[in.A] = regs[in.B] - regs[in.C]
		case ir.OpMul:
			regs[in.A] = regs[in.B] * regs[in.C]
		case ir.OpDiv:
			if regs[in.C] == 0 {
				joinSpawns()
				return 0, vm.trap(in, "division by zero")
			}
			regs[in.A] = regs[in.B] / regs[in.C]
		case ir.OpMod:
			if regs[in.C] == 0 {
				joinSpawns()
				return 0, vm.trap(in, "modulo by zero")
			}
			regs[in.A] = regs[in.B] % regs[in.C]
		case ir.OpAnd:
			regs[in.A] = regs[in.B] & regs[in.C]
		case ir.OpOr:
			regs[in.A] = regs[in.B] | regs[in.C]
		case ir.OpXor:
			regs[in.A] = regs[in.B] ^ regs[in.C]
		case ir.OpShl:
			regs[in.A] = regs[in.B] << (uint64(regs[in.C]) & 63)
		case ir.OpShr:
			regs[in.A] = int64(uint64(regs[in.B]) >> (uint64(regs[in.C]) & 63))
		case ir.OpEq:
			regs[in.A] = b2i(regs[in.B] == regs[in.C])
		case ir.OpNe:
			regs[in.A] = b2i(regs[in.B] != regs[in.C])
		case ir.OpLt:
			regs[in.A] = b2i(regs[in.B] < regs[in.C])
		case ir.OpLe:
			regs[in.A] = b2i(regs[in.B] <= regs[in.C])
		case ir.OpGt:
			regs[in.A] = b2i(regs[in.B] > regs[in.C])
		case ir.OpGe:
			regs[in.A] = b2i(regs[in.B] >= regs[in.C])
		case ir.OpNeg:
			regs[in.A] = -regs[in.B]
		case ir.OpBNot:
			regs[in.A] = ^regs[in.B]
		case ir.OpLNot:
			regs[in.A] = b2i(regs[in.B] == 0)

		case ir.OpLoadG:
			if t != nil {
				t.Load(in.Imm, base+pc)
			}
			regs[in.A] = vm.mem[in.Imm]
		case ir.OpStoreG:
			if t != nil {
				t.Store(in.Imm, base+pc)
			}
			vm.mem[in.Imm] = regs[in.B]
		case ir.OpLoadEl:
			addr, err := vm.element(regs[in.B], regs[in.C], in)
			if err != nil {
				joinSpawns()
				return 0, err
			}
			if t != nil {
				t.Load(addr, base+pc)
			}
			regs[in.A] = vm.mem[addr]
		case ir.OpStoreEl:
			addr, err := vm.element(regs[in.A], regs[in.B], in)
			if err != nil {
				joinSpawns()
				return 0, err
			}
			if t != nil {
				t.Store(addr, base+pc)
			}
			vm.mem[addr] = regs[in.C]
		case ir.OpAlloc:
			ref, err := vm.alloc(regs[in.B], in)
			if err != nil {
				joinSpawns()
				return 0, err
			}
			regs[in.A] = int64(ref)
		case ir.OpLen:
			regs[in.A] = ir.ArrayRef(regs[in.B]).Len()

		case ir.OpCall:
			v, err := vm.call(in, regs, ex)
			if err != nil {
				joinSpawns()
				return 0, err
			}
			if in.A >= 0 {
				regs[in.A] = v
			}
		case ir.OpCallB:
			v, err := vm.builtin(in, regs)
			if err != nil {
				joinSpawns()
				return 0, err
			}
			if in.A >= 0 {
				regs[in.A] = v
			}
		case ir.OpSpawn:
			switch {
			case vm.cfg.Parallel:
				if wg == nil {
					wg = &sync.WaitGroup{}
				}
				// The arguments are copied here, before the parent
				// goes on to change its registers.
				child := ex.child(&regStack{})
				args := child.regs.push(in.Callee.NumRegs)
				for i, r := range in.Args {
					args[i] = regs[r]
				}
				wg.Add(1)
				go func(wg *sync.WaitGroup, callee *ir.Func, args []int64, child *execCtx) {
					defer wg.Done()
					_, err := vm.runFrame(callee, args, child)
					atomic.AddInt64(&vm.parSteps, child.steps)
					atomic.AddInt64(&vm.parChecks, child.checks)
					if err != nil {
						vm.recordSpawnError(err)
					}
				}(wg, in.Callee, args, child)
			case vm.cfg.SimWorkers > 0:
				// Virtual-time simulation: run the child inline on its
				// own virtual clock and charge its critical path to a
				// virtual worker at the next join.
				child := ex.child(ex.regs)
				if _, err := vm.call(in, regs, child); err != nil {
					joinSpawns()
					return 0, err
				}
				ex.steps += child.steps
				ex.checks += child.checks
				pending = append(pending, simSpawn{start: ex.vtime, span: child.vtime})
			default:
				// Sequential semantics: a spawn is a plain call. This is
				// what the profiler observes, matching the paper's model
				// of profiling the sequential program.
				if _, err := vm.call(in, regs, ex); err != nil {
					joinSpawns()
					return 0, err
				}
			}
		case ir.OpSync:
			joinSpawns()

		case ir.OpPrintStr:
			vm.printStr(vm.prog.Strings[in.Imm])
		case ir.OpPrintVal:
			vm.printStr(fmt.Sprintf("%d", regs[in.B]))
		case ir.OpPrintNL:
			vm.printStr("\n")

		case ir.OpJmp:
			pc = in.Targets[0]
			continue
		case ir.OpBr:
			taken := regs[in.A] != 0
			if t != nil {
				t.Branch(in, base+pc, taken)
			}
			if taken {
				pc = in.Targets[0]
			} else {
				pc = in.Targets[1]
			}
			continue
		case ir.OpRet:
			joinSpawns()
			if t != nil {
				t.ExitFunc(f)
			}
			if in.A >= 0 {
				return regs[in.A], nil
			}
			return 0, nil
		default:
			joinSpawns()
			return 0, vm.trap(in, "invalid opcode %s", in.Op)
		}
		pc++
	}
}

func (vm *VM) builtin(in *ir.Instr, regs []int64) (int64, error) {
	arg := func(i int) int64 { return regs[in.Args[i]] }
	switch in.Builtin {
	case sema.BuiltinRand:
		return vm.randNext(), nil
	case sema.BuiltinSrand:
		vm.rngMu.Lock()
		vm.rng = uint64(arg(0)) | 1
		vm.rngMu.Unlock()
		return 0, nil
	case sema.BuiltinIn:
		i := arg(0)
		if i < 0 || i >= int64(len(vm.input)) {
			return 0, vm.trap(in, "in(%d) out of range [0,%d)", i, len(vm.input))
		}
		return vm.input[i], nil
	case sema.BuiltinInLen:
		return int64(len(vm.input)), nil
	case sema.BuiltinOut:
		vm.emitOut(arg(0))
		return 0, nil
	case sema.BuiltinAssert:
		if arg(0) == 0 {
			return 0, vm.trap(in, "assertion failed")
		}
		return 0, nil
	default:
		return 0, vm.trap(in, "unknown builtin %d", in.Builtin)
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
