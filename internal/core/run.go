package core

import (
	"context"

	"alchemist/internal/compile"
	"alchemist/internal/ir"
	"alchemist/internal/vm"
)

// ProfileProgramCtx runs prog sequentially under the profiler and returns
// the dependence profile together with the VM result. Cancelling ctx
// aborts the run within one VM step-check window; the error is then
// ctx.Err(). With opts.Scratch set, the VM's memory comes from the
// Scratch too.
func ProfileProgramCtx(ctx context.Context, prog *ir.Program, vmCfg vm.Config, opts Options) (*Profile, *vm.Result, error) {
	if vmCfg.MemWords == 0 {
		vmCfg.MemWords = vm.DefaultMemWords
	}
	if opts.MemWords == 0 {
		opts.MemWords = vmCfg.MemWords
	}
	prof := NewProfiler(prog, opts.MemWords, opts)
	vmCfg.Parallel = false
	vmCfg.Tracer = prof
	res, err := runVM(ctx, prog, vmCfg, opts.Scratch)
	if err != nil {
		return nil, nil, err
	}
	return prof.Finish(), res, nil
}

// ProfileProgram is ProfileProgramCtx without cancellation.
func ProfileProgram(prog *ir.Program, vmCfg vm.Config, opts Options) (*Profile, *vm.Result, error) {
	return ProfileProgramCtx(context.Background(), prog, vmCfg, opts)
}

// ProfileSource compiles mini-C source text and profiles it.
func ProfileSource(name, src string, vmCfg vm.Config, opts Options) (*Profile, *vm.Result, error) {
	prog, err := compile.Build(name, src)
	if err != nil {
		return nil, nil, err
	}
	return ProfileProgram(prog, vmCfg, opts)
}

// RunProgramCtx executes prog without instrumentation (the Table III
// "Orig." configuration) under ctx. A sequential or SimWorkers run
// keeps its memory in sc when sc is non-nil, as a profiled run does; a
// Parallel run allocates its whole memory cap and leaves sc untouched.
func RunProgramCtx(ctx context.Context, prog *ir.Program, vmCfg vm.Config, sc *Scratch) (*vm.Result, error) {
	vmCfg.Tracer = nil
	return runVM(ctx, prog, vmCfg, sc)
}

// runVM runs prog once under ctx. Unless the run is Parallel, the VM
// takes sc's memory buffer, when sc is non-nil, and sc keeps the buffer
// the run ends with, whether or not the run succeeds.
func runVM(ctx context.Context, prog *ir.Program, vmCfg vm.Config, sc *Scratch) (*vm.Result, error) {
	keep := sc != nil && !vmCfg.Parallel
	if keep {
		vmCfg.Mem = sc.mem
	}
	m, err := vm.New(prog, vmCfg)
	if err != nil {
		return nil, err
	}
	res, err := m.RunCtx(ctx)
	if keep {
		sc.mem = m.Mem()
	}
	return res, err
}
