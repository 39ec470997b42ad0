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
// ctx.Err().
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
	m, err := vm.New(prog, vmCfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := m.RunCtx(ctx)
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
// "Orig." configuration) under ctx.
func RunProgramCtx(ctx context.Context, prog *ir.Program, vmCfg vm.Config) (*vm.Result, error) {
	vmCfg.Tracer = nil
	m, err := vm.New(prog, vmCfg)
	if err != nil {
		return nil, err
	}
	return m.RunCtx(ctx)
}
