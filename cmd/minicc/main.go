// Command minicc is the standalone mini-C toolchain driver: it checks,
// runs, disassembles, and dumps programs without involving the profiler.
//
// Usage:
//
//	minicc run file.mc [-input 1,2,3] [-parallel] [-workers N] [-mem words]
//	minicc check file.mc
//	minicc disasm file.mc
//	minicc ast file.mc
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"alchemist"
	"alchemist/internal/ast"
	"alchemist/internal/ir"
	"alchemist/internal/parser"
	"alchemist/internal/sema"
	"alchemist/internal/source"
)

func main() {
	if len(os.Args) < 3 {
		usage()
		os.Exit(2)
	}
	cmd, file := os.Args[1], os.Args[2]
	args := os.Args[3:]
	data, err := os.ReadFile(file)
	if err != nil {
		fail(err)
	}
	src := string(data)
	switch cmd {
	case "run":
		err = cmdRun(file, src, args)
	case "check":
		err = cmdCheck(file, src)
	case "disasm":
		err = cmdDisasm(file, src)
	case "ast":
		err = cmdAST(file, src)
	default:
		fmt.Fprintf(os.Stderr, "minicc: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fail(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `minicc - mini-C compiler and VM

usage:
  minicc run    file.mc [-input 1,2,3] [-parallel] [-workers N] [-mem words]
  minicc check  file.mc
  minicc disasm file.mc
  minicc ast    file.mc`)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "minicc: %v\n", err)
	os.Exit(1)
}

func cmdRun(name, src string, args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	inputCSV := fs.String("input", "", "comma-separated int64 input stream")
	parallel := fs.Bool("parallel", false, "execute spawns on goroutines")
	workers := fs.Int("workers", 0, "virtual-time simulation with N workers")
	memWords := fs.Int64("mem", 0, "flat memory size in words")
	steps := fs.Int64("steplimit", 0, "abort after this many instructions (sequential)")
	optimize := fs.Bool("O", false, "enable optimization passes")
	fs.Parse(args)

	var input []int64
	if *inputCSV != "" {
		for _, p := range strings.Split(*inputCSV, ",") {
			var v int64
			if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &v); err != nil {
				return fmt.Errorf("bad -input element %q", p)
			}
			input = append(input, v)
		}
	}
	ctx := context.Background()
	eng := alchemist.NewEngine()
	prog, err := eng.CompileWith(ctx, name, src, alchemist.CompileOptions{Optimize: *optimize})
	if err != nil {
		return err
	}
	res, err := eng.Run(ctx, prog, alchemist.RunConfig{
		Input:      input,
		Parallel:   *parallel,
		SimWorkers: *workers,
		MemWords:   *memWords,
		StepLimit:  *steps,
		Stdout:     os.Stdout,
	})
	if err != nil {
		return err
	}
	fmt.Printf("steps=%d", res.Steps)
	if *workers > 0 {
		fmt.Printf(" virtual=%d", res.VirtualSteps)
	}
	fmt.Printf(" ret=%d out=%v\n", res.Ret, res.Output)
	return nil
}

func cmdCheck(name, src string) error {
	file := source.NewFile(name, src)
	var diags source.DiagList
	prog := parser.Parse(file, &diags)
	if !diags.HasErrors() {
		sema.Check(prog, &diags)
	}
	for _, d := range diags.Diags {
		fmt.Println(d)
	}
	if diags.HasErrors() {
		return fmt.Errorf("%s: check failed", name)
	}
	fmt.Printf("%s: ok (%d globals, %d functions)\n", name, len(prog.Globals), len(prog.Funcs))
	return nil
}

func cmdDisasm(name, src string) error {
	p, err := alchemist.NewEngine().Compile(context.Background(), name, src)
	if err != nil {
		return err
	}
	prog := p.IR()
	fmt.Printf("globals: %d words; strings: %d\n", prog.GlobalWords, len(prog.Strings))
	for _, f := range prog.Funcs {
		fmt.Print(ir.Disassemble(f))
	}
	return nil
}

func cmdAST(name, src string) error {
	file := source.NewFile(name, src)
	var diags source.DiagList
	prog := parser.Parse(file, &diags)
	if err := diags.Err(); err != nil {
		return err
	}
	ast.Dump(os.Stdout, prog)
	return nil
}
