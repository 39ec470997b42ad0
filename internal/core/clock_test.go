package core_test

import (
	"bytes"
	"maps"
	"testing"

	"alchemist/internal/compile"
	"alchemist/internal/core"
	"alchemist/internal/ir"
	"alchemist/internal/progs"
	"alchemist/internal/report"
	"alchemist/internal/vm"
)

// perStep forwards every event to a Profiler but is not vm.Clocked, so
// the VM calls Step before every instruction and the profiler counts
// time itself: the shape of a timing wrapper around the profiler.
type perStep struct{ p *core.Profiler }

func (w perStep) Step(gpc int)                             { w.p.Step(gpc) }
func (w perStep) Load(addr int64, gpc int)                 { w.p.Load(addr, gpc) }
func (w perStep) Store(addr int64, gpc int)                { w.p.Store(addr, gpc) }
func (w perStep) EnterFunc(f *ir.Func)                     { w.p.EnterFunc(f) }
func (w perStep) ExitFunc(f *ir.Func)                      { w.p.ExitFunc(f) }
func (w perStep) Branch(in *ir.Instr, gpc int, taken bool) { w.p.Branch(in, gpc, taken) }

// TestClockedProfileEqualsPerStep: the profiler on the VM's lent clock,
// with Step only at Pops instructions, builds the same profile as the
// same profiler behind a per-step wrapper: byte-identical JSON, the same
// nesting counters and the same pool and shadow stats, for every
// workload at small scale, under the default options and again with
// WAR, WAW and nesting off and a 4-node pool.
func TestClockedProfileEqualsPerStep(t *testing.T) {
	small := core.Options{PoolPrealloc: 4}
	for _, opts := range []core.Options{core.DefaultOptions(), small} {
		for _, w := range progs.All() {
			prog, err := compile.Build(w.Name+".mc", w.Source)
			if err != nil {
				t.Fatal(err)
			}
			cfg := vm.Config{Input: w.InputFor(w.SmallScale), MemWords: w.MemWords}
			var profs [2]*core.Profile
			var enc [2]bytes.Buffer
			for k := range profs {
				p := core.NewProfiler(prog, cfg.MemWords, opts)
				cfg.Tracer = p
				if k == 1 {
					cfg.Tracer = perStep{p}
				}
				m, err := vm.New(prog, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(); err != nil {
					t.Fatalf("%s: %v", w.Name, err)
				}
				profs[k] = p.Finish()
				if err := report.WriteJSON(&enc[k], profs[k]); err != nil {
					t.Fatal(err)
				}
			}
			clocked, stepped := profs[0], profs[1]
			if !bytes.Equal(enc[0].Bytes(), enc[1].Bytes()) {
				t.Errorf("%s %+v: clocked JSON (%d bytes) differs from per-step JSON (%d bytes)",
					w.Name, opts, enc[0].Len(), enc[1].Len())
			}
			if clocked.Pool != stepped.Pool || clocked.Shadow != stepped.Shadow {
				t.Errorf("%s %+v: clocked pool %+v shadow %+v, per-step pool %+v shadow %+v",
					w.Name, opts, clocked.Pool, clocked.Shadow, stepped.Pool, stepped.Shadow)
			}
			if !maps.Equal(clocked.NestDirect, stepped.NestDirect) || clocked.TotalSteps != stepped.TotalSteps {
				t.Errorf("%s %+v: nesting counters or total steps (%d, %d) differ",
					w.Name, opts, clocked.TotalSteps, stepped.TotalSteps)
			}
		}
	}
}
