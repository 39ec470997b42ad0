package vm_test

import (
	"testing"

	"alchemist/internal/compile"
	"alchemist/internal/ir"
	"alchemist/internal/progs"
	"alchemist/internal/vm"
)

// clockEvent is one tracer call: its kind, its PC and the time the
// tracer reads at the call.
type clockEvent struct {
	kind byte
	gpc  int32
	now  int64
}

// eventLog appends every tracer call but Step to log, stamped by clock.
// Step is left to the two tracers below.
type eventLog struct {
	clock func() int64
	log   []clockEvent
}

func (l *eventLog) add(kind byte, gpc int) {
	l.log = append(l.log, clockEvent{kind, int32(gpc), l.clock()})
}
func (l *eventLog) Load(addr int64, gpc int)  { l.add('l', gpc) }
func (l *eventLog) Store(addr int64, gpc int) { l.add('s', gpc) }
func (l *eventLog) EnterFunc(f *ir.Func)      { l.add('e', f.Base) }
func (l *eventLog) ExitFunc(f *ir.Func)       { l.add('x', f.Base) }
func (l *eventLog) Branch(in *ir.Instr, gpc int, taken bool) {
	if taken {
		l.add('B', gpc)
	} else {
		l.add('b', gpc)
	}
}

// stepLog is a per-step tracer: it counts Steps itself and logs the
// Steps at Pops instructions, where a Clocked tracer gets them too.
type stepLog struct {
	eventLog
	pops  []bool
	steps int64
}

func (t *stepLog) Step(gpc int) {
	t.steps++
	if t.pops[gpc] {
		t.add('p', gpc)
	}
}

// clockLog is a Clocked tracer: it reads the lent clock and logs every
// Step it gets.
type clockLog struct {
	eventLog
	lent *int64
}

func (t *clockLog) UseClock(steps *int64) { t.lent = steps }
func (t *clockLog) Step(gpc int)          { t.add('p', gpc) }

var _ vm.Clocked = (*clockLog)(nil)

// TestClockedTracerSeesTheSameTimes: a Clocked tracer gets Step exactly
// at the executed instructions marked Pops, and at every event its lent
// clock reads what a per-step tracer has counted at the same event of
// the same run. Covered: every workload at small scale, sequential and
// (run sequentially) parallel sources, optimized or not.
func TestClockedTracerSeesTheSameTimes(t *testing.T) {
	for _, w := range progs.All() {
		srcs := []string{w.Source}
		if w.HasParallel() {
			srcs = append(srcs, w.ParSource)
		}
		for i, src := range srcs {
			for _, optimize := range []bool{false, true} {
				prog, err := compile.BuildConfig(w.Name+".mc", src, compile.Config{Optimize: optimize})
				if err != nil {
					t.Fatal(err)
				}
				pops := make([]bool, prog.NumPCs)
				for _, f := range prog.Funcs {
					for k, in := range f.Code {
						pops[f.GPC(k)] = in.Pops
					}
				}
				cfg := vm.Config{Input: w.InputFor(w.SmallScale), MemWords: w.MemWords}
				per := &stepLog{pops: pops}
				per.clock = func() int64 { return per.steps }
				clk := &clockLog{}
				clk.clock = func() int64 { return *clk.lent }
				var steps [2]int64
				for k, tr := range []vm.Tracer{per, clk} {
					cfg.Tracer = tr
					m, err := vm.New(prog, cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := m.Run()
					if err != nil {
						t.Fatalf("%s source %d: %v", w.Name, i, err)
					}
					steps[k] = res.Steps
				}
				name := w.Name
				if i > 0 {
					name += " (parallel source)"
				}
				if per.steps != steps[0] || *clk.lent != steps[1] || steps[0] != steps[1] {
					t.Errorf("%s optimize=%v: per-step tracer counted %d of %d steps; clocked run's clock ends at %d of %d",
						name, optimize, per.steps, steps[0], *clk.lent, steps[1])
				}
				if len(per.log) != len(clk.log) {
					t.Errorf("%s optimize=%v: %d events per step, %d clocked", name, optimize, len(per.log), len(clk.log))
				}
				for k := range min(len(per.log), len(clk.log)) {
					if per.log[k] != clk.log[k] {
						t.Errorf("%s optimize=%v: event %d: per-step %c@%d at %d, clocked %c@%d at %d", name, optimize, k,
							per.log[k].kind, per.log[k].gpc, per.log[k].now, clk.log[k].kind, clk.log[k].gpc, clk.log[k].now)
						break
					}
				}
			}
		}
	}
}

// TestTracerRefusedWithSimWorkers: a simulated spawn counts its steps on
// its own context, so a tracer would not see the run's clock; vm.New
// refuses the pair, as it refuses a tracer with Parallel.
func TestTracerRefusedWithSimWorkers(t *testing.T) {
	prog, err := compile.Build("t.mc", `int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []vm.Tracer{&stepLog{}, &clockLog{}} {
		if _, err := vm.New(prog, vm.Config{Tracer: tr, SimWorkers: 2}); err == nil {
			t.Errorf("%T with SimWorkers accepted", tr)
		}
	}
}
