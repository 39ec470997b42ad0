// Package trace records VM instrumentation events and replays them into
// the profiler offline.
//
// Alchemist's defining design choice is being an *online* profiler: it
// never materializes the execution trace (paper §V contrasts it with
// trace-based tools like ParaMeter). This package implements the
// whole-trace baseline: a Recorder captures every event, and Replay feeds
// a recorded trace through the same profiling algorithm. The differential
// test in trace_test.go shows the two produce identical profiles; the
// benchmark quantifies the trace memory the online design avoids.
package trace

import (
	"fmt"

	"alchemist/internal/core"
	"alchemist/internal/ir"
	"alchemist/internal/vm"
)

// Kind tags one recorded event.
type Kind uint8

// Event kinds.
const (
	KStep Kind = iota
	KLoad
	KStore
	KEnter
	KExit
	KBranchTaken
	KBranchNotTaken
)

func (k Kind) String() string {
	switch k {
	case KStep:
		return "step"
	case KLoad:
		return "load"
	case KStore:
		return "store"
	case KEnter:
		return "enter"
	case KExit:
		return "exit"
	case KBranchTaken:
		return "br+"
	case KBranchNotTaken:
		return "br-"
	default:
		return "?"
	}
}

// Event is one instrumentation event. GPC is the global PC (for
// enter/exit it is the function base); Addr carries the memory address
// for loads/stores.
type Event struct {
	Addr int64
	GPC  int32
	Kind Kind
}

// Recorder implements vm.Tracer by appending events.
type Recorder struct {
	Events []Event
}

var _ vm.Tracer = (*Recorder)(nil)

// Step records an instruction retirement.
func (r *Recorder) Step(gpc int) {
	r.Events = append(r.Events, Event{Kind: KStep, GPC: int32(gpc)})
}

// Load records a tracked read.
func (r *Recorder) Load(addr int64, gpc int) {
	r.Events = append(r.Events, Event{Kind: KLoad, GPC: int32(gpc), Addr: addr})
}

// Store records a tracked write.
func (r *Recorder) Store(addr int64, gpc int) {
	r.Events = append(r.Events, Event{Kind: KStore, GPC: int32(gpc), Addr: addr})
}

// EnterFunc records a frame entry.
func (r *Recorder) EnterFunc(f *ir.Func) {
	r.Events = append(r.Events, Event{Kind: KEnter, GPC: int32(f.Base)})
}

// ExitFunc records a frame exit.
func (r *Recorder) ExitFunc(f *ir.Func) {
	r.Events = append(r.Events, Event{Kind: KExit, GPC: int32(f.Base)})
}

// Branch records a resolved conditional branch.
func (r *Recorder) Branch(in *ir.Instr, gpc int, taken bool) {
	k := KBranchNotTaken
	if taken {
		k = KBranchTaken
	}
	r.Events = append(r.Events, Event{Kind: k, GPC: int32(gpc)})
}

// Bytes reports the in-memory size of the recorded trace.
func (r *Recorder) Bytes() int64 {
	return int64(len(r.Events)) * 16
}

// Record runs prog sequentially, capturing the full event trace along
// with the VM result.
func Record(prog *ir.Program, cfg vm.Config) (*Recorder, *vm.Result, error) {
	rec := &Recorder{}
	cfg.Parallel = false
	cfg.Tracer = rec
	m, err := vm.New(prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := m.Run()
	if err != nil {
		return nil, nil, err
	}
	return rec, res, nil
}

// Replay feeds a recorded trace through a fresh profiler, producing the
// same profile the online run would have produced. It rejects any event
// whose PC lies outside the program, which the profiler does not check.
func Replay(prog *ir.Program, events []Event, memWords int64, opts core.Options) (*core.Profile, error) {
	p := core.NewProfiler(prog, memWords, opts)
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case KStep, KLoad, KStore:
			if ev.GPC < 0 || int(ev.GPC) >= prog.NumPCs {
				return nil, fmt.Errorf("trace: %s event at pc %d outside [0, %d)", ev.Kind, ev.GPC, prog.NumPCs)
			}
			switch ev.Kind {
			case KStep:
				p.Step(int(ev.GPC))
			case KLoad:
				p.Load(ev.Addr, int(ev.GPC))
			default:
				p.Store(ev.Addr, int(ev.GPC))
			}
		case KEnter:
			f := prog.FuncAt(int(ev.GPC))
			if f == nil || f.Base != int(ev.GPC) {
				return nil, fmt.Errorf("trace: enter event for unknown function base %d", ev.GPC)
			}
			p.EnterFunc(f)
		case KExit:
			f := prog.FuncAt(int(ev.GPC))
			if f == nil {
				return nil, fmt.Errorf("trace: exit event for unknown function base %d", ev.GPC)
			}
			p.ExitFunc(f)
		case KBranchTaken, KBranchNotTaken:
			in := prog.InstrAt(int(ev.GPC))
			if in == nil || in.Op != ir.OpBr {
				return nil, fmt.Errorf("trace: branch event at non-branch pc %d", ev.GPC)
			}
			p.Branch(in, int(ev.GPC), ev.Kind == KBranchTaken)
		default:
			return nil, fmt.Errorf("trace: unknown event kind %d", ev.Kind)
		}
	}
	return p.Finish(), nil
}
