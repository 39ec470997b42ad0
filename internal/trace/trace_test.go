package trace_test

import (
	"testing"

	"alchemist/internal/compile"
	"alchemist/internal/core"
	"alchemist/internal/progs"
	"alchemist/internal/trace"
	"alchemist/internal/vm"
)

// equalProfiles compares every construct and edge of two profiles.
func equalProfiles(t *testing.T, online, offline *core.Profile) {
	t.Helper()
	if online.TotalSteps != offline.TotalSteps {
		t.Errorf("steps: %d vs %d", online.TotalSteps, offline.TotalSteps)
	}
	if online.StaticConstructs != offline.StaticConstructs {
		t.Errorf("static: %d vs %d", online.StaticConstructs, offline.StaticConstructs)
	}
	if online.DynamicConstructs != offline.DynamicConstructs {
		t.Errorf("dynamic: %d vs %d", online.DynamicConstructs, offline.DynamicConstructs)
	}
	if len(online.Constructs) != len(offline.Constructs) {
		t.Fatalf("construct counts differ: %d vs %d", len(online.Constructs), len(offline.Constructs))
	}
	for i, a := range online.Constructs {
		b := offline.Constructs[i]
		if a.Label != b.Label || a.Kind != b.Kind || a.Ttotal != b.Ttotal ||
			a.Instances != b.Instances || a.MinDur != b.MinDur || a.MaxDur != b.MaxDur {
			t.Fatalf("construct %d differs:\n  online  %+v\n  offline %+v", i, a, b)
		}
		if len(a.Edges) != len(b.Edges) {
			t.Fatalf("construct %d edge counts: %d vs %d", i, len(a.Edges), len(b.Edges))
		}
		for j := range a.Edges {
			if a.Edges[j] != b.Edges[j] {
				t.Fatalf("construct %d edge %d differs:\n  %+v\n  %+v", i, j, a.Edges[j], b.Edges[j])
			}
		}
	}
	if len(online.NestDirect) != len(offline.NestDirect) {
		t.Fatalf("nest counters: %d vs %d", len(online.NestDirect), len(offline.NestDirect))
	}
	for k, v := range online.NestDirect {
		if w, ok := offline.NestDirect[k]; !ok || w != v {
			t.Fatalf("nest counter %d differs: %d vs %d", k, v, w)
		}
	}
}

// TestReplayEqualsOnline is the differential test: the offline
// (whole-trace) baseline must reproduce the online profile exactly, for
// every workload.
func TestReplayEqualsOnline(t *testing.T) {
	for _, w := range progs.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, err := compile.Build(w.Name+".mc", w.Source)
			if err != nil {
				t.Fatal(err)
			}
			scale := w.SmallScale
			if w.Name == "bzip2" {
				// bzip2's small scale still yields a ~10M-event trace;
				// one block per file keeps this differential test quick.
				scale = 1200
			}
			input := w.InputFor(scale)
			cfg := vm.Config{Input: input, MemWords: w.MemWords}

			online, _, err := core.ProfileProgram(prog, cfg, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			rec, _, err := trace.Record(prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			offline, err := trace.Replay(prog, rec.Events, w.MemWords, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			equalProfiles(t, online, offline)
			t.Logf("%s: trace %d events (%d MB) vs online O(pool) memory",
				w.Name, len(rec.Events), rec.Bytes()>>20)
		})
	}
}

// TestTraceShape sanity-checks the recorded event stream.
func TestTraceShape(t *testing.T) {
	prog, err := compile.Build("t.mc", `
int g;
void f() { g = g + 1; }
int main() {
	for (int i = 0; i < 3; i++) { f(); }
	return g;
}`)
	if err != nil {
		t.Fatal(err)
	}
	rec, res, err := trace.Record(prog, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[trace.Kind]int{}
	for _, ev := range rec.Events {
		counts[ev.Kind]++
	}
	if int64(counts[trace.KStep]) != res.Steps {
		t.Errorf("step events %d != executed steps %d", counts[trace.KStep], res.Steps)
	}
	// main + 3 calls to f.
	if counts[trace.KEnter] != 4 || counts[trace.KExit] != 4 {
		t.Errorf("enter/exit = %d/%d, want 4/4", counts[trace.KEnter], counts[trace.KExit])
	}
	// f performs one load and one store per call; main's loop none.
	if counts[trace.KLoad] < 3 || counts[trace.KStore] < 3 {
		t.Errorf("load/store = %d/%d", counts[trace.KLoad], counts[trace.KStore])
	}
	// 3 taken + 1 not-taken loop branch evaluations... plus none else.
	if counts[trace.KBranchTaken] != 3 || counts[trace.KBranchNotTaken] != 1 {
		t.Errorf("branches = %d taken / %d not", counts[trace.KBranchTaken], counts[trace.KBranchNotTaken])
	}
	if rec.Bytes() != int64(len(rec.Events))*16 {
		t.Error("Bytes() inconsistent")
	}
}

// TestReplayRejectsCorruptTraces checks the replay validators.
func TestReplayRejectsCorruptTraces(t *testing.T) {
	prog, err := compile.Build("t.mc", `int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]trace.Event{
		{{Kind: trace.KEnter, GPC: 999}},
		{{Kind: trace.KBranchTaken, GPC: 0}}, // pc 0 is not a branch here
		{{Kind: trace.Kind(99)}},
	}
	// Every event kind just outside [0, NumPCs): the profiler indexes its
	// tables by PC, so none may reach it.
	for k := trace.KStep; k <= trace.KBranchNotTaken; k++ {
		for _, pc := range []int32{-1, int32(prog.NumPCs)} {
			cases = append(cases, []trace.Event{{Kind: k, GPC: pc, Addr: 1}})
		}
	}
	for i, evs := range cases {
		if _, err := trace.Replay(prog, evs, 0, core.DefaultOptions()); err == nil {
			t.Errorf("case %d %+v: corrupt trace accepted", i, evs)
		}
	}
}

// BenchmarkOnlineVsTrace quantifies the paper's design point: online
// profiling avoids materializing multi-million-event traces.
func BenchmarkOnlineVsTrace(b *testing.B) {
	w := progs.Gzip()
	prog, err := compile.Build("gzip.mc", w.Source)
	if err != nil {
		b.Fatal(err)
	}
	input := w.InputFor(w.SmallScale)
	cfg := vm.Config{Input: input, MemWords: w.MemWords}
	b.Run("online", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.ProfileProgram(prog, cfg, core.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("record+replay", func(b *testing.B) {
		var traceBytes int64
		for i := 0; i < b.N; i++ {
			rec, _, err := trace.Record(prog, cfg)
			if err != nil {
				b.Fatal(err)
			}
			traceBytes = rec.Bytes()
			if _, err := trace.Replay(prog, rec.Events, w.MemWords, core.DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(traceBytes), "trace-bytes")
	})
}
