package alchemist_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"alchemist"
	"alchemist/internal/progs"
)

const apiSrc = `
int staged[16];
int total;
void stage(int r) {
	for (int i = 0; i < 16; i++) {
		staged[i] = r * 16 + i;
	}
}
void fold() {
	for (int i = 0; i < 16; i++) {
		total += staged[i];
	}
}
int main() {
	for (int r = 0; r < 20; r++) {
		stage(r);
		fold();
	}
	out(total);
	return 0;
}
`

func TestCompileAndRun(t *testing.T) {
	ctx, eng := context.Background(), alchemist.NewEngine()
	prog, err := eng.Compile(ctx, "api.mc", apiSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(ctx, prog, alchemist.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for r := 0; r < 20; r++ {
		for i := 0; i < 16; i++ {
			want += int64(r*16 + i)
		}
	}
	if res.Output[0] != want {
		t.Fatalf("output %d, want %d", res.Output[0], want)
	}
	if res.Steps == 0 || res.VirtualSteps != res.Steps {
		t.Errorf("steps=%d virtual=%d", res.Steps, res.VirtualSteps)
	}
}

func TestCompileError(t *testing.T) {
	ctx, eng := context.Background(), alchemist.NewEngine()
	_, err := eng.Compile(ctx, "bad.mc", "int main() { return x; }")
	if err == nil || !strings.Contains(err.Error(), "undefined variable") {
		t.Fatalf("err = %v", err)
	}
}

func TestProfileAPI(t *testing.T) {
	ctx, eng := context.Background(), alchemist.NewEngine()
	prog, err := eng.Compile(ctx, "api.mc", apiSrc)
	if err != nil {
		t.Fatal(err)
	}
	profile, res, err := eng.Profile(ctx, prog, alchemist.ProfileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if profile.TotalSteps != res.Steps {
		t.Error("profile steps mismatch")
	}
	stage := profile.ConstructForFunc("stage")
	fold := profile.ConstructForFunc("fold")
	if stage == nil || fold == nil {
		t.Fatal("constructs missing")
	}
	if stage.Instances != 20 || fold.Instances != 20 {
		t.Errorf("instances stage=%d fold=%d", stage.Instances, fold.Instances)
	}
	// stage -> fold RAW edges exist with short distances (fold runs right
	// after stage).
	raw := stage.CountEdges(alchemist.RAW)
	if raw == 0 {
		t.Error("no RAW edges out of stage")
	}
	text := alchemist.Report(profile, alchemist.ReportOptions{Top: 5, ShowAllEdges: true})
	if !strings.Contains(text, "Method stage") {
		t.Errorf("report:\n%s", text)
	}
	advice := alchemist.Advise(profile)
	if len(advice) == 0 {
		t.Fatal("no advice")
	}
	atext := alchemist.AdviceText(profile, advice, 3)
	if atext == "" {
		t.Error("empty advice text")
	}
	pts := alchemist.Fig6(profile, 5)
	if len(pts) == 0 || pts[0].Rank != 1 {
		t.Errorf("fig6 points = %+v", pts)
	}
	excl := alchemist.Fig6Excluding(profile, 5, pts[1].Label)
	for _, pt := range excl {
		if pt.Label == pts[1].Label {
			t.Error("excluded label still present")
		}
	}
}

func TestProfileWAROptions(t *testing.T) {
	ctx, eng := context.Background(), alchemist.NewEngine()
	prog, err := eng.Compile(ctx, "api.mc", apiSrc)
	if err != nil {
		t.Fatal(err)
	}
	profile, _, err := eng.Profile(ctx, prog, alchemist.ProfileConfig{DisableWAR: true, DisableWAW: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range profile.Constructs {
		if c.CountEdges(alchemist.WAR)+c.CountEdges(alchemist.WAW) != 0 {
			t.Fatal("WAR/WAW edges present despite disabling")
		}
	}
}

func TestRunParallelAndSim(t *testing.T) {
	ctx, eng := context.Background(), alchemist.NewEngine()
	w := progs.Ogg()
	input := w.InputFor(w.SmallScale)

	seqProg, err := eng.Compile(ctx, "ogg.mc", w.Source)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := eng.Run(ctx, seqProg, alchemist.RunConfig{Input: input, MemWords: w.MemWords})
	if err != nil {
		t.Fatal(err)
	}

	parProg, err := eng.Compile(ctx, "ogg_par.mc", w.ParSource)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := eng.Run(ctx, parProg, alchemist.RunConfig{Input: input, MemWords: w.MemWords, SimWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sim.VirtualSteps >= seq.VirtualSteps {
		t.Errorf("no simulated speedup: %d vs %d", sim.VirtualSteps, seq.VirtualSteps)
	}
	if len(sim.Output) != len(seq.Output) {
		t.Fatalf("output lengths differ")
	}
	for i := range seq.Output {
		if sim.Output[i] != seq.Output[i] {
			t.Fatalf("output %d differs: %d vs %d", i, sim.Output[i], seq.Output[i])
		}
	}

	// Goroutine mode produces the same output.
	parProg2, err := eng.Compile(ctx, "ogg_par.mc", w.ParSource)
	if err != nil {
		t.Fatal(err)
	}
	par, err := eng.Run(ctx, parProg2, alchemist.RunConfig{Input: input, MemWords: w.MemWords, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Output {
		if par.Output[i] != seq.Output[i] {
			t.Fatalf("parallel output %d differs", i)
		}
	}
}

func TestStdout(t *testing.T) {
	ctx, eng := context.Background(), alchemist.NewEngine()
	prog, err := eng.Compile(ctx, "p.mc", `int main() { print("hi ", 7); return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := eng.Run(ctx, prog, alchemist.RunConfig{Stdout: &buf}); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "hi 7\n" {
		t.Fatalf("stdout = %q", buf.String())
	}
}

func TestIRAccess(t *testing.T) {
	ctx, eng := context.Background(), alchemist.NewEngine()
	prog, err := eng.Compile(ctx, "p.mc", `int main() { return 42; }`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.IR() == nil || prog.IR().Main == nil {
		t.Fatal("IR not exposed")
	}
	if prog.Name != "p.mc" || prog.Source == "" {
		t.Error("metadata missing")
	}
}
