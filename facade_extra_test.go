package alchemist_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"alchemist"
)

func TestCompileOptimizedFacade(t *testing.T) {
	ctx, eng := context.Background(), alchemist.NewEngine()
	src := `
int main() {
	int x = 2 + 3 * 4;
	out(x);
	return 0;
}`
	plain, err := eng.Compile(ctx, "p.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	optd, err := eng.CompileWith(ctx, "p.mc", src, alchemist.CompileOptions{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := eng.Run(ctx, plain, alchemist.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ro, err := eng.Run(ctx, optd, alchemist.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rp.Output[0] != ro.Output[0] {
		t.Fatalf("outputs differ: %v vs %v", rp.Output, ro.Output)
	}
	if ro.Steps > rp.Steps {
		t.Errorf("optimized ran more steps: %d vs %d", ro.Steps, rp.Steps)
	}
}

func TestMergeAndDiffFacade(t *testing.T) {
	ctx, eng := context.Background(), alchemist.NewEngine()
	src := `
int shared;
int sink[8];
void handle(int i, int mode) {
	int acc = i * 3;
	if (mode == 1) { shared = acc; }
	sink[i & 7] = acc;
}
int main() {
	int n = inlen() / 2;
	for (int i = 0; i < n; i++) {
		handle(in(2 * i), in(2 * i + 1));
		out(shared);
	}
	return 0;
}`
	prog, err := eng.Compile(ctx, "m.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	profileWith := func(mode int64) *alchemist.Profile {
		var input []int64
		for i := int64(0); i < 12; i++ {
			input = append(input, i, mode)
		}
		p, _, err := eng.Profile(ctx, prog, alchemist.ProfileConfig{
			RunConfig: alchemist.RunConfig{Input: input},
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	clean := profileWith(0)
	dirty := profileWith(1)

	merged, err := alchemist.Merge(clean, dirty)
	if err != nil {
		t.Fatal(err)
	}
	h := merged.ConstructForFunc("handle")
	if h == nil || h.Instances != 24 {
		t.Fatalf("merged handle: %+v", h)
	}

	diffs, err := alchemist.Diff(clean, dirty)
	if err != nil {
		t.Fatal(err)
	}
	introduced := 0
	for _, d := range diffs {
		introduced += len(d.Introduced)
	}
	if introduced == 0 {
		t.Error("diff found no introduced violations")
	}

	var buf bytes.Buffer
	if err := alchemist.WriteJSON(&buf, merged); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"constructs"`) {
		t.Error("JSON export looks wrong")
	}
}

func TestRunConfigValidation(t *testing.T) {
	ctx, eng := context.Background(), alchemist.NewEngine()
	prog, err := eng.Compile(ctx, "p.mc", `int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(ctx, prog, alchemist.RunConfig{Parallel: true, SimWorkers: 2}); err == nil {
		t.Error("Parallel+SimWorkers accepted")
	}
}

func TestProfileSeedAffectsRand(t *testing.T) {
	ctx, eng := context.Background(), alchemist.NewEngine()
	src := `
int main() {
	out(rand() & 65535);
	return 0;
}`
	prog, err := eng.Compile(ctx, "r.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.Run(ctx, prog, alchemist.RunConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Run(ctx, prog, alchemist.RunConfig{Seed: 99999})
	if err != nil {
		t.Fatal(err)
	}
	c, err := eng.Run(ctx, prog, alchemist.RunConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Output[0] != c.Output[0] {
		t.Error("same seed produced different streams")
	}
	if a.Output[0] == b.Output[0] {
		t.Error("different seeds produced the same first value (unlikely)")
	}
}
