package compile_test

import (
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"alchemist/internal/compile"
	"alchemist/internal/ir"
	"alchemist/internal/progs"
	"alchemist/internal/vm"
)

func build(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := compile.Build("t.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGlobalLayout(t *testing.T) {
	p := build(t, `
int a;
int b = 7;
int arr[10];
int c;
int main() { return a + b + arr[0] + c; }
`)
	// Address 0 is reserved; scalars and arrays are laid out in
	// declaration order.
	if p.GlobalAddr[0] != 1 {
		t.Errorf("a addr = %d", p.GlobalAddr[0])
	}
	if p.GlobalAddr[1] != 2 || p.GlobalInit[1] != 7 {
		t.Errorf("b addr/init = %d/%d", p.GlobalAddr[1], p.GlobalInit[1])
	}
	arr := p.GlobalArray[2]
	if arr.Base() != 3 || arr.Len() != 10 {
		t.Errorf("arr ref = (%d,%d)", arr.Base(), arr.Len())
	}
	if p.GlobalAddr[3] != 13 {
		t.Errorf("c addr = %d", p.GlobalAddr[3])
	}
	if p.GlobalWords != 14 {
		t.Errorf("GlobalWords = %d", p.GlobalWords)
	}
	if len(p.GlobalNames) != 4 || p.GlobalNames[2] != "arr" {
		t.Errorf("names = %v", p.GlobalNames)
	}
}

func TestLoopBranchMetadata(t *testing.T) {
	p := build(t, `
int g;
int main() {
	int i = 0;
	while (i < 10) {
		g += i;
		i++;
	}
	return g;
}
`)
	main := p.FindFunc("main")
	var loopBr *ir.Instr
	var loopIdx int
	for i := range main.Code {
		in := &main.Code[i]
		if in.Op == ir.OpBr && in.IsLoopPred {
			loopBr = in
			loopIdx = i
		}
	}
	if loopBr == nil {
		t.Fatal("no loop predicate branch")
	}
	// The loop construct closes at the branch's false target (the loop
	// exit), which must equal the PopPC.
	if loopBr.PopPC == ir.NoPopPC {
		t.Fatal("loop branch has no PopPC")
	}
	exit := loopBr.Targets[1]
	if loopBr.PopPC != main.GPC(exit) {
		t.Errorf("PopPC = %d, want gpc of exit %d", loopBr.PopPC, main.GPC(exit))
	}
	if loopBr.Targets[0] != loopIdx+1 {
		t.Errorf("loop body target = %d, want fallthrough %d", loopBr.Targets[0], loopIdx+1)
	}
}

func TestIfBranchPopPC(t *testing.T) {
	p := build(t, `
int g;
int main() {
	int x = in(0);
	if (x > 0) {
		g = 1;
	}
	g = g + 2;
	return g;
}
`)
	main := p.FindFunc("main")
	var br *ir.Instr
	for i := range main.Code {
		in := &main.Code[i]
		if in.Op == ir.OpBr && !in.IsLoopPred {
			br = in
		}
	}
	if br == nil {
		t.Fatal("no if branch")
	}
	// The if construct closes at the join: the false target.
	if br.PopPC != main.GPC(br.Targets[1]) {
		t.Errorf("if PopPC = %d, want join %d", br.PopPC, main.GPC(br.Targets[1]))
	}
}

func TestIfWithReturnPopPCIsFunctionExit(t *testing.T) {
	p := build(t, `
int f(int x) {
	if (x > 0) {
		return 1;
	}
	return 2;
}
int main() { return f(in(0)); }
`)
	f := p.FindFunc("f")
	for i := range f.Code {
		in := &f.Code[i]
		if in.Op == ir.OpBr {
			if in.PopPC != ir.NoPopPC {
				t.Errorf("branch with both arms returning: PopPC = %d, want NoPopPC", in.PopPC)
			}
		}
	}
}

func TestShortCircuitCompiles(t *testing.T) {
	p := build(t, `
int main() {
	int a = in(0);
	int b = in(1);
	return (a > 0 && b > 0) || a == b;
}
`)
	main := p.FindFunc("main")
	brs := 0
	for i := range main.Code {
		if main.Code[i].Op == ir.OpBr && !main.Code[i].IsLoopPred {
			brs++
		}
	}
	if brs < 2 {
		t.Errorf("short-circuit lowering produced %d branches, want >= 2", brs)
	}
}

func TestDoWhileKeepsLoopPredicate(t *testing.T) {
	// do-while desugars to while(1); the constant condition must still be
	// a real loop-predicate branch so iterations become construct
	// instances (rule 4 applies).
	p := build(t, `
int g;
int main() {
	int i = 0;
	do { g += i; i++; } while (i < 3);
	return g;
}
`)
	main := p.FindFunc("main")
	found := false
	for i := range main.Code {
		if main.Code[i].Op == ir.OpBr && main.Code[i].IsLoopPred {
			found = true
		}
	}
	if !found {
		t.Error("do-while lost its loop predicate")
	}
}

func TestStringPool(t *testing.T) {
	p := build(t, `
int main() {
	print("a", 1, "b");
	print("a");
	return 0;
}
`)
	// Strings are pooled per occurrence (no dedup required, but all
	// reachable).
	if len(p.Strings) < 3 {
		t.Errorf("strings = %v", p.Strings)
	}
	main := p.FindFunc("main")
	prints := map[ir.Op]int{}
	for i := range main.Code {
		prints[main.Code[i].Op]++
	}
	if prints[ir.OpPrintStr] != 3 || prints[ir.OpPrintVal] != 1 || prints[ir.OpPrintNL] != 2 {
		t.Errorf("print ops = %v", prints)
	}
}

func TestCompoundAssignGlobal(t *testing.T) {
	p := build(t, `
int g;
int main() { g += 5; return g; }
`)
	main := p.FindFunc("main")
	// Compound assignment on a global must load, add, store.
	seq := []ir.Op{}
	for i := range main.Code {
		switch main.Code[i].Op {
		case ir.OpLoadG, ir.OpStoreG, ir.OpAdd:
			seq = append(seq, main.Code[i].Op)
		}
	}
	want := []ir.Op{ir.OpLoadG, ir.OpAdd, ir.OpStoreG, ir.OpLoadG}
	if len(seq) != len(want) {
		t.Fatalf("memory op sequence = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("memory op sequence = %v, want %v", seq, want)
		}
	}
}

func TestVoidCallDiscardsResult(t *testing.T) {
	p := build(t, `
int f() { return 3; }
int main() { f(); return 0; }
`)
	main := p.FindFunc("main")
	for i := range main.Code {
		in := &main.Code[i]
		if in.Op == ir.OpCall && in.A != -1 {
			t.Errorf("discarded call stores into r%d", in.A)
		}
	}
}

func TestSpawnMarksCallee(t *testing.T) {
	p := build(t, `
void w(int i) {}
int main() { spawn w(1); sync; return 0; }
`)
	if f := p.FindFunc("w"); !f.IsSpawnable {
		t.Error("spawn target not marked spawnable")
	}
}

func TestNumRegsCoversTemps(t *testing.T) {
	p := build(t, `
int main() {
	int a = 1;
	int b = 2;
	return (a + b) * (a - b) + (a * b) / (1 + a * a + b * b);
}
`)
	main := p.FindFunc("main")
	for i := range main.Code {
		in := &main.Code[i]
		for _, r := range []int{in.A, in.B, in.C} {
			if r >= main.NumRegs {
				t.Fatalf("instr %d uses r%d >= NumRegs %d", i, r, main.NumRegs)
			}
		}
		for _, r := range in.Args {
			if r >= main.NumRegs {
				t.Fatalf("instr %d arg r%d >= NumRegs %d", i, r, main.NumRegs)
			}
		}
	}
}

func TestBranchTargetsInRange(t *testing.T) {
	for _, src := range []string{
		`int main() { for (int i = 0; i < 3; i++) { if (i == 1) { continue; } if (i == 2) { break; } } return 0; }`,
		`int main() { int i = 0; while (i < 3) { i++; } return i; }`,
		`int main() { int x = in(0); return x > 0 ? (x < 10 ? 1 : 2) : 3; }`,
		`int main() { int x = in(0); return x > 0 && (x | 1) < 9 || x == 4; }`,
	} {
		p := build(t, src)
		for _, f := range p.Funcs {
			for i := range f.Code {
				in := &f.Code[i]
				switch in.Op {
				case ir.OpJmp:
					if in.Targets[0] < 0 || in.Targets[0] >= len(f.Code) {
						t.Fatalf("%s: jmp target %d out of range", src, in.Targets[0])
					}
				case ir.OpBr:
					for _, tgt := range in.Targets {
						if tgt < 0 || tgt >= len(f.Code) {
							t.Fatalf("%s: br target %d out of range", src, tgt)
						}
					}
				}
			}
		}
	}
}

// TestKitchenSinkExecutes drives every lowering path (all compound
// assignment operators, local array forms, nested control flow, ternary
// discard, every builtin) through the VM and checks the result.
func TestKitchenSinkExecutes(t *testing.T) {
	src := `
int gs = 10;
int ga[8];
int sum(int a[], int n) {
	int s = 0;
	for (int i = 0; i < n; i++) { s += a[i]; }
	return s;
}
int main() {
	int x = 7;
	x += 3;
	x -= 1;
	x *= 2;
	x /= 3;
	x %= 5;
	x <<= 4;
	x >>= 2;
	x &= 0xff;
	x |= 0x10;
	x ^= 0x3;
	gs += x;
	gs -= 1;
	gs *= 2;
	ga[0] = 5;
	ga[0] += 2;
	ga[0] <<= 1;
	int la[4];
	la[1] = 9;
	int lb[] = alloc(3);
	lb[2] = 4;
	int cond = (x > 0) ? sum(ga, 8) : sum(la, 4);
	1 + 2;
	sum(lb, 3);
	srand(7);
	int r1 = rand();
	srand(7);
	assert(r1 == rand());
	out(x);
	out(gs);
	out(cond);
	out(la[1] + lb[2]);
	out(len(lb));
	return 0;
}`
	prog := build(t, src)
	m, err := vm.New(prog, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Independently compute the scalar chain.
	x := int64(7)
	x += 3
	x -= 1
	x *= 2
	x /= 3
	x %= 5
	x <<= 4
	x >>= 2
	x &= 0xff
	x |= 0x10
	x ^= 0x3
	gs := int64(10)
	gs += x
	gs -= 1
	gs *= 2
	ga0 := int64(5)
	ga0 += 2
	ga0 <<= 1
	want := []int64{x, gs, ga0, 9 + 4, 3}
	for i := range want {
		if res.Output[i] != want[i] {
			t.Fatalf("output %v, want %v", res.Output, want)
		}
	}
}

// TestCompileErrorsSurface covers compile-stage failure paths.
func TestCompileErrorsSurface(t *testing.T) {
	// Oversized global array trips the compile-time layout check.
	if _, err := compile.Build("big.mc", `int g[999999999]; int main() { return 0; }`); err == nil {
		t.Error("oversized global accepted")
	}
}

// TestPopsMarksExactlyThePopPCs: an instruction is marked Pops exactly
// when some branch's PopPC names it, across every workload (optimized or
// not, sequential and parallel sources) and every testdata program. A
// clocked profiler sees rule 5 only at marked instructions, so a missing
// mark would leave a construct open and a stray one would cost a call.
func TestPopsMarksExactlyThePopPCs(t *testing.T) {
	type source struct{ name, src string }
	var srcs []source
	for _, w := range progs.All() {
		srcs = append(srcs, source{w.Name, w.Source})
		if w.HasParallel() {
			srcs = append(srcs, source{w.Name + "_par", w.ParSource})
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mc"))
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata programs: %v, %d found", err, len(files))
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, source{filepath.Base(f), string(b)})
	}
	for _, s := range srcs {
		for _, optimize := range []bool{false, true} {
			p, err := compile.BuildConfig(s.name+".mc", s.src, compile.Config{Optimize: optimize})
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			named := make([]bool, p.NumPCs)
			for _, f := range p.Funcs {
				for _, in := range f.Code {
					if in.Op == ir.OpBr && in.PopPC != ir.NoPopPC {
						named[in.PopPC] = true
					}
				}
			}
			marked := 0
			for _, f := range p.Funcs {
				for i, in := range f.Code {
					if in.Pops != named[f.GPC(i)] {
						t.Errorf("%s (optimize=%v): pc %d (%s) Pops = %v, named by a PopPC = %v",
							s.name, optimize, f.GPC(i), in.Op, in.Pops, named[f.GPC(i)])
					}
					if in.Pops {
						marked++
					}
				}
			}
			if marked == 0 {
				t.Errorf("%s (optimize=%v): no instruction marked Pops", s.name, optimize)
			}
		}
	}
	if n := unsafe.Sizeof(ir.Instr{}); n != 144 {
		t.Errorf("ir.Instr is %d bytes, want 144: Pops must fit beside Op", n)
	}
}
