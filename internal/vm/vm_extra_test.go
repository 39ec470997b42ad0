package vm_test

import (
	"strings"
	"testing"

	"alchemist/internal/compile"
	"alchemist/internal/vm"
)

func TestRunTwiceFails(t *testing.T) {
	prog, err := compile.Build("t.mc", `int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(prog, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestMemWordsTooSmall(t *testing.T) {
	prog, err := compile.Build("t.mc", `int g[100]; int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.New(prog, vm.Config{MemWords: 10}); err == nil {
		t.Fatal("MemWords below global segment accepted")
	}
}

func TestOutOfMemory(t *testing.T) {
	prog, err := compile.Build("t.mc", `
int main() {
	int a[] = alloc(100000);
	return a[0];
}`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(prog, vm.Config{MemWords: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "out of memory") {
		t.Fatalf("err = %v", err)
	}

	// The trap fires exactly at MemWords, however the memory is kept: an
	// allocation filling the cap succeeds and one word more traps. A
	// recycled buffer larger than the cap does not raise it.
	prog, err = compile.Build("t.mc", `
int g[10];
int main() {
	int a[] = alloc(in(0));
	a[in(0) - 1] = 7;
	return a[in(0) - 1];
}`)
	if err != nil {
		t.Fatal(err)
	}
	const capWords = 5000
	fits := capWords - prog.GlobalWords
	for _, cfg := range []vm.Config{
		{}, {SimWorkers: 2}, {Parallel: true},
		{Mem: dirtyBuffer(3 * capWords)}, {SimWorkers: 2, Mem: dirtyBuffer(3 * capWords)},
	} {
		cfg.MemWords = capWords
		for _, n := range []int64{fits, fits + 1} {
			cfg.Input = []int64{n}
			m, err := vm.New(prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.Run()
			if n == fits && (err != nil || res.Ret != 7) {
				t.Errorf("SimWorkers %d, Parallel %v, buffer %d: alloc(%d) filling the cap: res %+v, err %v", cfg.SimWorkers, cfg.Parallel, cap(cfg.Mem), n, res, err)
			}
			if n > fits && (err == nil || !strings.Contains(err.Error(), "out of memory")) {
				t.Errorf("SimWorkers %d, Parallel %v, buffer %d: alloc(%d) past the cap: err = %v", cfg.SimWorkers, cfg.Parallel, cap(cfg.Mem), n, err)
			}
		}
	}
}

func TestSpawnedErrorPropagates(t *testing.T) {
	src := `
int a[4];
void bad(int i) { a[i + 100] = 1; }
int main() {
	spawn bad(0);
	sync;
	return 0;
}`
	for _, parallel := range []bool{false, true} {
		prog, err := compile.Build("t.mc", src)
		if err != nil {
			t.Fatal(err)
		}
		m, err := vm.New(prog, vm.Config{Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("parallel=%v: err = %v", parallel, err)
		}
	}
}

func TestSimSpawnedErrorPropagates(t *testing.T) {
	src := `
void bad() { assert(0); }
int main() {
	spawn bad();
	sync;
	return 0;
}`
	prog, err := compile.Build("t.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(prog, vm.Config{SimWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "assertion") {
		t.Fatalf("err = %v", err)
	}
}

func TestGlobalInspectionMisses(t *testing.T) {
	prog, err := compile.Build("t.mc", `int s; int a[2]; int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(prog, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.GlobalValue("nope"); ok {
		t.Error("unknown global found")
	}
	if _, ok := m.GlobalValue("a"); ok {
		t.Error("array reported as scalar")
	}
	if _, ok := m.GlobalArrayValues("s"); ok {
		t.Error("scalar reported as array")
	}
	if _, ok := m.GlobalArrayValues("zzz"); ok {
		t.Error("unknown array found")
	}
	if m.Mem() == nil {
		t.Error("Mem() nil")
	}
}

func TestUninitializedArrayTrap(t *testing.T) {
	// An array parameter receiving a zero value (never assigned a real
	// array) traps on access instead of corrupting word 0.
	src := `
int take(int a[]) { return a[0]; }
int main() {
	int dummy[1];
	int x[] = alloc(0);
	return take(x);
}`
	prog, err := compile.Build("t.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(prog, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Fatal("zero-length array access should trap")
	}
}

func TestNestedSpawns(t *testing.T) {
	// A spawned function spawning again: joins must nest correctly in
	// all three modes.
	src := `
int grid[16];
void leaf(int base, int i) { grid[base + i] = base + i; }
void branch(int base) {
	for (int i = 0; i < 4; i++) {
		spawn leaf(base, i);
	}
	sync;
}
int main() {
	for (int b = 0; b < 4; b++) {
		spawn branch(b * 4);
	}
	sync;
	int s = 0;
	for (int i = 0; i < 16; i++) { s += grid[i]; }
	out(s);
	return 0;
}`
	want := int64(0)
	for i := int64(0); i < 16; i++ {
		want += i
	}
	for _, mode := range []string{"seq", "par", "sim"} {
		prog, err := compile.Build("t.mc", src)
		if err != nil {
			t.Fatal(err)
		}
		cfg := vm.Config{}
		switch mode {
		case "par":
			cfg.Parallel = true
		case "sim":
			cfg.SimWorkers = 3
		}
		m, err := vm.New(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if res.Output[0] != want {
			t.Errorf("%s: sum = %d, want %d", mode, res.Output[0], want)
		}
	}
}

func TestPrintFormatting(t *testing.T) {
	var sb strings.Builder
	prog, err := compile.Build("t.mc", `
int main() {
	print("neg=", 0 - 5, " pos=", 123456789);
	print();
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(prog, vm.Config{Out: &sb})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "neg=-5 pos=123456789\n\n" {
		t.Fatalf("print output %q", sb.String())
	}
}

func TestRandNonNegative(t *testing.T) {
	prog, err := compile.Build("t.mc", `
int main() {
	srand(in(0));
	for (int i = 0; i < 100; i++) {
		assert(rand() >= 0);
	}
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.New(prog, vm.Config{Input: []int64{-12345}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}
