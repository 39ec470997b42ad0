package vm_test

import (
	"slices"
	"testing"

	"alchemist/internal/compile"
	"alchemist/internal/vm"
)

// growSrc fills a global array, then allocates ten arrays of doubling
// size, each filled before the next is allocated and re-read after, so
// every array lives across several memory growths.
const growSrc = `
int g[100];
int fill(int depth, int n) {
	int a[] = alloc(n);
	for (int j = 0; j < n; j++) a[j] = depth * 1000 + j;
	int inner = 0;
	if (depth > 0) inner = fill(depth - 1, n * 2);
	int s = 0;
	for (int j = 0; j < n; j++) s += a[j];
	return s + inner;
}
int main() {
	for (int i = 0; i < 100; i++) g[i] = i * 7;
	int s = fill(9, 100);
	int gs = 0;
	for (int i = 0; i < 100; i++) gs += g[i];
	out(s);
	out(gs);
	return 0;
}`

// TestMemoryGrowsOnDemand: sequential and simulated runs start with the
// globals and grow memory as the program allocates, keeping every value
// written before a growth.
func TestMemoryGrowsOnDemand(t *testing.T) {
	prog, err := compile.Build("grow.mc", growSrc)
	if err != nil {
		t.Fatal(err)
	}
	var wantS, words int64
	for depth, n := int64(9), int64(100); depth >= 0; depth, n = depth-1, n*2 {
		for j := int64(0); j < n; j++ {
			wantS += depth*1000 + j
		}
		words += n
	}
	wantGS := int64(7 * 99 * 100 / 2)
	for _, cfg := range []vm.Config{{}, {SimWorkers: 2}, {Parallel: true}} {
		m, err := vm.New(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if len(res.Output) != 2 || res.Output[0] != wantS || res.Output[1] != wantGS {
			t.Errorf("%+v: output %v, want [%d %d]", cfg, res.Output, wantS, wantGS)
		}
		mem := int64(len(m.Mem()))
		if mem < prog.GlobalWords+words {
			t.Errorf("%+v: memory %d words, below the %d allocated", cfg, mem, prog.GlobalWords+words)
		}
		if want := int64(vm.DefaultMemWords); cfg.Parallel != (mem == want) {
			t.Errorf("%+v: memory %d words; only Parallel runs start at the cap %d", cfg, mem, want)
		}
	}
}

// TestParallelSpawnsAllocate: goroutine-parallel children allocate from
// the shared bump pointer at once and still match a sequential run.
func TestParallelSpawnsAllocate(t *testing.T) {
	src := `
int results[8];
void work(int i, int n) {
	int a[] = alloc(n);
	for (int j = 0; j < n; j++) a[j] = j ^ i;
	int s = 0;
	for (int j = 0; j < n; j++) s += a[j];
	results[i] = s;
}
int main() {
	for (int i = 0; i < 8; i++) spawn work(i, 5000 + i);
	sync;
	int total = 0;
	for (int i = 0; i < 8; i++) total += results[i];
	out(total);
	return 0;
}`
	seq := run(t, src, vm.Config{})
	par := run(t, src, vm.Config{Parallel: true})
	if seq.Output[0] != par.Output[0] {
		t.Fatalf("parallel result %d != sequential %d", par.Output[0], seq.Output[0])
	}
}

// TestCallsDoNotAllocate: a run's allocations do not grow with its call
// count, in sequential and simulated runs alike.
func TestCallsDoNotAllocate(t *testing.T) {
	prog, err := compile.Build("calls.mc", `
int leaf(int x, int y) { return x + y; }
int mid(int x) { return leaf(x, 1) + leaf(x, 2); }
void side(int x) { out(mid(x)); }
int main() {
	int s = 0;
	for (int i = 0; i < in(0); i++) s = mid(s) & 65535;
	spawn side(s);
	sync;
	out(s);
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []vm.Config{{}, {SimWorkers: 2}} {
		allocs := func(calls int64) float64 {
			cfg := cfg
			cfg.Input = []int64{calls}
			return testing.AllocsPerRun(5, func() {
				m, err := vm.New(prog, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
		if n, n4 := allocs(1000), allocs(4000); n != n4 {
			t.Errorf("SimWorkers %d: %v allocations with 3000 calls, %v with 12000", cfg.SimWorkers, n, n4)
		}
	}
}

// dirtyBuffer returns a buffer of capWords words, every one of them
// non-zero, as an earlier run might leave it.
func dirtyBuffer(capWords int) []int64 {
	buf := make([]int64, capWords)
	for i := range buf {
		buf[i] = int64(i)*0x9e3779b9 | 1
	}
	return buf[:capWords/3]
}

// TestDirtyBufferMatchesFresh: a sequential or simulated run on a
// recycled buffer full of non-zero words reads zeros wherever a fresh
// run does, so output, return value and steps match a run on fresh
// memory. The buffer's capacity exceeds what the run needs, once even
// MemWords; the grow program allocates within the capacity first and
// past it after.
func TestDirtyBufferMatchesFresh(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		input []int64
	}{
		{"uninitialized globals", `
int g[300];
int x;
int main() {
	int s = x;
	for (int i = 0; i < 300; i++) s += g[i] * (i + 1);
	out(s);
	g[7] = s + 5;
	x = g[7];
	out(x);
	return g[299] + 3;
}`, nil},
		{"local array", `
int sum(int n) {
	int a[50];
	int s = 0;
	for (int i = 0; i < n; i++) s += a[i];
	a[n - 1] = n;
	return s + a[n - 1];
}
int main() {
	int t = 0;
	for (int k = 1; k <= 40; k++) t += sum(k);
	out(t);
	return sum(50);
}`, nil},
		{"alloc grows", `
int g[10];
int main() {
	int total = 0;
	for (int k = 0; k < in(0); k++) {
		int a[] = alloc(in(1) << k);
		int s = 0;
		for (int j = 0; j < len(a); j++) s += a[j];
		for (int j = 0; j < len(a); j++) a[j] = j + k;
		for (int j = 0; j < len(a); j++) s += a[j];
		total += s;
		g[k] = s;
	}
	out(total);
	return g[0] + g[9];
}`, []int64{10, 100}},
	}
	const memWords = 150_000
	for _, c := range cases {
		prog, err := compile.Build("dirty.mc", c.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, sim := range []int{0, 2} {
			cfg := vm.Config{Input: c.input, MemWords: memWords, SimWorkers: sim}
			want := run(t, c.src, cfg)
			for _, capWords := range []int{5_000, 120_000, 2 * memWords} {
				buf := dirtyBuffer(capWords)
				cfg.Mem = buf
				m, err := vm.New(prog, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := m.Run()
				if err != nil {
					t.Fatalf("%s, SimWorkers %d, capacity %d: %v", c.name, sim, capWords, err)
				}
				if !slices.Equal(got.Output, want.Output) || got.Ret != want.Ret || got.Steps != want.Steps {
					t.Errorf("%s, SimWorkers %d, capacity %d: output %v ret %d steps %d, fresh memory gives %v %d %d",
						c.name, sim, capWords, got.Output, got.Ret, got.Steps, want.Output, want.Ret, want.Steps)
				}
				mem := m.Mem()
				if used := len(mem); used <= capWords && &mem[:1][0] != &buf[:1][0] {
					t.Errorf("%s, capacity %d: a run of %d words did not keep its memory in the buffer", c.name, capWords, used)
				}
				if used := len(mem); used > capWords && cap(mem) > memWords {
					t.Errorf("%s, capacity %d: memory grew to %d words, past MemWords %d", c.name, capWords, cap(mem), memWords)
				}
			}
		}
	}
}

// TestParallelIgnoresBuffer: a Parallel run allocates its whole cap and
// leaves a buffer passed in Config.Mem untouched.
func TestParallelIgnoresBuffer(t *testing.T) {
	prog, err := compile.Build("grow.mc", growSrc)
	if err != nil {
		t.Fatal(err)
	}
	buf := dirtyBuffer(300_000)
	before := slices.Clone(buf[:cap(buf)])
	m, err := vm.New(prog, vm.Config{Parallel: true, Mem: buf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(m.Mem()) != vm.DefaultMemWords || &m.Mem()[0] == &buf[:1][0] {
		t.Errorf("Parallel run kept its memory in the buffer (%d words)", len(m.Mem()))
	}
	if !slices.Equal(buf[:cap(buf)], before) {
		t.Error("Parallel run wrote to the buffer passed in Config.Mem")
	}
}
