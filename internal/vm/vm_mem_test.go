package vm_test

import (
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
