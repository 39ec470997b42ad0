package core_test

import (
	"testing"

	"alchemist/internal/compile"
	"alchemist/internal/core"
	"alchemist/internal/vm"
)

// mergeSrc exhibits an input-dependent dependence: the conflict on
// shared only occurs when the input asks for it, so single-input
// profiles are incomplete and merging recovers the union.
const mergeSrc = `
int shared;
int sink;
void work(int mode) {
	int s = 0;
	for (int i = 0; i < 200; i++) { s += i; }
	if (mode == 1) {
		shared = s;
	}
	sink = s;
}
int main() {
	for (int i = 0; i < 3; i++) {
		work(in(0));
		sink = shared + 1;
	}
	return 0;
}
`

func TestMergeUnionsEdges(t *testing.T) {
	prog, err := compile.Build("m.mc", mergeSrc)
	if err != nil {
		t.Fatal(err)
	}
	run := func(input []int64) *core.Profile {
		p, _, err := core.ProfileProgram(prog, vm.Config{Input: input}, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p0 := run([]int64{0}) // no write to shared
	p1 := run([]int64{1}) // conflict exercised

	hasSharedRAW := func(p *core.Profile) bool {
		w := p.ConstructForFunc("work")
		if w == nil {
			return false
		}
		return len(w.ViolatingEdges(core.RAW)) > 0
	}
	if hasSharedRAW(p0) {
		t.Fatal("mode-0 input should not exercise the conflict")
	}
	if !hasSharedRAW(p1) {
		t.Fatal("mode-1 input should exercise the conflict")
	}

	m, err := core.Merge(p0, p1)
	if err != nil {
		t.Fatal(err)
	}
	if !hasSharedRAW(m) {
		t.Error("merged profile lost the mode-1 conflict")
	}
	if m.TotalSteps != p0.TotalSteps+p1.TotalSteps {
		t.Error("TotalSteps not summed")
	}
	if m.Shadow.Bytes == 0 || m.Shadow.Bytes != p0.Shadow.Bytes+p1.Shadow.Bytes {
		t.Errorf("shadow bytes %d, want %d + %d", m.Shadow.Bytes, p0.Shadow.Bytes, p1.Shadow.Bytes)
	}
	w0 := p0.ConstructForFunc("work")
	w1 := p1.ConstructForFunc("work")
	wm := m.ConstructForFunc("work")
	if wm.Instances != w0.Instances+w1.Instances {
		t.Errorf("instances %d != %d + %d", wm.Instances, w0.Instances, w1.Instances)
	}
	if wm.Ttotal != w0.Ttotal+w1.Ttotal {
		t.Error("Ttotal not summed")
	}
}

func TestMergeKeepsMinDistance(t *testing.T) {
	src := `
int v;
int s;
void produce(int d) {
	v = 1;
	int i = 0;
	while (i < d) { i++; }
}
int main() {
	produce(in(0));
	s = v;
	return 0;
}`
	prog, err := compile.Build("d.mc", src)
	if err != nil {
		t.Fatal(err)
	}
	run := func(d int64) *core.Profile {
		p, _, err := core.ProfileProgram(prog, vm.Config{Input: []int64{d}}, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	far := run(800) // long distance between v=1 and the read
	near := run(3)  // short distance

	dist := func(p *core.Profile) int64 {
		c := p.ConstructForFunc("produce")
		for _, e := range c.Edges {
			if e.Type == core.RAW {
				return e.MinDist
			}
		}
		return -1
	}
	if dist(far) <= dist(near) {
		t.Fatalf("test setup broken: far %d, near %d", dist(far), dist(near))
	}
	m, err := core.Merge(far, near)
	if err != nil {
		t.Fatal(err)
	}
	if got := dist(m); got != dist(near) {
		t.Errorf("merged MinDist = %d, want the smaller %d", got, dist(near))
	}
}

func TestMergeErrors(t *testing.T) {
	if _, err := core.Merge(); err == nil {
		t.Error("empty merge should fail")
	}
	progA, err := compile.Build("a.mc", `int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	progB, err := compile.Build("b.mc", `int main() { return 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	pa, _, err := core.ProfileProgram(progA, vm.Config{}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pb, _, err := core.ProfileProgram(progB, vm.Config{}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Merge(pa, pb); err == nil {
		t.Error("cross-program merge should fail")
	}
	// Single profile merge is the identity.
	m, err := core.Merge(pa)
	if err != nil || m != pa {
		t.Error("single merge should return the input")
	}
}
