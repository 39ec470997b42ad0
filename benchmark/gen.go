package main

import (
	"fmt"
	"strings"
)

// rng is a xorshift generator: every input the benchmark feeds the
// program is derived from the -seed flag through it.
type rng uint64

func newRNG(seed uint64, stream uint64) *rng {
	r := rng(seed*0x9e3779b97f4a7c15 ^ (stream+1)*0xbf58476d1ce4e5b9)
	if r == 0 {
		r = 1
	}
	for i := 0; i < 4; i++ {
		r.next()
	}
	return &r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return x
}

// intn returns a value in [lo, hi].
func (r *rng) intn(lo, hi int) int { return lo + int(r.next()%uint64(hi-lo+1)) }

// perm returns a seeded permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// genProgram is one generated mini-C program together with its input and
// the out() values it must print. The expected values come from evaluating
// the same loop nest in Go, never from the compiler or VM under test.
type genProgram struct {
	name  string
	src   string
	input []int64
	want  []int64
}

// microLoop is the pure-compute loop the repository's profiler-overhead
// microbenchmark uses: no memory traffic, so it isolates per-instruction
// tracer cost.
func microLoop() genProgram {
	const src = `
int main() {
	int s = 0;
	for (int i = 0; i < 200000; i++) {
		s += i ^ (i >> 3);
	}
	out(s);
	return 0;
}`
	var s int64
	for i := int64(0); i < 200000; i++ {
		s += i ^ (i >> 3)
	}
	return genProgram{name: "micro", src: src, want: []int64{s}}
}

// nestSpec describes a generated loop nest: trips[0] is the outermost trip
// count, the last entry the innermost.
type nestSpec struct {
	trips  []int
	c1, c2 int64 // mix() constants
	cut    int64 // if/else threshold in the inner body
	start  int64 // initial accumulator, read from the input
	mem    bool  // also accumulate into a global array (shadow traffic)
}

const mask20 = 1048575

// genNest builds a loop nest of the given trip counts. Each inner
// iteration calls mix() and takes an if/else; all state lives in scalar
// locals unless withMem adds a global array. The seed picks only the
// constants and the start value. Both paths through each branch execute
// the same number of instructions (TestGeneratedSteps), so the step count,
// and with it the work, is the same for every seed.
func genNest(r *rng, name string, trips []int, withMem bool) genProgram {
	s := nestSpec{
		trips: trips,
		c1:    int64(r.intn(3, 1000)),
		c2:    int64(r.intn(1, 7)),
		cut:   int64(r.intn(1, mask20)),
		start: int64(r.intn(0, mask20)),
		mem:   withMem,
	}
	return s.program(name)
}

func (s nestSpec) program(name string) genProgram {
	in := make([]int64, 0, len(s.trips)+1)
	for _, t := range s.trips {
		in = append(in, int64(t))
	}
	in = append(in, s.start)
	return genProgram{name: name, src: s.source(), input: in, want: s.eval()}
}

func (s nestSpec) source() string {
	var b strings.Builder
	if s.mem {
		b.WriteString("int buf[64];\n\n")
	}
	fmt.Fprintf(&b, `int mix(int a, int b) {
	if ((a & 1) == 0) {
		return (a * %d + b) & %d;
	}
	return (a ^ (b >> %d)) & %d;
}

int main() {
`, s.c1, mask20, s.c2, mask20)
	d := len(s.trips)
	for i := range s.trips {
		fmt.Fprintf(&b, "\tint n%d = in(%d);\n", i, i)
	}
	fmt.Fprintf(&b, "\tint acc = in(%d);\n", d)
	for i := 0; i < d; i++ {
		ind := strings.Repeat("\t", i+1)
		fmt.Fprintf(&b, "%sfor (int i%d = 0; i%d < n%d; i%d++) {\n", ind, i, i, i, i)
	}
	ind := strings.Repeat("\t", d+1)
	fmt.Fprintf(&b, "%sint v = mix(acc + i%d, i0);\n", ind, d-1)
	// The else arm's unary operator balances the jump that ends the then
	// arm.
	fmt.Fprintf(&b, "%sif (v > %d) {\n%s\tacc = (acc + v) & %d;\n%s} else {\n%s\tacc = (acc ^ ~v) & %d;\n%s}\n",
		ind, s.cut, ind, mask20, ind, ind, mask20, ind)
	if s.mem {
		fmt.Fprintf(&b, "%sbuf[i%d & 63] = buf[i%d & 63] + (v & 255);\n", ind, d-1, d-1)
	}
	for i := d - 1; i >= 0; i-- {
		fmt.Fprintf(&b, "%s}\n", strings.Repeat("\t", i+1))
	}
	b.WriteString("\tout(acc);\n")
	if s.mem {
		b.WriteString("\tint sum = 0;\n\tfor (int k = 0; k < 64; k++) {\n\t\tsum += buf[k];\n\t}\n\tout(sum);\n")
	}
	b.WriteString("\treturn 0;\n}\n")
	return b.String()
}

// eval runs the loop nest in Go.
func (s nestSpec) eval() []int64 {
	mix := func(a, b int64) int64 {
		if a&1 == 0 {
			return (a*s.c1 + b) & mask20
		}
		return (a ^ (b >> s.c2)) & mask20
	}
	var buf [64]int64
	acc := s.start
	idx := make([]int64, len(s.trips))
	var walk func(level int)
	walk = func(level int) {
		if level == len(s.trips) {
			inner := idx[len(idx)-1]
			v := mix(acc+inner, idx[0])
			if v > s.cut {
				acc = (acc + v) & mask20
			} else {
				acc = (acc ^ ^v) & mask20
			}
			buf[inner&63] += v & 255
			return
		}
		for i := 0; i < s.trips[level]; i++ {
			idx[level] = int64(i)
			walk(level + 1)
		}
	}
	walk(0)
	if !s.mem {
		return []int64{acc}
	}
	var sum int64
	for _, v := range buf {
		sum += v
	}
	return []int64{acc, sum}
}
