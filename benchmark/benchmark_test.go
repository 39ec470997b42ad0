package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"alchemist"
)

var update = flag.Bool("update", false, "record the small-scale profile hashes in golden.json")

// TestWorkloadsSmall runs every workload for one pass at small scale,
// untraced and traced, and checks every output against the small-scale
// references. The traced run also checks that the clock-tracing wrapper
// leaves each profile's hash unchanged.
func TestWorkloadsSmall(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	gold, err := loadGolden("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{
				seed: 1, trace: trace, small: true, setupReps: 1,
				tmpDir: t.TempDir(), gold: gold, update: *update,
			}
			r := newRunner(w.name, cfg)
			start := time.Now()
			if err := w.run(r); err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			d, err := r.report(spec)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			if !d.Correct || d.Attempted == 0 {
				t.Errorf("%s (trace %v): %d of %d checks failed: %v", w.name, trace, d.Failed, d.Attempted, d.Errors)
			}
			t.Logf("%s (trace %v): %d checks in %v", w.name, trace, d.Attempted, time.Since(start).Round(time.Millisecond))
			for name, v := range d.Metrics {
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, v.Value)
				}
			}
		}
	}
	if *update {
		if err := gold.write("golden.json"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGeneratedSteps checks that the seed never changes the work of a
// generated program: a nest whose if/else always takes the then arm, one
// that always takes the else arm, and seeded nests all run the same number
// of steps.
func TestGeneratedSteps(t *testing.T) {
	ctx := context.Background()
	eng := alchemist.NewEngine(alchemist.WithWorkers(1))
	trips := []int{3, 4, 50}
	for _, mem := range []bool{false, true} {
		progs := []genProgram{
			nestSpec{trips: trips, c1: 5, c2: 3, cut: 0, start: 7, mem: mem}.program("then"),
			nestSpec{trips: trips, c1: 5, c2: 3, cut: mask20, start: 7, mem: mem}.program("else"),
		}
		for seed := uint64(1); seed <= 3; seed++ {
			progs = append(progs, genNest(newRNG(seed, 9), fmt.Sprintf("seed%d", seed), trips, mem))
		}
		var want int64
		for i, g := range progs {
			prog, err := eng.Compile(ctx, g.name+".mc", g.src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Run(ctx, prog, alchemist.RunConfig{Input: g.input})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(res.Output, g.want) {
				t.Errorf("%s (mem %v): output %v, want %v", g.name, mem, res.Output, g.want)
			}
			if i == 0 {
				want = res.Steps
			} else if res.Steps != want {
				t.Errorf("%s (mem %v): %d steps, %s ran %d", g.name, mem, res.Steps, progs[0].name, want)
			}
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		got := quartiles(c.in)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

// TestJudge covers the verdicts of the paired-run rule.
func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "suite_s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "throughput", Better: "higher", Bound: 0.1}
	base := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10.02, 9.98}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{lower, base, scaled(1.01), "within bound"},
		{lower, base, scaled(1.3), "REGRESSION: worse than the bound"},
		{lower, base, scaled(0.8), "gain"},
		{higher, base, scaled(0.8), "REGRESSION: worse than the bound"},
		{higher, base, scaled(1.2), "gain"},
		{lower, base, []float64{5, 15, 10, 5, 15, 10, 5, 15, 10, 12}, "unresolved: run-to-run spread exceeds the bound"},
	} {
		if got := judge(c.a, c.b, c.m).result; got != c.want {
			t.Errorf("judge(%s, %v) = %q, want %q", c.m.Better, c.b[:3], got, c.want)
		}
	}
}
