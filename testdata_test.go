package alchemist_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"alchemist"
)

// loadTestdata compiles one file from testdata/ on eng.
func loadTestdata(t *testing.T, eng *alchemist.Engine, name string) *alchemist.Program {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := eng.Compile(context.Background(), name, string(data))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestTestdataGoldens runs every sample program against known outputs.
func TestTestdataGoldens(t *testing.T) {
	ctx, eng := context.Background(), alchemist.NewEngine()
	cases := []struct {
		file  string
		input []int64
		want  []int64
	}{
		// 168 primes below 1000, largest 997.
		{"sieve.mc", []int64{1000}, []int64{168, 997}},
		// 25 primes below 100, largest 97.
		{"sieve.mc", []int64{100}, []int64{25, 97}},
		// Collatz below 100: start 97 with chain length 118.
		{"collatz.mc", []int64{100}, []int64{97, 118}},
		// Collatz below 1000: start 871, length 178.
		{"collatz.mc", []int64{1000}, []int64{871, 178}},
	}
	for _, tc := range cases {
		res, err := eng.Run(ctx, loadTestdata(t, eng, tc.file), alchemist.RunConfig{Input: tc.input})
		if err != nil {
			t.Errorf("%s: %v", tc.file, err)
			continue
		}
		if !reflect.DeepEqual(res.Output, tc.want) {
			t.Errorf("%s(%v) = %v, want %v", tc.file, tc.input, res.Output, tc.want)
		}
	}
}

// TestTestdataSort checks the quicksort program sorts arbitrary inputs
// (its own assert enforces sortedness; we verify the checksum matches a
// reference sort).
func TestTestdataSort(t *testing.T) {
	ctx, eng := context.Background(), alchemist.NewEngine()
	input := make([]int64, 0, 500)
	seed := int64(987654321)
	for i := 0; i < 500; i++ {
		seed = (seed*6364136223846793005 + 1442695040888963407) % (1 << 40)
		if seed < 0 {
			seed = -seed
		}
		input = append(input, seed%100000)
	}
	res, err := eng.Run(ctx, loadTestdata(t, eng, "sort.mc"), alchemist.RunConfig{Input: input})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != 1 {
		t.Fatal("sort.mc reported unsorted output")
	}
	// Reference checksum.
	ref := append([]int64(nil), input...)
	for i := 1; i < len(ref); i++ {
		for j := i; j > 0 && ref[j-1] > ref[j]; j-- {
			ref[j-1], ref[j] = ref[j], ref[j-1]
		}
	}
	ck := int64(0)
	for _, v := range ref {
		ck = (ck*31 + v) & 16777215
	}
	if res.Output[1] != ck {
		t.Errorf("checksum %d, want %d", res.Output[1], ck)
	}
}

// TestTestdataMatmulModes runs the spawn-annotated matmul in all three
// execution modes and demands identical results.
func TestTestdataMatmulModes(t *testing.T) {
	ctx, eng := context.Background(), alchemist.NewEngine()
	input := []int64{48}
	seq, err := eng.Run(ctx, loadTestdata(t, eng, "matmul.mc"), alchemist.RunConfig{Input: input})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := eng.Run(ctx, loadTestdata(t, eng, "matmul.mc"), alchemist.RunConfig{Input: input, SimWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	par, err := eng.Run(ctx, loadTestdata(t, eng, "matmul.mc"), alchemist.RunConfig{Input: input, Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Output, sim.Output) || !reflect.DeepEqual(seq.Output, par.Output) {
		t.Fatalf("outputs diverge: seq=%v sim=%v par=%v", seq.Output, sim.Output, par.Output)
	}
	// The band decomposition is compute-heavy and balanced: the simulated
	// makespan must show speedup.
	if ratio := float64(seq.VirtualSteps) / float64(sim.VirtualSteps); ratio < 2.5 {
		t.Errorf("matmul simulated speedup %.2f too low", ratio)
	}
}

// TestTestdataProfiles profiles each sample and sanity-checks candidate
// detection: matmul's band() must be a future candidate, the sieve's
// inner marking loop must not.
func TestTestdataProfiles(t *testing.T) {
	ctx, eng := context.Background(), alchemist.NewEngine()
	profile, _, err := eng.Profile(ctx, loadTestdata(t, eng, "matmul.mc"), alchemist.ProfileConfig{
		RunConfig: alchemist.RunConfig{Input: []int64{48}},
	})
	if err != nil {
		t.Fatal(err)
	}
	band := profile.ConstructForFunc("band")
	if band == nil {
		t.Fatal("band not profiled")
	}
	// band's only violating RAW edges are reads after the join point in
	// main (the trace loop) — precisely what the program's sync protects.
	// No violating edge may point back into band itself, which would
	// forbid running bands concurrently with each other.
	for _, e := range band.ViolatingEdges(alchemist.RAW) {
		tailFn := profile.Program.FuncAt(e.TailPC)
		if tailFn != nil && tailFn.Name == "band" {
			t.Errorf("band-internal violating RAW edge: %+v", e)
		}
	}

	sieveProf, _, err := eng.Profile(ctx, loadTestdata(t, eng, "sieve.mc"), alchemist.ProfileConfig{
		RunConfig: alchemist.RunConfig{Input: []int64{2000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The outer sieve loop carries RAW deps (composite[] written by inner
	// loops, read by later iterations at short distances).
	var outer *alchemist.ConstructStat
	for _, c := range sieveProf.Constructs {
		if c.Kind == alchemist.KindLoop && c.FuncName == "main" {
			outer = c
			break
		}
	}
	if outer == nil {
		t.Fatal("no sieve loop")
	}
	// The sieve's cross-iteration RAW dependences (marking writes feeding
	// later primality reads) must be attributed to the outer loop. Their
	// *minimum* distances are long — the last write to composite[p] comes
	// from p's largest prime factor, many iterations earlier — so the
	// profile correctly reports edges without short-distance violations.
	if outer.CountEdges(alchemist.RAW) == 0 {
		t.Error("sieve loop should carry cross-iteration RAW dependences")
	}
}
