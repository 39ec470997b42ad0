package bench_test

import (
	"context"
	"testing"

	"alchemist"
	"alchemist/internal/bench"
	"alchemist/internal/core"
	"alchemist/internal/obs"
	"alchemist/internal/progs"
)

var small = bench.Scale{Small: true}

func TestTable3SmallShape(t *testing.T) {
	rows, err := bench.Table3(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8 benchmarks", len(rows))
	}
	for _, r := range rows {
		if r.Static <= 0 || r.Dynamic <= 0 {
			t.Errorf("%s: constructs static=%d dynamic=%d", r.Benchmark, r.Static, r.Dynamic)
		}
		if r.Dynamic < r.Static {
			t.Errorf("%s: dynamic %d < static %d", r.Benchmark, r.Dynamic, r.Static)
		}
		// At small scale timing is noisy (setup dominates); just require
		// a sane ratio. The default-scale shape is asserted in
		// TestTable3DefaultScaleSlowdown.
		if r.Slowdown() <= 0.1 {
			t.Errorf("%s: slowdown %.2f implausible", r.Benchmark, r.Slowdown())
		}
		if r.LOC < 40 {
			t.Errorf("%s: loc %d", r.Benchmark, r.LOC)
		}
	}
}

func TestTable3DefaultScaleSlowdown(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale run")
	}
	// At the paper's input sizes the profiled run must clearly cost more
	// than the native run (Table III's Orig. vs Prof. shape).
	for _, w := range []*progs.Workload{progs.Gzip(), progs.Bzip2()} {
		row, err := bench.Table3Row(w, bench.Scale{})
		if err != nil {
			t.Fatal(err)
		}
		if row.Slowdown() <= 1.2 {
			t.Errorf("%s: default-scale slowdown %.2f <= 1.2", w.Name, row.Slowdown())
		}
	}
}

func TestFig6GzipShape(t *testing.T) {
	a, b, prof, err := bench.Fig6Gzip(small, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) == 0 || len(b.Points) == 0 {
		t.Fatal("empty panels")
	}
	// Panel (a): the per-file loop is a top-3 construct with few
	// violating RAW deps relative to the literal loop.
	fileLoop := bench.LargestLoopIn(prof, "main")
	if fileLoop == nil {
		t.Fatal("no file loop")
	}
	var fileLoopPt, literalPt *struct {
		viol int
		size float64
	}
	for _, pt := range a.Points {
		if pt.Label == fileLoop.Label {
			fileLoopPt = &struct {
				viol int
				size float64
			}{pt.Violations, pt.SizeNorm}
		}
	}
	litLoop := bench.LargestLoopIn(prof, "zip")
	for _, pt := range a.Points {
		if pt.Label == litLoop.Label {
			literalPt = &struct {
				viol int
				size float64
			}{pt.Violations, pt.SizeNorm}
		}
	}
	if fileLoopPt == nil || literalPt == nil {
		t.Fatal("expected constructs missing from panel (a)")
	}
	if fileLoopPt.size < 0.5 {
		t.Errorf("file loop size %.2f too small", fileLoopPt.size)
	}
	if fileLoopPt.viol >= literalPt.viol {
		t.Errorf("file loop violations %d should be fewer than literal loop %d",
			fileLoopPt.viol, literalPt.viol)
	}
	// Panel (b): the file loop and zip are removed; flush_block remains.
	if !b.Removed[fileLoop.Label] {
		t.Error("file loop not removed in panel (b)")
	}
	zipC := prof.ConstructForFunc("zip")
	if zipC != nil && !b.Removed[zipC.Label] {
		t.Error("zip (one instance per file iteration) not removed in panel (b)")
	}
	flush := prof.ConstructForFunc("flush_block")
	if flush == nil {
		t.Fatal("no flush_block")
	}
	found := false
	for _, pt := range b.Points {
		if pt.Label == flush.Label {
			found = true
		}
	}
	if !found {
		t.Error("flush_block missing from panel (b)")
	}
}

func TestFig6ParserShape(t *testing.T) {
	res, prof, err := bench.Fig6Parser(small, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	// The paper's story: the dictionary-phase constructs are big with few
	// violations; the sentence batch loop is the one that was actually
	// parallelized and also appears with few violations.
	batch := bench.LargestLoopIn(prof, "main")
	if batch == nil {
		t.Fatal("no batch loop")
	}
	dict := prof.ConstructForFunc("read_dictionary")
	if dict == nil {
		t.Fatal("no read_dictionary")
	}
	if dict.Ttotal == 0 || batch.Ttotal == 0 {
		t.Error("zero-size constructs")
	}
}

func TestFig6LispShape(t *testing.T) {
	_, prof, err := bench.Fig6Lisp(small, 11)
	if err != nil {
		t.Fatal(err)
	}
	// xlload totals slightly more than the batch loop (the initial call
	// before the loop), paper §IV.B.1.
	xl := prof.ConstructForFunc("xlload")
	batch := bench.LargestLoopIn(prof, "main")
	if xl == nil || batch == nil {
		t.Fatal("constructs missing")
	}
	if xl.Ttotal <= batch.Ttotal {
		t.Errorf("xlload %d should exceed the batch loop %d (initial call)",
			xl.Ttotal, batch.Ttotal)
	}
	if xl.Instances != batch.Instances+1 {
		t.Errorf("xlload instances %d, batch iterations %d: want exactly one extra",
			xl.Instances, batch.Instances)
	}
}

func TestTable4Shape(t *testing.T) {
	rows, err := bench.Table4(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	byLoc := map[string]int{}
	for i, r := range rows {
		byLoc[r.Program+"/"+r.Location] = i
	}
	// aes: the parallelized loop has no violating RAW (paper Table IV).
	for _, r := range rows {
		if r.Program == "aes" && r.RAW != 0 {
			t.Errorf("aes loop violating RAW = %d, want 0", r.RAW)
		}
		if r.Program == "aes" && r.WAW == 0 {
			t.Errorf("aes loop should report WAW conflicts on ivec")
		}
	}
	// par2 process_data: violation-free block loop.
	for _, r := range rows {
		if r.Program == "par2" && r.Location != "" && r.RAW > 1 {
			t.Errorf("par2 %s violating RAW = %d, want <= 1", r.Location, r.RAW)
		}
	}
}

func TestTable5Shape(t *testing.T) {
	rows, err := bench.Table5(context.Background(), alchemist.NewEngine(), small, &obs.Progress{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Speedup() < 1.3 {
			t.Errorf("%s: speedup %.2f too low", r.Benchmark, r.Speedup())
		}
		if r.Speedup() > float64(r.Workers) {
			t.Errorf("%s: speedup %.2f exceeds worker count", r.Benchmark, r.Speedup())
		}
	}
}

func TestDelaunayNegativeControl(t *testing.T) {
	prof, err := bench.RunProfiled(progs.Delaunay(), small)
	if err != nil {
		t.Fatal(err)
	}
	refine := bench.LargestLoopIn(prof, "refine")
	if refine == nil {
		t.Fatal("no refine loop")
	}
	viol := len(refine.ViolatingEdges(core.RAW))
	// The worklist loop must be saturated with violating RAW deps —
	// far more than any of the parallelizable benchmarks' candidates.
	if viol < 10 {
		t.Errorf("refine loop violating RAW = %d, want >= 10 (negative control)", viol)
	}
}

func TestLoopsInOrdering(t *testing.T) {
	prof, err := bench.RunProfiled(progs.Gzip(), small)
	if err != nil {
		t.Fatal(err)
	}
	loops := bench.LoopsIn(prof, "zip")
	if len(loops) < 2 {
		t.Fatalf("zip loops = %d", len(loops))
	}
	for i := 1; i < len(loops); i++ {
		if loops[i-1].Ttotal < loops[i].Ttotal {
			t.Error("LoopsIn not sorted by Ttotal")
		}
	}
	if bench.LargestLoopIn(prof, "no_such_fn") != nil {
		t.Error("LargestLoopIn for unknown function should be nil")
	}
}
