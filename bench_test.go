// Benchmark harness regenerating every table and figure of the paper's
// evaluation (§IV). Run with:
//
//	go test -bench=. -benchmem
//
// Table III  -> BenchmarkTable3_*      (native vs profiled cost, construct counts)
// Fig. 2/3   -> BenchmarkFig2GzipProfile
// Fig. 6     -> BenchmarkFig6a/b/c/d   (profile quality on parallelized programs)
// Table IV   -> BenchmarkTable4        (conflicts at the parallelized locations)
// Table V    -> BenchmarkTable5_*      (virtual-time speedups, 4 workers)
// Ablations  -> BenchmarkAblation*     (the core.Options knobs documented in internal/core/profiler.go)
//
// Benchmarks report paper-facing numbers as custom metrics (slowdown-x,
// speedup-x, violRAW, ...) so `go test -bench` output doubles as the
// experiment log.
package alchemist_test

import (
	"context"
	"strconv"
	"testing"

	"alchemist"
	"alchemist/internal/bench"
	"alchemist/internal/core"
	"alchemist/internal/progs"
	"alchemist/internal/report"
	"alchemist/internal/vm"
)

func vmCfg() vm.Config { return vm.Config{} }

// benchScale keeps -bench runs tractable while staying at the paper's
// default input sizes.
var benchScale = bench.Scale{}

// ---------- Table III ----------

func benchTable3(b *testing.B, w *progs.Workload) {
	b.Helper()
	var row report.Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		row, err = bench.Table3Row(w, benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.Slowdown(), "slowdown-x")
	b.ReportMetric(float64(row.Static), "static-constructs")
	b.ReportMetric(float64(row.Dynamic), "dynamic-constructs")
	b.ReportMetric(float64(row.LOC), "loc")
}

func BenchmarkTable3_Parser(b *testing.B)   { benchTable3(b, progs.Parser()) }
func BenchmarkTable3_Bzip2(b *testing.B)    { benchTable3(b, progs.Bzip2()) }
func BenchmarkTable3_Gzip(b *testing.B)     { benchTable3(b, progs.Gzip()) }
func BenchmarkTable3_Lisp(b *testing.B)     { benchTable3(b, progs.Lisp()) }
func BenchmarkTable3_Ogg(b *testing.B)      { benchTable3(b, progs.Ogg()) }
func BenchmarkTable3_AES(b *testing.B)      { benchTable3(b, progs.AES()) }
func BenchmarkTable3_Par2(b *testing.B)     { benchTable3(b, progs.Par2()) }
func BenchmarkTable3_Delaunay(b *testing.B) { benchTable3(b, progs.Delaunay()) }

// ---------- Fig. 2 / Fig. 3 ----------

// BenchmarkFig2GzipProfile regenerates the paper's running example: the
// gzip profile with flush_block's RAW/WAR/WAW dependence distances.
func BenchmarkFig2GzipProfile(b *testing.B) {
	var prof *core.Profile
	for i := 0; i < b.N; i++ {
		var err error
		prof, err = bench.RunProfiled(progs.Gzip(), benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	flush := prof.ConstructForFunc("flush_block")
	if flush == nil {
		b.Fatal("flush_block not profiled")
	}
	b.ReportMetric(float64(flush.Instances), "flush-inst")
	b.ReportMetric(float64(flush.CountEdges(core.RAW)), "flush-RAW-edges")
	b.ReportMetric(float64(len(flush.ViolatingEdges(core.RAW))), "flush-RAW-viol")
	b.ReportMetric(float64(len(flush.ViolatingEdges(core.WAR))+len(flush.ViolatingEdges(core.WAW))), "flush-WARWAW-viol")
}

// ---------- Fig. 6 ----------

func BenchmarkFig6a(b *testing.B) {
	var a bench.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		a, _, _, err = bench.Fig6Gzip(benchScale, 11)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportCandidate(b, a.Points)
}

func BenchmarkFig6b(b *testing.B) {
	var res bench.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		_, res, _, err = bench.Fig6Gzip(benchScale, 11)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Removed)), "removed-constructs")
	reportCandidate(b, res.Points)
}

func BenchmarkFig6c(b *testing.B) {
	var res bench.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, _, err = bench.Fig6Parser(benchScale, 11)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportCandidate(b, res.Points)
}

func BenchmarkFig6d(b *testing.B) {
	var res bench.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, _, err = bench.Fig6Lisp(benchScale, 11)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportCandidate(b, res.Points)
}

// reportCandidate reports the best candidate's coordinates (largest
// construct with the fewest violating RAW deps, skipping main itself).
func reportCandidate(b *testing.B, pts []report.Point) {
	b.Helper()
	if len(pts) < 2 {
		return
	}
	cand := pts[1] // pts[0] is Method main
	for _, p := range pts[1:] {
		if p.Violations < cand.Violations ||
			(p.Violations == cand.Violations && p.Ttotal > cand.Ttotal) {
			cand = p
		}
	}
	b.ReportMetric(cand.SizeNorm, "cand-size-norm")
	b.ReportMetric(float64(cand.Violations), "cand-violRAW")
}

// BenchmarkDelaunayNegativeControl regenerates the §IV.B.1 Delaunay
// result: the computation-heavy constructs carry many violating static
// RAW dependences, confirming the algorithm resists this style of
// parallelization.
func BenchmarkDelaunayNegativeControl(b *testing.B) {
	var prof *core.Profile
	for i := 0; i < b.N; i++ {
		var err error
		prof, err = bench.RunProfiled(progs.Delaunay(), benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	refine := bench.LargestLoopIn(prof, "refine")
	if refine == nil {
		b.Fatal("no refine loop")
	}
	b.ReportMetric(float64(len(refine.ViolatingEdges(core.RAW))), "refine-violRAW")
}

// ---------- Table IV ----------

func BenchmarkTable4(b *testing.B) {
	var rows []report.Table4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Table4(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.RAW), r.Program+"-RAW")
	}
}

// ---------- Table V ----------

func benchTable5(b *testing.B, w *progs.Workload) {
	b.Helper()
	var row report.Table5Row
	for i := 0; i < b.N; i++ {
		var err error
		row, err = bench.Table5Row(context.Background(), alchemist.NewEngine(), w, benchScale, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(row.Speedup(), "speedup-x")
	b.ReportMetric(float64(row.SeqSteps), "seq-instr")
	b.ReportMetric(float64(row.ParSteps), "par-instr")
}

func BenchmarkTable5_Bzip2(b *testing.B) { benchTable5(b, progs.Bzip2()) }
func BenchmarkTable5_Ogg(b *testing.B)   { benchTable5(b, progs.Ogg()) }
func BenchmarkTable5_Par2(b *testing.B)  { benchTable5(b, progs.Par2()) }
func BenchmarkTable5_AES(b *testing.B)   { benchTable5(b, progs.AES()) }

// ---------- Ablations (core.Options, internal/core/profiler.go) ----------

// BenchmarkAblationPoolSize varies the construct-pool preallocation; the
// profile must not change, and allocation counts show how lazy
// retirement bounds memory (Theorem 1).
func BenchmarkAblationPoolSize(b *testing.B) {
	for _, size := range []int{64, 4096, 1 << 20} {
		b.Run(sizeName(size), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.PoolPrealloc = size
			var prof *core.Profile
			for i := 0; i < b.N; i++ {
				var err error
				prof, err = bench.Profile(progs.Gzip(), benchScale, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(prof.Pool.Allocated), "nodes-allocated")
			b.ReportMetric(float64(prof.Pool.Reused), "nodes-reused")
		})
	}
}

// BenchmarkAblationNoRetirement disables lazy retirement: every dynamic
// construct instance allocates a node, demonstrating the memory the
// Table I pool saves.
func BenchmarkAblationNoRetirement(b *testing.B) {
	opts := core.DefaultOptions()
	opts.DisablePoolReuse = true
	var prof *core.Profile
	for i := 0; i < b.N; i++ {
		var err error
		prof, err = bench.Profile(progs.Gzip(), benchScale, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(prof.Pool.Allocated), "nodes-allocated")
	b.ReportMetric(float64(prof.DynamicConstructs), "dynamic-constructs")
}

// BenchmarkAblationReaderK varies the per-word reader-slot bound: fewer
// slots evict more readers and can miss WAR edges.
func BenchmarkAblationReaderK(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(sizeName(k), func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.ReaderSlots = k
			var prof *core.Profile
			for i := 0; i < b.N; i++ {
				var err error
				prof, err = bench.Profile(progs.Bzip2(), benchScale, opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			war := 0
			for _, c := range prof.Constructs {
				war += c.CountEdges(core.WAR)
			}
			b.ReportMetric(float64(war), "WAR-edges")
			b.ReportMetric(float64(prof.Shadow.EvictedReaders), "evicted-readers")
		})
	}
}

// BenchmarkAblationRAWOnly measures the cost of WAR/WAW tracking by
// disabling it (the paper's RAW-only configuration).
func BenchmarkAblationRAWOnly(b *testing.B) {
	opts := core.DefaultOptions()
	opts.TrackWAR = false
	opts.TrackWAW = false
	for i := 0; i < b.N; i++ {
		if _, err := bench.Profile(progs.Gzip(), benchScale, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfilerOverheadMicro isolates profiler cost on a tight
// pure-compute loop (no memory traffic): the floor of the Table III
// slowdown.
func BenchmarkProfilerOverheadMicro(b *testing.B) {
	const src = `
int main() {
	int s = 0;
	for (int i = 0; i < 200000; i++) {
		s += i ^ (i >> 3);
	}
	out(s);
	return 0;
}`
	for i := 0; i < b.N; i++ {
		if _, _, err := core.ProfileSource("micro.mc", src, vmCfg(), core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func sizeName(n int) string {
	if n >= 1<<20 {
		return "1M"
	}
	return strconv.Itoa(n)
}
