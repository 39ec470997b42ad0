// Package report turns raw Alchemist profiles into the artifacts the
// paper presents: the ranked per-construct text profile (Fig. 2/3), the
// size-vs-violating-dependences scatter data (Fig. 6), the Fig. 6(b)
// "remove constructs parallelized along with C" analysis, and the summary
// rows of Tables III and IV.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"alchemist/internal/core"
	"alchemist/internal/indexing"
)

// Options control text rendering.
type Options struct {
	// Top limits the number of constructs printed (0 = all).
	Top int
	// MaxEdges limits the dependence edges printed per construct
	// (0 = all).
	MaxEdges int
	// Types selects which dependence types to print; empty means RAW
	// only, matching the paper's Fig. 2 (Fig. 3 adds WAR and WAW).
	Types []core.DepType
	// MinTtotal hides constructs below this duration.
	MinTtotal int64
	// ShowAllEdges prints non-violating edges too (the paper lists both
	// and boxes the violating ones).
	ShowAllEdges bool
}

// ConstructName renders a human-readable construct identity, e.g.
// "Method flush_block" or "Loop (main, gzip.mc:14)".
func ConstructName(c *core.ConstructStat) string {
	switch c.Kind {
	case indexing.KindFunc:
		return "Method " + c.FuncName
	case indexing.KindLoop:
		return fmt.Sprintf("Loop (%s, line %d)", c.FuncName, c.Pos.Line)
	default:
		return fmt.Sprintf("Cond (%s, line %d)", c.FuncName, c.Pos.Line)
	}
}

// Write renders the ranked profile in the paper's Fig. 2/3 layout.
func Write(w io.Writer, p *core.Profile, opts Options) {
	types := opts.Types
	if len(types) == 0 {
		types = []core.DepType{core.RAW}
	}
	fmt.Fprintf(w, "Profile: %d instructions, %d static constructs, %d dynamic instances\n",
		p.TotalSteps, p.StaticConstructs, p.DynamicConstructs)
	rank := 0
	for _, c := range p.Constructs {
		if opts.Top > 0 && rank >= opts.Top {
			break
		}
		if c.Ttotal < opts.MinTtotal {
			continue
		}
		rank++
		fmt.Fprintf(w, "%2d. %-40s Tdur=%-12d inst=%d\n", rank, ConstructName(c), c.Ttotal, c.Instances)
		dur := c.MeanDur()
		printed := 0
		for _, e := range c.Edges {
			if !typeIn(e.Type, types) {
				continue
			}
			viol := e.Violates(dur)
			if !viol && !opts.ShowAllEdges {
				continue
			}
			if opts.MaxEdges > 0 && printed >= opts.MaxEdges {
				fmt.Fprintf(w, "        ...\n")
				break
			}
			printed++
			mark := " "
			if viol {
				mark = "*"
			}
			fmt.Fprintf(w, "      %s %s: line %d -> line %d  Tdep=%d (x%d)\n",
				mark, e.Type, e.HeadPos.Line, e.TailPos.Line, e.MinDist, e.Count)
		}
	}
}

// Text renders the profile to a string.
func Text(p *core.Profile, opts Options) string {
	var b strings.Builder
	Write(&b, p, opts)
	return b.String()
}

func typeIn(t core.DepType, ts []core.DepType) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}

// ---------- Fig. 6 scatter data ----------

// Point is one construct in a Fig. 6 plot: normalized size (instruction
// share) against normalized violating static RAW dependence count.
type Point struct {
	// Rank is the 1-based position by size: C1, C2, ...
	Rank int
	// Label is the construct head PC.
	Label int
	// Name is the human-readable construct identity.
	Name string
	// Line is the construct head's source line.
	Line int
	// SizeNorm is Ttotal normalized to the program's total instruction
	// count.
	SizeNorm float64
	// ViolNorm is the construct's violating static RAW count normalized
	// to the total across all constructs.
	ViolNorm float64
	// Violations is the raw violating static RAW dependence count.
	Violations int
	// Instances and Ttotal carry the underlying measurements.
	Instances int64
	Ttotal    int64
}

// Fig6 computes the scatter points for the top constructs by size,
// mirroring Fig. 6's normalization. exclude removes constructs by label
// before ranking (used for the Fig. 6(b) second pass).
func Fig6(p *core.Profile, top int, exclude map[int]bool) []Point {
	totalViol := p.TotalViolating(core.RAW)
	var pts []Point
	for _, c := range p.Constructs {
		if exclude[c.Label] {
			continue
		}
		if top > 0 && len(pts) >= top {
			break
		}
		v := len(c.ViolatingEdges(core.RAW))
		pt := Point{
			Rank:       len(pts) + 1,
			Label:      c.Label,
			Name:       ConstructName(c),
			Line:       c.Pos.Line,
			Violations: v,
			Instances:  c.Instances,
			Ttotal:     c.Ttotal,
		}
		if p.TotalSteps > 0 {
			pt.SizeNorm = float64(c.Ttotal) / float64(p.TotalSteps)
		}
		if totalViol > 0 {
			pt.ViolNorm = float64(v) / float64(totalViol)
		}
		pts = append(pts, pt)
	}
	return pts
}

// WriteFig6 renders scatter points as an aligned table (one row per
// construct, the paper's bar-chart data in text form).
func WriteFig6(w io.Writer, pts []Point) {
	fmt.Fprintf(w, "%-4s %-36s %-10s %-6s %-10s %-10s\n", "C#", "construct", "Ttotal", "viol", "size%", "viol%")
	for _, pt := range pts {
		fmt.Fprintf(w, "C%-3d %-36s %-10d %-6d %-10.4f %-10.4f\n",
			pt.Rank, pt.Name, pt.Ttotal, pt.Violations, pt.SizeNorm, pt.ViolNorm)
	}
}

// ---------- Fig. 6(b): removal of co-parallelized constructs ----------

// RemoveParallelized returns the labels that drop out of consideration
// once the construct `label` is parallelized: the construct itself plus,
// transitively, every construct that has exactly one instance per
// instance of an already-removed construct (such constructs are
// "parallelized too as a result", paper §IV.B.1).
func RemoveParallelized(p *core.Profile, label int) map[int]bool {
	removed := map[int]bool{label: true}
	for changed := true; changed; {
		changed = false
		for _, c := range p.Constructs {
			if removed[c.Label] {
				continue
			}
			for parent := range removed {
				pc := p.Construct(parent)
				if pc == nil {
					continue
				}
				n := p.NestDirect[core.NestKey(c.Label, parent)]
				// Exactly one instance of c per instance of parent, and
				// every instance of c sits under parent.
				if n > 0 && n == c.Instances && n == pc.Instances {
					removed[c.Label] = true
					changed = true
					break
				}
			}
		}
	}
	return removed
}

// ---------- Table III ----------

// Table3Row is one benchmark row of Table III.
type Table3Row struct {
	Benchmark string
	LOC       int
	Static    int64
	Dynamic   int64
	// OrigSeconds and ProfSeconds are wall-clock times of the
	// uninstrumented and profiled runs, execution only: compilation is
	// outside both.
	OrigSeconds float64
	ProfSeconds float64
}

// Slowdown returns Prof/Orig.
func (r Table3Row) Slowdown() float64 {
	if r.OrigSeconds == 0 {
		return 0
	}
	return r.ProfSeconds / r.OrigSeconds
}

// WriteTable3 renders rows in the paper's Table III layout.
func WriteTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintf(w, "%-12s %-6s %-8s %-12s %-10s %-10s %-8s\n",
		"Benchmark", "LOC", "Static", "Dynamic", "Orig(s)", "Prof(s)", "Slowdown")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-6d %-8d %-12d %-10.4f %-10.3f %-8.1f\n",
			r.Benchmark, r.LOC, r.Static, r.Dynamic, r.OrigSeconds, r.ProfSeconds, r.Slowdown())
	}
}

// ---------- Table IV ----------

// Table4Row reports the static conflict counts of one parallelized
// construct (paper Table IV).
type Table4Row struct {
	Program  string
	Location string // e.g. "loop at line 887 in ProcessData"
	RAW      int
	WAW      int
	WAR      int
}

// Table4For builds a row from a profiled construct.
func Table4For(program string, p *core.Profile, c *core.ConstructStat) Table4Row {
	return Table4Row{
		Program:  program,
		Location: fmt.Sprintf("%s at line %d", ConstructName(c), c.Pos.Line),
		RAW:      len(c.ViolatingEdges(core.RAW)),
		WAW:      len(c.ViolatingEdges(core.WAW)),
		WAR:      len(c.ViolatingEdges(core.WAR)),
	}
}

// WriteTable4 renders rows in the paper's Table IV layout.
func WriteTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintf(w, "%-10s %-44s %-5s %-5s %-5s\n", "Program", "Code Location", "RAW", "WAW", "WAR")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-44s %-5d %-5d %-5d\n", r.Program, r.Location, r.RAW, r.WAW, r.WAR)
	}
}

// ---------- Table V ----------

// Table5Row reports a sequential-vs-parallel comparison (paper Table V).
// Times are virtual (instruction-count makespans from the VM's
// deterministic parallel simulation), which substitutes for the paper's
// 4-core wall-clock measurements on machines without spare cores, so
// one run of each variant determines the row.
type Table5Row struct {
	Benchmark string
	Workers   int
	// SeqSteps is the sequential program's instruction count; ParSteps
	// the spawn/sync variant's virtual makespan on Workers workers.
	SeqSteps int64
	ParSteps int64
}

// Speedup returns the virtual-time speedup SeqSteps/ParSteps.
func (r Table5Row) Speedup() float64 {
	if r.ParSteps == 0 {
		return 0
	}
	return float64(r.SeqSteps) / float64(r.ParSteps)
}

// WriteTable5 renders rows in the paper's Table V layout.
func WriteTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintf(w, "%-12s %-8s %-14s %-14s %-8s\n", "Benchmark", "Workers", "Seq(instr)", "Par(instr)", "Speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-8d %-14d %-14d %-8.2f\n",
			r.Benchmark, r.Workers, r.SeqSteps, r.ParSteps, r.Speedup())
	}
}

// Rank returns the 1-based size rank of construct label within the
// profile (C1 = largest Ttotal), or 0 if absent.
func Rank(p *core.Profile, label int) int {
	for i, c := range p.Constructs {
		if c.Label == label {
			return i + 1
		}
	}
	return 0
}

// SortPointsByViolations orders points by ascending violation count then
// descending size, the order in which a user would try candidates.
func SortPointsByViolations(pts []Point) []Point {
	out := append([]Point(nil), pts...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Violations != out[j].Violations {
			return out[i].Violations < out[j].Violations
		}
		return out[i].Ttotal > out[j].Ttotal
	})
	return out
}
