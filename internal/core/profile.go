// Package core implements the Alchemist dependence-distance profiler: it
// consumes VM instrumentation events, maintains the execution index tree
// online (paper Fig. 5 rules and Table I), detects RAW/WAR/WAW
// dependences through shadow memory, and attributes each dependence to
// every enclosing completed construct bottom-up (Table II).
package core

import (
	"cmp"
	"fmt"
	"slices"

	"alchemist/internal/indexing"
	"alchemist/internal/ir"
	"alchemist/internal/shadow"
	"alchemist/internal/source"
)

// DepType classifies a dependence edge.
type DepType uint8

const (
	// RAW is a read-after-write (true) dependence.
	RAW DepType = iota
	// WAR is a write-after-read (anti) dependence.
	WAR
	// WAW is a write-after-write (output) dependence.
	WAW
)

func (d DepType) String() string {
	switch d {
	case RAW:
		return "RAW"
	case WAR:
		return "WAR"
	case WAW:
		return "WAW"
	default:
		return "?"
	}
}

// EdgeKey identifies a static dependence edge within one construct's
// profile: head and tail instruction PCs plus the dependence type.
type EdgeKey struct {
	HeadPC int32
	TailPC int32
	Type   DepType
}

// constructProfile is the online per-label profile (PROFILE[pc] in the
// paper).
type constructProfile struct {
	ttotal  int64
	minDur  int64
	maxDur  int64
	inst    int64
	nesting int64 // recursion depth counter (§III.B recursion fix)
	label   int32
	nests   int32 // first of this construct's nestCells, one per parent
	nCells  int32 // number of edgeCells crediting this construct
	kind    indexing.Kind
}

// edgeKey is one interned static dependence edge.
type edgeKey struct {
	head, tail int32
	next       int32 // next interned edge with the same tail PC
	cells      int32 // first of this edge's cells, one per credited construct
	typ        DepType
}

// edgeCell aggregates the dynamic instances of one static edge crossing
// the boundary of one construct. The paper keeps only the minimum
// distance, because the minimum bounds the exploitable concurrency; we
// additionally count occurrences.
type edgeCell struct {
	minDist int64
	count   int64
	slot    int32 // the construct's profiles index
	next    int32 // the edge's next cell
}

// nestCell counts the instances of one construct pushed directly under an
// instance of another.
type nestCell struct {
	count  int64
	parent int32 // the parent construct's profiles index
	next   int32 // the child construct's next nestCell
}

// Edge is a finalized static dependence edge of one construct.
type Edge struct {
	HeadPC  int
	TailPC  int
	Type    DepType
	MinDist int64
	Count   int64
	HeadPos source.Pos
	TailPos source.Pos
}

// Violates reports whether this edge hinders running the construct as a
// future: the minimal observed distance does not exceed the construct's
// duration, so in the parallel schedule the tail could run before the
// head completes (paper §II).
func (e Edge) Violates(dur int64) bool { return e.MinDist <= dur }

// ConstructStat is the finalized profile of one static construct.
type ConstructStat struct {
	// Label is the global PC of the construct head.
	Label int
	// Kind says whether the construct is a procedure, loop, or
	// conditional.
	Kind indexing.Kind
	// Pos is the source location of the construct head.
	Pos source.Pos
	// FuncName is the enclosing (or, for KindFunc, the named) function.
	FuncName string
	// Ttotal is the total instruction count spent in the construct,
	// counting each recursive nest once (§III.B).
	Ttotal int64
	// MinDur and MaxDur bound the individual instance durations (an
	// extension over the paper's aggregate profile: skewed instance
	// durations flag constructs whose mean is unrepresentative).
	MinDur int64
	MaxDur int64
	// Instances is the number of completed outermost instances; for loops
	// this counts iterations, as in the paper's Fig. 2 profile.
	Instances int64
	// Edges are the static dependence edges from this construct to its
	// continuation, sorted by ascending minimal distance.
	Edges []Edge
}

// MeanDur returns the average instance duration, the Tdur against which
// dependence distances are compared.
func (c *ConstructStat) MeanDur() int64 {
	if c.Instances == 0 {
		return 0
	}
	return c.Ttotal / c.Instances
}

// ViolatingEdges returns this construct's edges of type t with
// MinDist <= MeanDur (the "violating static dependences" of Fig. 6).
func (c *ConstructStat) ViolatingEdges(t DepType) []Edge {
	dur := c.MeanDur()
	var out []Edge
	for _, e := range c.Edges {
		if e.Type == t && e.Violates(dur) {
			out = append(out, e)
		}
	}
	return out
}

// CountEdges returns the number of edges of type t.
func (c *ConstructStat) CountEdges(t DepType) int {
	n := 0
	for _, e := range c.Edges {
		if e.Type == t {
			n++
		}
	}
	return n
}

// Profile is the result of one profiled execution.
type Profile struct {
	// Program is the profiled program.
	Program *ir.Program
	// TotalSteps is the executed instruction count (the profile's time
	// unit).
	TotalSteps int64
	// Constructs holds one entry per static construct that completed at
	// least one instance, sorted by descending Ttotal.
	Constructs []*ConstructStat
	// StaticConstructs is the number of distinct construct labels
	// executed; DynamicConstructs the total instance count (Table III's
	// Static/Dynamic columns).
	StaticConstructs  int64
	DynamicConstructs int64
	// NestDirect[child<<32|parent] counts how many instances of construct
	// `child` were pushed directly under an instance of construct
	// `parent`; used by the Fig. 6(b) "remove constructs parallelized
	// along with C1" analysis.
	NestDirect map[uint64]int64
	// Pool reports construct-pool behaviour (Theorem 1 validation).
	Pool indexing.PoolStats
	// Shadow reports shadow-memory behaviour.
	Shadow shadow.Stats

	byLabel map[int]*ConstructStat
}

// Construct returns the stats for the construct headed at global PC
// label, or nil.
func (p *Profile) Construct(label int) *ConstructStat {
	return p.byLabel[label]
}

// ConstructAtLine returns the first construct (highest Ttotal) whose head
// is on the given 1-based source line, preferring kind k; nil if none.
func (p *Profile) ConstructAtLine(line int, k indexing.Kind) *ConstructStat {
	var fallback *ConstructStat
	for _, c := range p.Constructs {
		if c.Pos.Line != line {
			continue
		}
		if c.Kind == k {
			return c
		}
		if fallback == nil {
			fallback = c
		}
	}
	return fallback
}

// ConstructForFunc returns the procedure construct of the named function.
func (p *Profile) ConstructForFunc(name string) *ConstructStat {
	f := p.Program.FindFunc(name)
	if f == nil {
		return nil
	}
	return p.byLabel[FuncLabel(f.Base)]
}

// NestKey packs a (child, parent) construct label pair.
func NestKey(child, parent int) uint64 {
	return uint64(uint32(child))<<32 | uint64(uint32(parent))
}

// TotalViolating sums the violating static edges of type t across all
// constructs (the Fig. 6 normalization denominator).
func (p *Profile) TotalViolating(t DepType) int {
	n := 0
	for _, c := range p.Constructs {
		n += len(c.ViolatingEdges(t))
	}
	return n
}

// String renders a one-line summary.
func (p *Profile) String() string {
	return fmt.Sprintf("profile: %d steps, %d static / %d dynamic constructs",
		p.TotalSteps, p.StaticConstructs, p.DynamicConstructs)
}

// finalize converts the online tables into the exported Profile. All
// ConstructStats share one backing array, and so do all Edges. The total
// orders of compareEdges and compareConstructs keep the order of the
// tables out of the result.
func (p *Profiler) finalize() *Profile {
	prog := p.prog
	n := len(p.profiles) - 1
	out := &Profile{
		Program:           prog,
		TotalSteps:        *p.now,
		StaticConstructs:  int64(n),
		DynamicConstructs: p.dynamic,
		NestDirect:        make(map[uint64]int64, len(p.nests)-1),
		Pool:              p.pool.Stats(),
		Shadow:            p.shadow.Stats(),
		Constructs:        make([]*ConstructStat, n),
		byLabel:           make(map[int]*ConstructStat, n),
	}

	// Lay the edges out construct by construct. end[s] starts at the
	// first index of slot s's run and, once every cell is placed, ends
	// one past its last.
	edges := make([]Edge, len(p.cells)-1)
	end := make([]int32, len(p.profiles))
	var off int32
	for s := 1; s < len(p.profiles); s++ {
		end[s] = off
		off += p.profiles[s].nCells
	}
	for e := 1; e < len(p.edges); e++ {
		k := &p.edges[e]
		headPos, tailPos := prog.PosOf(int(k.head)), prog.PosOf(int(k.tail))
		for i := k.cells; i != 0; i = p.cells[i].next {
			c := &p.cells[i]
			edges[end[c.slot]] = Edge{
				HeadPC:  int(k.head),
				TailPC:  int(k.tail),
				Type:    k.typ,
				MinDist: c.minDist,
				Count:   c.count,
				HeadPos: headPos,
				TailPos: tailPos,
			}
			end[c.slot]++
		}
	}

	stats := make([]ConstructStat, n)
	for s := 1; s < len(p.profiles); s++ {
		cp := &p.profiles[s]
		label := int(cp.label)
		cs := &stats[s-1]
		*cs = ConstructStat{
			Label:     label,
			Kind:      cp.kind,
			Ttotal:    cp.ttotal,
			MinDur:    cp.minDur,
			MaxDur:    cp.maxDur,
			Instances: cp.inst,
		}
		if base, ok := IsFuncLabel(label); ok {
			if f := prog.FuncAt(base); f != nil {
				cs.FuncName = f.Name
				cs.Pos = f.Pos
			}
		} else {
			cs.Pos = prog.PosOf(label)
			if f := prog.FuncAt(label); f != nil {
				cs.FuncName = f.Name
			}
		}
		if cp.nCells > 0 {
			cs.Edges = edges[end[s]-cp.nCells : end[s] : end[s]]
			slices.SortFunc(cs.Edges, compareEdges)
		}
		for i := cp.nests; i != 0; i = p.nests[i].next {
			nc := &p.nests[i]
			out.NestDirect[NestKey(label, int(p.profiles[nc.parent].label))] = nc.count
		}
		out.Constructs[s-1] = cs
		out.byLabel[label] = cs
	}
	slices.SortFunc(out.Constructs, compareConstructs)
	return out
}

// compareEdges orders a construct's edges by ascending minimal distance,
// then by head PC, tail PC and type.
func compareEdges(a, b Edge) int {
	if c := cmp.Compare(a.MinDist, b.MinDist); c != 0 {
		return c
	}
	if c := cmp.Compare(a.HeadPC, b.HeadPC); c != 0 {
		return c
	}
	if c := cmp.Compare(a.TailPC, b.TailPC); c != 0 {
		return c
	}
	return cmp.Compare(a.Type, b.Type)
}

// compareConstructs orders constructs by descending Ttotal, then by
// label.
func compareConstructs(a, b *ConstructStat) int {
	if c := cmp.Compare(b.Ttotal, a.Ttotal); c != 0 {
		return c
	}
	return cmp.Compare(a.Label, b.Label)
}
