package core

import (
	"math"

	"alchemist/internal/indexing"
	"alchemist/internal/ir"
	"alchemist/internal/shadow"
	"alchemist/internal/vm"
)

// Options tune a profiling run.
type Options struct {
	// TrackWAR and TrackWAW enable anti- and output-dependence profiling
	// (RAW is always on).
	TrackWAR bool
	TrackWAW bool
	// ReaderSlots bounds distinct reader PCs tracked per memory word
	// (default shadow.DefaultReaderSlots).
	ReaderSlots int
	// PoolPrealloc warms the construct pool with this many nodes
	// (default 65536; the paper pre-allocates one million). Because the
	// pool is FIFO, its size also sets how many construct completions
	// pass before a node can be recycled; undersized pools can drop
	// cross-boundary edges of *enclosing* constructs whose windows are
	// still live when an inner head node gets recycled — a subtlety the
	// paper's Theorem 1 (argued per-instance) masks with its 1M-entry
	// pool. Violating edges of the retired construct itself are never
	// lost.
	PoolPrealloc int
	// PoolProbe bounds head probing per acquisition (default 32).
	PoolProbe int
	// DisablePoolReuse turns lazy retirement off: every construct
	// instance gets a fresh node, growing the index tree without bound
	// (the baseline the Table I pool exists to avoid; ablation only).
	DisablePoolReuse bool
	// TrackNesting enables the direct-nesting counters needed by the
	// Fig. 6(b) removal analysis (on by default via DefaultOptions).
	TrackNesting bool
	// MemWords must match the VM's memory cap (vm.Config.MemWords); the
	// Profiler constructor fills it in.
	MemWords int64
	// Scratch, when non-nil, recycles the shadow memory and construct
	// pool retained in it across runs (Engine batch path). The Scratch
	// must not be shared by concurrent profilers.
	Scratch *Scratch
}

// DefaultOptions enables the full profile.
func DefaultOptions() Options {
	return Options{TrackWAR: true, TrackWAW: true, TrackNesting: true}
}

// Profiler implements vm.Clocked. Create one with NewProfiler, pass it as
// Config.Tracer to a sequential VM, run the program, then call Finish.
// The VM lends it the run's instruction clock and calls Step only at the
// instructions that close constructs. A caller that feeds events by hand,
// or a wrapper that does not forward UseClock, must call Step before
// every instruction instead: the profiler then counts time itself.
//
// Every PC an event carries must lie in [0, prog.NumPCs), as the VM's
// always do: the profiler indexes its tables by PC and does not check.
// (trace.Replay validates recorded events before passing them on.)
type Profiler struct {
	prog *ir.Program
	opts Options

	// now is the clock every event reads: the VM's step counter once
	// UseClock lends it, else ticks, which Step advances.
	now   *int64
	ticks int64

	// IDS: the execution index stack. frames[i] is the stack index of the
	// i-th active procedure construct.
	stack  []open
	frames []int

	pool   *indexing.Pool
	shadow *shadow.Memory

	// Per-run tables, indexed by PC or by arena index. Entry 0 of every
	// arena (profiles, edges, cells, nests) is unused, so a zero slot or
	// link means "none".
	//
	// slots[label+numPCs] is the profiles index of a construct label:
	// predicate labels are PCs in [0, numPCs) and procedure labels
	// FuncLabel(base) in [-numPCs, 0).
	numPCs   int
	slots    []int32
	profiles []constructProfile
	// edgeByTail[pc] heads the chain of interned edges whose tail is pc.
	edgeByTail []int32
	edges      []edgeKey
	cells      []edgeCell
	nests      []nestCell
	dynamic    int64
}

// open is one active construct instance on the index stack: its pool
// node, its profiles index, and the PC at which rule 5 closes it
// (ir.NoPopPC when only its function's exit does).
type open struct {
	node, slot, popPC int32
}

var _ vm.Clocked = (*Profiler)(nil)

// NewProfiler builds a profiler for prog whose VM uses memWords of flat
// memory.
func NewProfiler(prog *ir.Program, memWords int64, opts Options) *Profiler {
	if memWords == 0 {
		memWords = vm.DefaultMemWords
	}
	prealloc := opts.PoolPrealloc
	if prealloc == 0 {
		prealloc = 1 << 16
	}
	var pool *indexing.Pool
	var mem *shadow.Memory
	if opts.Scratch != nil {
		pool, mem = opts.Scratch.acquire(memWords, opts.ReaderSlots, prealloc)
	} else {
		pool = indexing.NewPool(prealloc)
		mem = shadow.New(memWords, opts.ReaderSlots)
	}
	pool.MaxProbe = 32
	if opts.PoolProbe > 0 {
		pool.MaxProbe = opts.PoolProbe
	}
	pool.DisableReuse = opts.DisablePoolReuse
	n := prog.NumPCs
	p := &Profiler{
		prog:       prog,
		opts:       opts,
		stack:      make([]open, 0, 16),
		pool:       pool,
		shadow:     mem,
		numPCs:     n,
		slots:      make([]int32, 2*n),
		profiles:   make([]constructProfile, 1),
		edgeByTail: make([]int32, n),
		edges:      make([]edgeKey, 1),
		cells:      make([]edgeCell, 1),
		nests:      make([]nestCell, 1),
	}
	p.now = &p.ticks
	return p
}

// UseClock makes steps the profiler's clock: the VM's count of executed
// instructions, which it advances before every instruction's events.
// From then on Step no longer counts time and is needed only at the
// instructions marked ir.Instr.Pops.
func (p *Profiler) UseClock(steps *int64) { p.now = steps }

// Time returns the current timestamp (executed instructions).
func (p *Profiler) Time() int64 { return *p.now }

// Depth returns the current index-stack depth (active constructs).
func (p *Profiler) Depth() int { return len(p.stack) }

// Finish snapshots the profile. The VM must have completed.
func (p *Profiler) Finish() *Profile {
	// Close anything still open (main's constructs are popped by
	// ExitFunc, so this only matters for aborted runs).
	for len(p.stack) > 0 {
		p.popTop()
	}
	return p.finalize()
}

// slot returns the profiles index of a label already pushed.
func (p *Profiler) slot(label int32) int32 { return p.slots[int(label)+p.numPCs] }

// top returns the node of the innermost active construct (nil only
// before main's EnterFunc).
func (p *Profiler) top() *indexing.Construct {
	if len(p.stack) == 0 {
		return nil
	}
	return p.pool.At(p.stack[len(p.stack)-1].node)
}

// push enters a new construct instance (Table I IDS.push).
func (p *Profiler) push(label int, kind indexing.Kind, popPC int) {
	parent := p.top()
	c := p.pool.Acquire(*p.now, label, parent)
	p.dynamic++
	s := p.slots[label+p.numPCs]
	if s == 0 {
		s = int32(len(p.profiles))
		p.profiles = append(p.profiles, constructProfile{label: int32(label), kind: kind})
		p.slots[label+p.numPCs] = s
	}
	p.profiles[s].nesting++
	if p.opts.TrackNesting && parent != nil {
		p.countNest(s, p.stack[len(p.stack)-1].slot)
	}
	p.stack = append(p.stack, open{node: c.Index(), slot: s, popPC: int32(popPC)})
}

// countNest counts one instance of construct slot child pushed directly
// under an instance of construct slot parent.
func (p *Profiler) countNest(child, parent int32) {
	cp := &p.profiles[child]
	for i := cp.nests; i != 0; i = p.nests[i].next {
		if p.nests[i].parent == parent {
			p.nests[i].count++
			return
		}
	}
	p.nests = append(p.nests, nestCell{count: 1, parent: parent, next: cp.nests})
	cp.nests = int32(len(p.nests) - 1)
}

// popTop closes the innermost construct (Table I IDS.pop): record Texit,
// aggregate the profile when the recursion counter drains, and hand the
// node to the pool for lazy retirement.
func (p *Profiler) popTop() {
	n := len(p.stack) - 1
	top := p.stack[n]
	p.stack = p.stack[:n]
	c := p.pool.At(top.node)
	c.Texit = *p.now
	cp := &p.profiles[top.slot]
	cp.nesting--
	if cp.nesting == 0 {
		dur := c.Texit - c.Tenter
		cp.ttotal += dur
		cp.inst++
		if cp.inst == 1 || dur < cp.minDur {
			cp.minDur = dur
		}
		if dur > cp.maxDur {
			cp.maxDur = dur
		}
	}
	p.pool.Release(c)
}

// popDownThrough closes every construct above stack index idx and the one
// at idx itself. Children must close before parents, so an early-closing
// parent (a loop iteration ended by rule 4, or a returning procedure)
// drags its still-open children with it.
func (p *Profiler) popDownThrough(idx int) {
	for len(p.stack) > idx {
		p.popTop()
	}
}

// ---------- vm.Tracer ----------

// Step applies rule 5: close every construct whose immediate
// post-dominator is this instruction. It also advances the profiler's own
// clock, which events read until UseClock replaces it.
func (p *Profiler) Step(gpc int) {
	p.ticks++
	for n := len(p.stack); n > 0 && int(p.stack[n-1].popPC) == gpc; n = len(p.stack) {
		p.popTop()
	}
}

// FuncLabel returns the construct label used for procedure constructs of
// the function based at gpc `base`. Procedures get a negative label space
// so a function whose first instruction is a predicate branch (label ==
// base) cannot collide with that branch's construct.
func FuncLabel(base int) int { return -base - 1 }

// IsFuncLabel reports whether label denotes a procedure construct, and
// returns the function's base PC.
func IsFuncLabel(label int) (base int, ok bool) {
	if label < 0 {
		return -label - 1, true
	}
	return 0, false
}

// EnterFunc applies rule 1: open the procedure construct and remember the
// frame boundary.
func (p *Profiler) EnterFunc(f *ir.Func) {
	p.frames = append(p.frames, len(p.stack))
	p.push(FuncLabel(f.Base), indexing.KindFunc, ir.NoPopPC)
}

// ExitFunc applies rule 2, closing the procedure construct together with
// any constructs left open by early returns.
func (p *Profiler) ExitFunc(f *ir.Func) {
	if len(p.frames) == 0 {
		return
	}
	marker := p.frames[len(p.frames)-1]
	p.frames = p.frames[:len(p.frames)-1]
	p.popDownThrough(marker)
}

// Branch applies rules 3 and 4.
func (p *Profiler) Branch(in *ir.Instr, gpc int, taken bool) {
	if !in.IsLoopPred {
		// Rule 3: a non-loop predicate opens a construct regardless of
		// the direction taken; it closes at its immediate post-dominator.
		p.push(gpc, indexing.KindCond, in.PopPC)
		return
	}
	// Rule 4, restricted to taken branches: a taken loop predicate closes
	// the previous iteration of the same loop (if one is open in this
	// frame) and opens the next. The untaken direction leaves the last
	// iteration to be closed by rule 5 at the loop's post-dominator.
	if !taken {
		return
	}
	frame := 0
	if len(p.frames) > 0 {
		frame = p.frames[len(p.frames)-1]
	}
	s := p.slots[gpc+p.numPCs] // 0, which no open construct has, before gpc's first push
	for i := len(p.stack) - 1; i > frame; i-- {
		if p.stack[i].slot == s {
			p.popDownThrough(i)
			break
		}
	}
	p.push(gpc, indexing.KindLoop, in.PopPC)
}

// Load records a read; a prior write to the same address is the head of a
// RAW dependence ending here.
func (p *Profiler) Load(addr int64, gpc int) {
	node := p.top()
	w, ok := p.shadow.Load(addr, int32(gpc), *p.now, node)
	if ok {
		p.profileDep(RAW, w.PC, w.Node, w.Time, int32(gpc))
	}
}

// Store records a write; the previous write is the head of a WAW
// dependence and each read since it the head of a WAR dependence.
func (p *Profiler) Store(addr int64, gpc int) {
	node := p.top()
	if !p.opts.TrackWAR && !p.opts.TrackWAW {
		p.shadow.Store(addr, int32(gpc), *p.now, node)
		return
	}
	prev, hadPrev, readers := p.shadow.Store(addr, int32(gpc), *p.now, node)
	if p.opts.TrackWAW && hadPrev {
		p.profileDep(WAW, prev.PC, prev.Node, prev.Time, int32(gpc))
	}
	if p.opts.TrackWAR {
		for i := range readers {
			r := &readers[i]
			p.profileDep(WAR, r.PC, r.Node, r.Time, int32(gpc))
		}
	}
}

// profileDep is the Table II bottom-up walk: starting from the construct
// instance that contained the dependence head, update the profile of
// every enclosing construct that has completed (the dependence crosses
// its boundary into its continuation) and stop at the first still-active
// construct (for it, and all its ancestors, the dependence is internal).
//
// The edge is interned once per dependence. Its cells are chained in the
// order the constructs were first credited, so the k-th construct of a
// walk normally finds its cell at the k-th link without searching.
func (p *Profiler) profileDep(t DepType, headPC int32, headNode int32, headTime int64, tailPC int32) {
	c := p.pool.At(headNode)
	if c == nil || !c.InWindow(headTime) {
		return
	}
	dist := *p.now - headTime
	e := p.edgeID(headPC, tailPC, t)
	next := p.edges[e].cells
	for ; c != nil && c.InWindow(headTime); c = p.pool.At(c.Parent) {
		s := p.slot(c.Label)
		i := next
		if i == 0 || p.cells[i].slot != s {
			i = p.cellFor(e, s)
		}
		cell := &p.cells[i]
		cell.count++
		cell.minDist = min(cell.minDist, dist)
		next = cell.next
	}
}

// edgeID interns the static edge (head, tail, t) and returns its index
// in edges.
func (p *Profiler) edgeID(head, tail int32, t DepType) int32 {
	for e := p.edgeByTail[tail]; e != 0; e = p.edges[e].next {
		if p.edges[e].head == head && p.edges[e].typ == t {
			return e
		}
	}
	e := int32(len(p.edges))
	p.edges = append(p.edges, edgeKey{head: head, tail: tail, typ: t, next: p.edgeByTail[tail]})
	p.edgeByTail[tail] = e
	return e
}

// cellFor returns the index of edge e's cell for construct slot s,
// appending a fresh cell at the end of e's chain if there is none.
func (p *Profiler) cellFor(e, s int32) int32 {
	last := int32(0)
	for i := p.edges[e].cells; i != 0; i = p.cells[i].next {
		if p.cells[i].slot == s {
			return i
		}
		last = i
	}
	i := int32(len(p.cells))
	p.cells = append(p.cells, edgeCell{minDist: math.MaxInt64, slot: s})
	if last == 0 {
		p.edges[e].cells = i
	} else {
		p.cells[last].next = i
	}
	p.profiles[s].nCells++
	return i
}
