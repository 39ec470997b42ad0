// Package indexing implements the execution index tree and the bounded
// construct pool of Alchemist (paper §III.A, Table I).
//
// Each dynamic construct instance (a procedure activation, a loop
// iteration, or one execution of a conditional) is a node. Nodes link to
// their enclosing construct instance via Parent, forming the execution
// index tree. Completed nodes are not freed: dependence heads detected
// later may still reference them. Instead they are appended to a pool and
// lazily retired — a node may be reused only once it has been dead for at
// least as long as its own duration, because any dependence reaching back
// into it after that point necessarily has Tdep > Tdur and cannot change
// the profile (paper Theorem 1).
package indexing

import (
	"fmt"
	"unsafe"
)

// Kind classifies a construct.
type Kind uint8

const (
	// KindFunc is a procedure activation.
	KindFunc Kind = iota
	// KindLoop is one loop iteration.
	KindLoop
	// KindCond is one execution of a conditional (if / && / || / ?:).
	KindCond
)

func (k Kind) String() string {
	switch k {
	case KindFunc:
		return "func"
	case KindLoop:
		return "loop"
	case KindCond:
		return "cond"
	default:
		return "?"
	}
}

// Construct is one dynamic construct instance; a node of the execution
// index tree. Nodes live in the pool's slab and name each other by pool
// index, so they hold no pointers and the garbage collector never scans
// them. A node is 32 bytes.
type Construct struct {
	// Tenter is the timestamp when the instance started.
	Tenter int64
	// Texit is the timestamp when the instance completed, or 0 while the
	// instance is active (reset on every acquire, per Table I line 10).
	Texit int64
	// Label is the global PC of the construct head: the function entry PC
	// or the predicate branch PC.
	Label int32
	// Parent is the pool index of the enclosing construct instance (see
	// Pool.At), 0 for none. Parents may be recycled later; consumers must
	// re-validate with InWindow before trusting a parent's identity.
	Parent int32
	// index is the node's own pool index; 0 outside a pool.
	index int32
	// next is the pool index of the node released after this one, while
	// the node waits in the pool's FIFO; 0 at the tail.
	next int32
}

// Index returns the node's pool index, or 0 (no node) for nil or a node
// made outside a pool.
func (c *Construct) Index() int32 {
	if c == nil {
		return 0
	}
	return c.index
}

// InWindow reports whether the instance was live at time t, i.e. the
// instance completed and t falls inside [Tenter, Texit). This is the
// Table II line-7 guard: it is false for active instances (Texit == 0)
// and, because time is monotonic, also false once the node has been
// recycled for a later construct.
func (c *Construct) InWindow(t int64) bool {
	return c.Tenter <= t && t < c.Texit
}

func (c *Construct) String() string {
	return fmt.Sprintf("@%d[%d,%d)", c.Label, c.Tenter, c.Texit)
}

// PoolStats reports pool behaviour for Theorem 1 validation and ablation.
type PoolStats struct {
	// Allocated is the number of nodes ever created.
	Allocated int64
	// Reused counts acquisitions served by recycling a retired node.
	Reused int64
	// Rotations counts head nodes that were probed but still too hot to
	// retire and were moved to the tail.
	Rotations int64
}

// chunkBits sets the slab chunk: 1<<chunkBits nodes (128 KiB).
const (
	chunkBits = 12
	chunkMask = 1<<chunkBits - 1
)

// Pool is the lazily-retiring construct pool of Table I. Completed nodes
// are appended at the tail; acquisition probes from the head (the
// longest-dead nodes) and recycles the first retirable one.
//
// The FIFO is the preallocated nodes not yet handed out, followed by the
// released nodes, which queue through their own next links. A
// preallocated node has an empty window, so it is always retirable: while
// any remain, acquisition takes the next one without probing the queue.
// Preallocated and fresh nodes alike come from the slab in index order,
// so the slab grows one fixed-size chunk at a time, and only as far as
// the nodes a run has handed out.
type Pool struct {
	// chunks is the slab: node i is chunks[(i-1)>>chunkBits][(i-1)&chunkMask].
	// Index 0 stands for "no node".
	chunks [][]Construct
	used   int32 // nodes handed out since NewPool or Reset
	spare  int   // preallocated nodes not yet handed out

	head, tail int32 // released nodes, oldest first; 0 when none
	count      int

	// MaxProbe bounds how many head nodes are examined per acquisition
	// before giving up and allocating fresh (default 32).
	MaxProbe int
	// DisableReuse turns lazy retirement off entirely: every acquisition
	// allocates a fresh node. This is the unbounded-index-tree baseline
	// the paper's Table I algorithm exists to avoid; it is exposed for
	// the ablation benchmarks.
	DisableReuse bool

	stats PoolStats
}

// NewPool creates an empty pool. Nodes are created on demand; prealloc
// (if > 0) warms the pool with that many immediately-reusable nodes,
// mirroring the paper's pre-allocated one-million-entry pool. Their
// memory is taken from the slab only as they are handed out.
func NewPool(prealloc int) *Pool {
	p := &Pool{MaxProbe: 32}
	p.Reset(prealloc)
	return p
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() PoolStats { return p.stats }

// Reset prepares the pool for a fresh run whose clock restarts at zero,
// leaving it exactly as NewPool(prealloc) would while keeping the slab.
// Every node handed out before is forgotten, so the caller must drop its
// references to them (the profiler resets its shadow memory with the
// pool).
func (p *Pool) Reset(prealloc int) {
	p.used = 0
	p.spare = max(prealloc, 0)
	p.head, p.tail, p.count = 0, 0, 0
	p.stats = PoolStats{Allocated: int64(p.spare)}
}

// Held returns the bytes of slab the pool holds, whichever runs
// allocated it.
func (p *Pool) Held() int64 {
	return int64(len(p.chunks)) * int64(unsafe.Sizeof([1 << chunkBits]Construct{}))
}

// Live returns the number of nodes currently sitting in the pool.
func (p *Pool) Live() int { return p.spare + p.count }

// At returns the node with pool index i, or nil for index 0.
func (p *Pool) At(i int32) *Construct {
	if i == 0 {
		return nil
	}
	i--
	return &p.chunks[i>>chunkBits][i&chunkMask]
}

// next hands out the slab's next unused node.
func (p *Pool) next() *Construct {
	i := p.used
	p.used++
	if int(i>>chunkBits) == len(p.chunks) {
		p.chunks = append(p.chunks, make([]Construct, 1<<chunkBits))
	}
	c := &p.chunks[i>>chunkBits][i&chunkMask]
	c.index = p.used
	return c
}

// retirable implements Table I line 4: a node may be recycled at time now
// only if it has been dead at least as long as it was alive.
func retirable(c *Construct, now int64) bool {
	return now-c.Texit >= c.Texit-c.Tenter
}

// popHead unlinks the oldest released node.
func (p *Pool) popHead() *Construct {
	c := p.At(p.head)
	p.head = c.next
	if p.head == 0 {
		p.tail = 0
	}
	p.count--
	return c
}

// push queues c behind the newest released node.
func (p *Pool) push(c *Construct) {
	c.next = 0
	if p.tail == 0 {
		p.head = c.index
	} else {
		p.At(p.tail).next = c.index
	}
	p.tail = c.index
	p.count++
}

// Acquire returns an initialized construct node for a construct headed at
// label, entering at time now (timestamps are never negative) with the
// given parent (nil for none).
func (p *Pool) Acquire(now int64, label int, parent *Construct) *Construct {
	var c *Construct
	probes := p.MaxProbe
	if probes <= 0 {
		probes = 1
	}
	if p.DisableReuse {
		probes = 0
	}
	if probes > 0 && p.spare > 0 {
		// The FIFO head is a preallocated node: retirable at once.
		p.spare--
		p.stats.Reused++
		c = p.next()
	}
	for i := 0; c == nil && i < probes && p.count > 0; i++ {
		cand := p.popHead()
		if retirable(cand, now) {
			c = cand
			p.stats.Reused++
			break
		}
		// Still hot: rotate to the tail and try the next-oldest.
		p.push(cand)
		p.stats.Rotations++
	}
	if c == nil {
		c = p.next()
		p.stats.Allocated++
	}
	c.Label = int32(label)
	c.Tenter = now
	c.Texit = 0
	c.Parent = parent.Index()
	return c
}

// Release returns a completed node to the pool tail (lazy retiring: reuse
// is attempted from the head, so a node stays referenceable as long as
// possible).
func (p *Pool) Release(c *Construct) { p.push(c) }
