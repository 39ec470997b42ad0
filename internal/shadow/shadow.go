// Package shadow implements the shadow memory Alchemist uses to detect
// RAW, WAR, and WAW dependences.
//
// For every flat-memory word the shadow keeps the last write (the only
// source of true RAW and direct WAW dependences) and a small, bounded set
// of reads-since-last-write, one slot per distinct reading PC (the
// sources of WAR dependences). Bounding the reader set trades WAR-edge
// recall for memory; the slot count is configurable and ablated in the
// benchmark suite. Shadow pages are allocated lazily so untouched memory
// costs nothing.
package shadow

import "alchemist/internal/indexing"

// Access describes one memory access: which instruction performed it,
// when, and inside which construct instance. It holds no pointers, so
// the garbage collector does not scan shadow pages.
type Access struct {
	Time int64
	// Node is the construct instance's index in its indexing.Pool (see
	// Pool.At), 0 for none.
	Node int32
	PC   int32
}

// DefaultReaderSlots is the default per-word bound on distinct reader PCs
// tracked between writes.
const DefaultReaderSlots = 4

// pageWords is the shadow page granule.
const pageWords = 4096

type page struct {
	writes   []Access // len pageWords
	hasWrite []bool
	readers  []Access // len pageWords*K, K slots per word
	nReaders []uint8
}

// Memory is the shadow memory for one profiled execution. It is not safe
// for concurrent use; profiling is sequential by design.
type Memory struct {
	pages []*page
	k     int

	// scratch reuses one slice for Store's reader report.
	scratch []Access

	// Stats.
	loads, stores   int64
	evictedReaders  int64
	pagesAllocated  int64
	droppedOutRange int64
}

// Stats reports shadow counters for ablation and diagnostics.
type Stats struct {
	Loads, Stores  int64
	EvictedReaders int64
	PagesAllocated int64
	OutOfRange     int64
}

// New creates shadow memory covering memWords of flat memory, tracking up
// to readerSlots distinct reader PCs per word (0 means
// DefaultReaderSlots).
func New(memWords int64, readerSlots int) *Memory {
	if readerSlots <= 0 {
		readerSlots = DefaultReaderSlots
	}
	nPages := (memWords + pageWords - 1) / pageWords
	return &Memory{
		pages:   make([]*page, nPages),
		k:       readerSlots,
		scratch: make([]Access, 0, readerSlots),
	}
}

// Words returns the flat-memory extent this shadow covers, and Slots the
// per-word reader bound; both identify compatible reuses via Reset.
func (m *Memory) Words() int64 { return int64(len(m.pages)) * pageWords }

// Slots returns the per-word reader-PC bound.
func (m *Memory) Slots() int { return m.k }

// Reset clears every recorded access so the Memory can shadow a fresh
// run, keeping the already-allocated pages (the point of reuse: batch
// jobs of the same program touch the same pages). Counters restart at
// zero; retained pages are not re-counted in PagesAllocated, so per-run
// stats only report allocations the run itself caused.
func (m *Memory) Reset() {
	for _, p := range m.pages {
		if p == nil {
			continue
		}
		clear(p.hasWrite)
		clear(p.nReaders)
	}
	m.loads, m.stores = 0, 0
	m.evictedReaders = 0
	m.pagesAllocated = 0
	m.droppedOutRange = 0
}

// Stats returns a snapshot of the counters.
func (m *Memory) Stats() Stats {
	return Stats{
		Loads: m.loads, Stores: m.stores,
		EvictedReaders: m.evictedReaders,
		PagesAllocated: m.pagesAllocated,
		OutOfRange:     m.droppedOutRange,
	}
}

func (m *Memory) pageFor(addr int64) (*page, int64) {
	if addr < 0 {
		return nil, 0
	}
	pi := addr / pageWords
	if pi >= int64(len(m.pages)) {
		return nil, 0
	}
	p := m.pages[pi]
	if p == nil {
		p = &page{
			writes:   make([]Access, pageWords),
			hasWrite: make([]bool, pageWords),
			readers:  make([]Access, pageWords*int64(m.k)),
			nReaders: make([]uint8, pageWords),
		}
		m.pages[pi] = p
		m.pagesAllocated++
	}
	return p, addr % pageWords
}

// Load records a read of addr and returns the last write to addr, which
// is the head of a RAW dependence ending at this read.
func (m *Memory) Load(addr int64, pc int32, time int64, node *indexing.Construct) (raw Access, hasRAW bool) {
	m.loads++
	p, off := m.pageFor(addr)
	if p == nil {
		m.droppedOutRange++
		return Access{}, false
	}
	// Record the reader: update an existing slot with the same PC, use a
	// free slot, or evict the stalest entry.
	base := off * int64(m.k)
	n := int64(p.nReaders[off])
	slot := int64(-1)
	for i := int64(0); i < n; i++ {
		if p.readers[base+i].PC == pc {
			slot = base + i
			break
		}
	}
	if slot < 0 {
		if n < int64(m.k) {
			slot = base + n
			p.nReaders[off]++
		} else {
			oldest := base
			for i := int64(1); i < n; i++ {
				if p.readers[base+i].Time < p.readers[oldest].Time {
					oldest = base + i
				}
			}
			slot = oldest
			m.evictedReaders++
		}
	}
	p.readers[slot] = Access{Time: time, Node: node.Index(), PC: pc}

	if p.hasWrite[off] {
		return p.writes[off], true
	}
	return Access{}, false
}

// Store records a write of addr. It returns the previous write (the head
// of a WAW dependence) and the reads performed since that write (the
// heads of WAR dependences). The returned reader slice is only valid
// until the next call on this Memory.
func (m *Memory) Store(addr int64, pc int32, time int64, node *indexing.Construct) (prev Access, hadPrev bool, readers []Access) {
	m.stores++
	p, off := m.pageFor(addr)
	if p == nil {
		m.droppedOutRange++
		return Access{}, false, nil
	}
	prev, hadPrev = p.writes[off], p.hasWrite[off]
	base := off * int64(m.k)
	n := int64(p.nReaders[off])
	m.scratch = m.scratch[:0]
	for i := int64(0); i < n; i++ {
		m.scratch = append(m.scratch, p.readers[base+i])
	}
	p.nReaders[off] = 0
	p.writes[off] = Access{Time: time, Node: node.Index(), PC: pc}
	p.hasWrite[off] = true
	return prev, hadPrev, m.scratch
}
