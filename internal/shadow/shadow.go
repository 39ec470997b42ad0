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
//
// Most words never hold a second reader between writes, so a page keeps
// only the last write and reader slot 0 of each word inline, 36 bytes a
// word with the per-word meta. A word's slots 1..K-1 live in its page's
// overflow block, which the word is given the first time it holds a
// second distinct reader PC.
package shadow

import (
	"fmt"
	"unsafe"

	"alchemist/internal/indexing"
)

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

// MaxReaderSlots is the largest per-word reader bound: a word's reader
// count is an 8-bit field of its meta.
const MaxReaderSlots = 255

// pageWords is the shadow page granule.
const pageWords = 4096

// A word's meta packs its reader count (bits 0-7), whether it was
// written (bit 8), and, from bit 9 up, one more than the offset of its
// slots 1..K-1 in the page's overflow, 0 while it has none.
const (
	countMask  = 1<<8 - 1
	written    = 1 << 8
	blockShift = 9
)

// page is the inline part of a page: one pointer-free object.
type page struct {
	writes [pageWords]Access // last write of each word
	first  [pageWords]Access // reader slot 0 of each word
	meta   [pageWords]uint32
}

// pageBytes is what one page costs, overflow aside: 36 bytes a word.
const pageBytes = int64(unsafe.Sizeof(page{}))

// firstBlocks is the number of overflow blocks a page's overflow starts
// with. It quadruples when full, so the page's 4096 words fit after at
// most four allocations: a page takes five objects at most.
const firstBlocks = 64

// pageRef is the directory entry of one page of the shadowed extent;
// the page itself is allocated when a run first touches it.
type pageRef struct {
	p *page
	// ovf holds the page's overflow blocks, K-1 slots each, in the order
	// the words were given them; len counts the blocks given this run.
	ovf []Access
	// run is the run that last cleared p.meta; a page is cleared when a
	// run first touches it.
	run uint64
}

// Memory is the shadow memory for one profiled execution. It is not safe
// for concurrent use; profiling is sequential by design.
type Memory struct {
	// pages is the page directory, nPages long once the first access
	// has made it; a run that never touches memory allocates none.
	pages  []pageRef
	nPages int64
	k      int
	run    uint64

	// scratch reuses one slice for Store's reader report.
	scratch []Access

	// Stats.
	loads, stores   int64
	evictedReaders  int64
	pagesAllocated  int64
	bytes           int64
	droppedOutRange int64

	// held is the storage the Memory holds across runs: the page
	// directory, pages and overflow capacity.
	held int64
}

// Stats reports shadow counters for ablation and diagnostics.
type Stats struct {
	Loads, Stores  int64
	EvictedReaders int64
	PagesAllocated int64
	OutOfRange     int64
	// Bytes is the shadow storage the run allocated: pages plus overflow
	// blocks. Like PagesAllocated, it does not count storage retained
	// from an earlier run.
	Bytes int64
}

// New creates shadow memory covering memWords of flat memory, tracking up
// to readerSlots distinct reader PCs per word (0 means
// DefaultReaderSlots). It panics if readerSlots exceeds MaxReaderSlots.
func New(memWords int64, readerSlots int) *Memory {
	if readerSlots <= 0 {
		readerSlots = DefaultReaderSlots
	}
	if readerSlots > MaxReaderSlots {
		panic(fmt.Sprintf("shadow: %d reader slots, at most %d", readerSlots, MaxReaderSlots))
	}
	return &Memory{
		nPages:  (memWords + pageWords - 1) / pageWords,
		k:       readerSlots,
		run:     1,
		scratch: make([]Access, 0, readerSlots),
	}
}

// Words returns the flat-memory extent this shadow covers, and Slots the
// per-word reader bound; both identify compatible reuses via Reset.
func (m *Memory) Words() int64 { return m.nPages * pageWords }

// Slots returns the per-word reader-PC bound.
func (m *Memory) Slots() int { return m.k }

// Reset forgets every recorded access so the Memory can shadow a fresh
// run, keeping the already-allocated pages (the point of reuse: batch
// jobs of the same program touch the same pages). It takes constant
// time: the run counter moves on, and a page is cleared when the next
// run first touches it. Counters restart at zero; retained pages are not
// re-counted in PagesAllocated or Bytes, so per-run stats only report
// allocations the run itself caused.
func (m *Memory) Reset() {
	m.run++
	m.loads, m.stores = 0, 0
	m.evictedReaders = 0
	m.pagesAllocated = 0
	m.bytes = 0
	m.droppedOutRange = 0
}

// Held returns the bytes of storage the Memory holds, whichever runs
// allocated it: the page directory, pages and overflow blocks.
func (m *Memory) Held() int64 { return m.held }

// Stats returns a snapshot of the counters.
func (m *Memory) Stats() Stats {
	return Stats{
		Loads: m.loads, Stores: m.stores,
		EvictedReaders: m.evictedReaders,
		PagesAllocated: m.pagesAllocated,
		OutOfRange:     m.droppedOutRange,
		Bytes:          m.bytes,
	}
}

// pageFor returns the entry of the page holding addr and addr's offset
// in it, if the page is ready for this run; nil otherwise, and then the
// caller asks ready. Kept free of calls, pageFor inlines into Load and
// Store.
func (m *Memory) pageFor(addr int64) (*pageRef, int64) {
	pi := uint64(addr) / pageWords // a negative addr wraps past the end
	if pi >= uint64(len(m.pages)) || m.pages[pi].run != m.run {
		return nil, 0
	}
	return &m.pages[pi], int64(uint64(addr) % pageWords)
}

// ready is pageFor's slow path. It makes the page directory on the
// first access, allocates a page on its first touch ever, and clears a
// page an earlier run left behind. It returns nil when addr is outside
// the shadowed extent.
func (m *Memory) ready(addr int64) (*pageRef, int64) {
	pi := uint64(addr) / pageWords
	if pi >= uint64(m.nPages) {
		return nil, 0
	}
	if m.pages == nil {
		m.pages = make([]pageRef, m.nPages)
		m.held += m.nPages * int64(unsafe.Sizeof(pageRef{}))
	}
	r := &m.pages[pi]
	if r.p == nil {
		r.p = new(page)
		m.pagesAllocated++
		m.bytes += pageBytes
		m.held += pageBytes
	} else {
		clear(r.p.meta[:])
		r.ovf = r.ovf[:0]
	}
	r.run = m.run
	return r, int64(uint64(addr) % pageWords)
}

// Load records a read of addr and returns the last write to addr, which
// is the head of a RAW dependence ending at this read.
func (m *Memory) Load(addr int64, pc int32, time int64, node *indexing.Construct) (raw Access, hasRAW bool) {
	m.loads++
	r, off := m.pageFor(addr)
	if r == nil {
		if r, off = m.ready(addr); r == nil {
			m.droppedOutRange++
			return Access{}, false
		}
	}
	// Record the reader: update an existing slot with the same PC, use a
	// free slot, or evict the stalest entry.
	p := r.p
	rec := Access{Time: time, Node: node.Index(), PC: pc}
	meta := p.meta[off]
	switch {
	case meta&countMask == 0:
		p.first[off] = rec
		p.meta[off] = meta + 1
	case p.first[off].PC == pc:
		p.first[off] = rec
	default:
		m.addReader(r, off, rec)
	}
	if meta&written != 0 {
		return p.writes[off], true
	}
	return Access{}, false
}

// addReader records rec in a word whose slot 0 holds another PC: it
// updates the slot with rec's PC, else takes the next free slot, else
// evicts the stalest of all K slots, the lowest slot on a tie. With
// K > 1 the word is given its overflow block here, when it first needs
// slot 1.
func (m *Memory) addReader(r *pageRef, off int64, rec Access) {
	p := r.p
	meta := p.meta[off]
	n := int(meta & countMask)
	var more []Access // slots 1..K-1
	if m.k > 1 {
		if meta>>blockShift == 0 {
			meta |= uint32(len(r.ovf)+1) << blockShift
			p.meta[off] = meta
			m.growOverflow(r)
		}
		o := int(meta>>blockShift) - 1
		more = r.ovf[o : o+m.k-1]
	}
	for i := range more[:n-1] {
		if more[i].PC == rec.PC {
			more[i] = rec
			return
		}
	}
	if n < m.k {
		more[n-1] = rec
		p.meta[off] = meta + 1
		return
	}
	m.evictedReaders++
	oldest := &p.first[off]
	for i := range more {
		if more[i].Time < oldest.Time {
			oldest = &more[i]
		}
	}
	*oldest = rec
}

// growOverflow appends one block to r's page overflow, quadrupling the
// overflow's storage when it is full.
func (m *Memory) growOverflow(r *pageRef) {
	n := len(r.ovf) + m.k - 1
	if n > cap(r.ovf) {
		grown := make([]Access, n, max(4*cap(r.ovf), firstBlocks*(m.k-1)))
		copy(grown, r.ovf)
		size := int64(unsafe.Sizeof(Access{}))
		m.bytes += int64(cap(grown)) * size
		m.held += int64(cap(grown)-cap(r.ovf)) * size
		r.ovf = grown
	}
	r.ovf = r.ovf[:n]
}

// Store records a write of addr. It returns the previous write (the head
// of a WAW dependence) and the reads performed since that write (the
// heads of WAR dependences), in slot order. The returned reader slice is
// only valid until the next call on this Memory.
func (m *Memory) Store(addr int64, pc int32, time int64, node *indexing.Construct) (prev Access, hadPrev bool, readers []Access) {
	m.stores++
	r, off := m.pageFor(addr)
	if r == nil {
		if r, off = m.ready(addr); r == nil {
			m.droppedOutRange++
			return Access{}, false, nil
		}
	}
	p := r.p
	meta := p.meta[off]
	prev, hadPrev = p.writes[off], meta&written != 0
	readers = m.scratch[:0]
	if n := int(meta & countMask); n > 0 {
		readers = append(readers, p.first[off])
		if n > 1 {
			o := int(meta>>blockShift) - 1
			for _, a := range r.ovf[o : o+n-1] {
				readers = append(readers, a)
			}
		}
	}
	p.meta[off] = meta&^countMask | written
	p.writes[off] = Access{Time: time, Node: node.Index(), PC: pc}
	return prev, hadPrev, readers
}
