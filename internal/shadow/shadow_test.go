package shadow

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"alchemist/internal/indexing"
)

func node() *indexing.Construct { return &indexing.Construct{} }

func TestRAWDetection(t *testing.T) {
	m := New(1<<16, 0)
	n := node()
	if _, ok := m.Load(100, 1, 10, n); ok {
		t.Error("read of never-written address reported a RAW")
	}
	m.Store(100, 2, 20, n)
	w, ok := m.Load(100, 3, 30, n)
	if !ok || w.PC != 2 || w.Time != 20 {
		t.Errorf("RAW = %+v, %v", w, ok)
	}
	// A second write supersedes the first as RAW source.
	m.Store(100, 4, 40, n)
	w, ok = m.Load(100, 5, 50, n)
	if !ok || w.PC != 4 {
		t.Errorf("RAW after overwrite = %+v", w)
	}
}

func TestWAWAndWAR(t *testing.T) {
	m := New(1<<16, 0)
	n := node()
	m.Store(7, 1, 10, n)
	m.Load(7, 2, 20, n)
	m.Load(7, 3, 30, n)
	prev, had, readers := m.Store(7, 4, 40, n)
	if !had || prev.PC != 1 {
		t.Errorf("WAW prev = %+v, %v", prev, had)
	}
	if len(readers) != 2 {
		t.Fatalf("WAR readers = %d", len(readers))
	}
	pcs := map[int32]bool{readers[0].PC: true, readers[1].PC: true}
	if !pcs[2] || !pcs[3] {
		t.Errorf("WAR readers pcs = %v", pcs)
	}
	// Readers are cleared by the store.
	_, _, readers = m.Store(7, 5, 50, n)
	if len(readers) != 0 {
		t.Errorf("readers not cleared: %v", readers)
	}
}

func TestSameReaderPCUpdates(t *testing.T) {
	m := New(1<<16, 0)
	n := node()
	m.Store(9, 1, 5, n)
	m.Load(9, 2, 10, n)
	m.Load(9, 2, 30, n) // same pc, later time
	_, _, readers := m.Store(9, 3, 40, n)
	if len(readers) != 1 {
		t.Fatalf("readers = %d, want 1 slot for one pc", len(readers))
	}
	if readers[0].Time != 30 {
		t.Errorf("reader time = %d, want the latest (30)", readers[0].Time)
	}
}

func TestReaderEviction(t *testing.T) {
	m := New(1<<16, 2) // only 2 reader slots
	n := node()
	m.Store(9, 1, 5, n)
	m.Load(9, 10, 10, n)
	m.Load(9, 11, 11, n)
	m.Load(9, 12, 12, n) // evicts the stalest (pc 10)
	_, _, readers := m.Store(9, 2, 20, n)
	if len(readers) != 2 {
		t.Fatalf("readers = %d", len(readers))
	}
	pcs := map[int32]bool{readers[0].PC: true, readers[1].PC: true}
	if pcs[10] || !pcs[11] || !pcs[12] {
		t.Errorf("eviction kept wrong readers: %v", pcs)
	}
	if m.Stats().EvictedReaders != 1 {
		t.Errorf("evictions = %d", m.Stats().EvictedReaders)
	}
}

func TestPageLaziness(t *testing.T) {
	m := New(1<<20, 0)
	n := node()
	m.Store(5, 1, 1, n)
	m.Store(5000, 1, 2, n)
	m.Store(500_000, 1, 3, n)
	if got := m.Stats().PagesAllocated; got != 3 {
		t.Errorf("pages = %d, want 3", got)
	}
	// Re-touching the same pages allocates nothing new.
	m.Load(6, 2, 4, n)
	if got := m.Stats().PagesAllocated; got != 3 {
		t.Errorf("pages after reuse = %d", got)
	}
}

func TestOutOfRange(t *testing.T) {
	m := New(1024, 0)
	n := node()
	if _, ok := m.Load(-5, 1, 1, n); ok {
		t.Error("negative address reported RAW")
	}
	if _, had, _ := m.Store(1<<30, 1, 2, n); had {
		t.Error("oversized address reported WAW")
	}
	if m.Stats().OutOfRange != 2 {
		t.Errorf("OutOfRange = %d", m.Stats().OutOfRange)
	}
}

func TestCounts(t *testing.T) {
	m := New(1024, 0)
	n := node()
	m.Load(1, 1, 1, n)
	m.Load(2, 1, 2, n)
	m.Store(1, 1, 3, n)
	st := m.Stats()
	if st.Loads != 2 || st.Stores != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// oracle is a straightforward reference implementation of the shadow's
// semantics: per address, the last write and the readers since it in
// slot order. A load updates the slot with its PC, else takes the next
// free slot, else evicts the stalest reader (ties go to the lowest
// slot). Reset forgets every access but not the pages, which a run
// counts only when it is the first to touch them.
type oracle struct {
	k       int
	words   int64
	write   map[int64]Access
	readers map[int64][]Access
	pages   map[int64]bool
	st      Stats
}

func newOracle(words int64, k int) *oracle {
	o := &oracle{k: k, words: words, pages: map[int64]bool{}}
	o.reset()
	return o
}

func (o *oracle) reset() {
	o.write, o.readers = map[int64]Access{}, map[int64][]Access{}
	o.st = Stats{}
}

// touch reports whether addr is shadowed, counting its page if new.
func (o *oracle) touch(addr int64) bool {
	if addr < 0 || addr >= o.words {
		o.st.OutOfRange++
		return false
	}
	if pg := addr / pageWords; !o.pages[pg] {
		o.pages[pg] = true
		o.st.PagesAllocated++
	}
	return true
}

func (o *oracle) load(addr int64, pc int32, time int64) (Access, bool) {
	o.st.Loads++
	if !o.touch(addr) {
		return Access{}, false
	}
	rs := o.readers[addr]
	rec := Access{PC: pc, Time: time}
	i := slices.IndexFunc(rs, func(r Access) bool { return r.PC == pc })
	switch {
	case i >= 0:
		rs[i] = rec
	case len(rs) < o.k:
		rs = append(rs, rec)
	default:
		oldest := 0
		for j := 1; j < len(rs); j++ {
			if rs[j].Time < rs[oldest].Time {
				oldest = j
			}
		}
		rs[oldest] = rec
		o.st.EvictedReaders++
	}
	o.readers[addr] = rs
	w, ok := o.write[addr]
	return w, ok
}

func (o *oracle) store(addr int64, pc int32, time int64) (Access, bool, []Access) {
	o.st.Stores++
	if !o.touch(addr) {
		return Access{}, false, nil
	}
	prev, had := o.write[addr]
	rs := o.readers[addr]
	delete(o.readers, addr)
	o.write[addr] = Access{PC: pc, Time: time}
	return prev, had, rs
}

// oracleOp is one step of a random access sequence. Kind 0 is a Reset;
// otherwise one kind in four stores and the rest load, and the clock
// advances only on one kind in four, so readers often share a time
// (eviction ties). Addresses fall on 16 words of each of five pages; the
// fifth lies past the shadowed extent.
type oracleOp struct {
	Kind uint8
	Addr uint16
	PC   uint8
}

const oracleWords = 4 * pageWords

// oracleSlots are the reader bounds the oracle checks, picked by input.
var oracleSlots = []int{1, 2, 3, 4, 8}

// checkAgainstOracle runs ops through a Memory and the oracle and
// returns the first report or counter on which they differ.
func checkAgainstOracle(k int, ops []oracleOp) error {
	m := New(oracleWords, k)
	o := newOracle(oracleWords, k)
	time := int64(1)
	for i, op := range ops {
		if op.Kind == 0 {
			m.Reset()
			o.reset()
			continue
		}
		if op.Kind&12 == 0 {
			time++
		}
		addr := int64(op.Addr>>8%5)*pageWords + int64(op.Addr%16)
		pc := int32(op.PC%16) + 1
		if op.Kind&3 == 1 {
			gPrev, gHad, gReaders := m.Store(addr, pc, time, nil)
			wPrev, wHad, wReaders := o.store(addr, pc, time)
			if gHad != wHad || gHad && gPrev != wPrev || !slices.Equal(gReaders, wReaders) {
				return fmt.Errorf("op %d: Store(%d, pc %d) = %v %v %v, oracle %v %v %v",
					i, addr, pc, gPrev, gHad, gReaders, wPrev, wHad, wReaders)
			}
		} else {
			gw, gok := m.Load(addr, pc, time, nil)
			ww, wok := o.load(addr, pc, time)
			if gok != wok || gok && gw != ww {
				return fmt.Errorf("op %d: Load(%d, pc %d) = %v %v, oracle %v %v", i, addr, pc, gw, gok, ww, wok)
			}
		}
		// The oracle does not model Bytes; TestBytes covers it.
		got := m.Stats()
		got.Bytes = 0
		if got != o.st {
			return fmt.Errorf("op %d: stats %+v, oracle %+v", i, got, o.st)
		}
	}
	return nil
}

// TestAgainstOracle drives random access sequences, with random Resets
// in between, through both implementations for each reader bound and
// compares every report, in slot order, and every counter.
func TestAgainstOracle(t *testing.T) {
	f := func(ksel uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]oracleOp, 2000)
		for i := range ops {
			ops[i] = oracleOp{Kind: uint8(rng.Uint32()), Addr: uint16(rng.Uint32()), PC: uint8(rng.Uint32())}
		}
		if err := checkAgainstOracle(oracleSlots[int(ksel)%len(oracleSlots)], ops); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzShadowAgainstOracle is TestAgainstOracle under the fuzzer: the
// first byte picks the reader bound and every four bytes after it are
// one oracleOp.
func FuzzShadowAgainstOracle(f *testing.F) {
	f.Add([]byte{3, 1, 0, 1, 2, 2, 0, 1, 3, 6, 0, 1, 4, 1, 0, 1, 5})
	f.Add([]byte{1, 1, 0, 9, 1, 2, 0, 9, 2, 6, 0, 9, 3, 0, 0, 0, 0, 2, 0, 9, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := oracleSlots[int(data[0])%len(oracleSlots)]
		var ops []oracleOp
		for b := data[1:]; len(b) >= 4; b = b[4:] {
			ops = append(ops, oracleOp{Kind: b[0], Addr: uint16(b[1])<<8 | uint16(b[2]), PC: b[3]})
		}
		if err := checkAgainstOracle(k, ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestResetAcrossPages: a run after Reset sees none of the previous
// run's accesses, both on a page that run used (and left holding
// overflow blocks) and on one it never touched, and counts only the
// page it allocates itself.
func TestResetAcrossPages(t *testing.T) {
	const reset, store, load = 0, 1, 2 // both access kinds advance the clock
	var ops []oracleOp
	at := func(kind uint8, page, word uint16, pc uint8) {
		ops = append(ops, oracleOp{Kind: kind, Addr: page<<8 | word, PC: pc})
	}
	// Run 1: pages 0 and 1, with up to three readers a word.
	for w := uint16(0); w < 8; w++ {
		at(store, 0, w, 1)
		at(store, 1, w, 1)
		for pc := uint8(2); pc < 5; pc++ {
			at(load, 1, w, pc)
		}
	}
	at(reset, 0, 0, 0)
	// Run 2: page 1 again and page 2 for the first time.
	for w := uint16(0); w < 8; w++ {
		at(load, 1, w, 7)
		at(load, 2, w, 7)
		at(store, 1, w, 8)
		at(load, 1, w, 9)
		at(load, 1, w, 10)
		at(store, 1, w, 11)
	}
	for _, k := range oracleSlots {
		if err := checkAgainstOracle(k, ops); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}

	m := New(oracleWords, 4)
	n := node()
	m.Store(pageWords, 1, 1, n)
	m.Load(pageWords, 2, 2, n)
	m.Load(pageWords, 3, 3, n)
	m.Reset()
	if _, ok := m.Load(pageWords, 4, 4, n); ok {
		t.Error("a read after Reset found the previous run's write")
	}
	m.Load(2*pageWords, 4, 5, n)
	if _, had, readers := m.Store(pageWords, 5, 6, n); had || len(readers) != 1 || readers[0].PC != 4 {
		t.Errorf("Store after Reset = %v %v, want no write and the one reader of this run", had, readers)
	}
	if st := m.Stats(); st.PagesAllocated != 1 || st.Bytes != pageBytes {
		t.Errorf("after Reset: %d pages, %d bytes; want only page 2, %d bytes", st.PagesAllocated, st.Bytes, pageBytes)
	}
}

// TestBytes: a page costs 36 bytes a word; a word's second distinct
// reader gives the page its first overflow blocks, a repeat reader or a
// reader of a word that already has a block costs nothing, and storage
// retained across Reset is not counted again.
func TestBytes(t *testing.T) {
	if pageBytes != 36*pageWords {
		t.Errorf("a page is %d bytes, want %d", pageBytes, 36*pageWords)
	}
	const k = 4
	m := New(1<<16, k)
	n := node()
	m.Load(10, 1, 1, n)
	m.Load(10, 1, 2, n)
	if got := m.Stats().Bytes; got != pageBytes {
		t.Errorf("one reader: %d bytes, want %d", got, pageBytes)
	}
	ovf := int64(firstBlocks * (k - 1) * unsafe.Sizeof(Access{}))
	m.Load(10, 2, 3, n)
	m.Load(10, 3, 4, n)
	m.Store(10, 9, 5, n)
	m.Load(10, 1, 6, n)
	m.Load(10, 2, 7, n)
	if got := m.Stats().Bytes; got != pageBytes+ovf {
		t.Errorf("two readers: %d bytes, want %d", got, pageBytes+ovf)
	}
	twoReaders := func() {
		for w := int64(0); w <= firstBlocks; w++ { // one more block than fit
			m.Load(100+w, 1, 8, n)
			m.Load(100+w, 2, 8, n)
		}
	}
	twoReaders()
	if got := m.Stats().Bytes; got != pageBytes+5*ovf {
		t.Errorf("%d words with overflow: %d bytes, want %d", firstBlocks+2, got, pageBytes+5*ovf)
	}
	for run := 1; run <= 4; run++ {
		m.Reset()
		twoReaders()
		if got := m.Stats().Bytes; got != 0 {
			t.Errorf("run %d after Reset: %d bytes, want 0 (pages and overflow retained)", run, got)
		}
	}
}

// TestMaxReaderSlots: with 255 slots every distinct reader is kept until
// the 256th evicts the stalest; a larger bound is refused, because the
// reader count is 8 bits wide.
func TestMaxReaderSlots(t *testing.T) {
	m := New(1<<12, MaxReaderSlots)
	n := node()
	m.Store(7, 1000, 1, n)
	for pc := int32(0); pc < MaxReaderSlots; pc++ {
		m.Load(7, pc, int64(pc)+2, n)
	}
	_, _, readers := m.Store(7, 1000, 300, n)
	if len(readers) != MaxReaderSlots {
		t.Fatalf("%d readers, want %d", len(readers), MaxReaderSlots)
	}
	for i, r := range readers {
		if r.PC != int32(i) {
			t.Fatalf("reader %d has pc %d, want slot order", i, r.PC)
		}
	}
	for pc := int32(0); pc <= MaxReaderSlots; pc++ {
		m.Load(7, pc, int64(pc)+400, n)
	}
	_, _, readers = m.Store(7, 1000, 700, n)
	if len(readers) != MaxReaderSlots || readers[0].PC != MaxReaderSlots || m.Stats().EvictedReaders != 1 {
		t.Errorf("256 readers: %d kept, slot 0 pc %d, %d evicted; want %d, %d, 1",
			len(readers), readers[0].PC, m.Stats().EvictedReaders, MaxReaderSlots, MaxReaderSlots)
	}
	defer func() {
		if recover() == nil {
			t.Error("New accepted 256 reader slots")
		}
	}()
	New(1<<12, MaxReaderSlots+1)
}

// TestAccessesDoNotAllocate: once a page exists, loads and stores
// allocate nothing, the multi-reader path included once the page's
// overflow holds the word's block.
func TestAccessesDoNotAllocate(t *testing.T) {
	m := New(1<<12, 0)
	n := node()
	m.Load(1, 1, 1, n)
	m.Load(1, 2, 1, n)
	var time int64
	allocs := testing.AllocsPerRun(100, func() {
		time++
		m.Load(5, 1, time, n)
		m.Store(5, 2, time, n)
		m.Load(1, 3, time, n)
		m.Store(1, 4, time, n)
	})
	if allocs != 0 {
		t.Errorf("%v allocations per access round, want 0", allocs)
	}
}

// TestRecordsArePointerFree: shadow pages and the construct pool's slab
// hold no pointers, so the garbage collector never scans them, and an
// access record takes 16 bytes.
func TestRecordsArePointerFree(t *testing.T) {
	if n := unsafe.Sizeof(Access{}); n != 16 {
		t.Errorf("Access is %d bytes, want 16", n)
	}
	var check func(name string, typ reflect.Type)
	check = func(name string, typ reflect.Type) {
		switch k := typ.Kind(); {
		case k == reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(name+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case k == reflect.Array:
			check(name+"[]", typ.Elem())
		case k < reflect.Bool || k > reflect.Uint64:
			t.Errorf("%s is a %s, want an integer", name, typ)
		}
	}
	for _, v := range []any{Access{}, page{}, indexing.Construct{}} {
		check(reflect.TypeOf(v).Name(), reflect.TypeOf(v))
	}
}
