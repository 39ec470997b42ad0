package shadow

import (
	"reflect"
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

// oracle is a straightforward reference implementation with the same
// bounded-reader semantics, for the property test.
type oracle struct {
	k       int
	write   map[int64]Access
	readers map[int64][]Access
}

func newOracle(k int) *oracle {
	return &oracle{k: k, write: map[int64]Access{}, readers: map[int64][]Access{}}
}

func (o *oracle) load(addr int64, pc int32, time int64) (Access, bool) {
	rs := o.readers[addr]
	replaced := false
	for i := range rs {
		if rs[i].PC == pc {
			rs[i].Time = time
			replaced = true
		}
	}
	if !replaced {
		if len(rs) < o.k {
			rs = append(rs, Access{PC: pc, Time: time})
		} else {
			oldest := 0
			for i := 1; i < len(rs); i++ {
				if rs[i].Time < rs[oldest].Time {
					oldest = i
				}
			}
			rs[oldest] = Access{PC: pc, Time: time}
		}
	}
	o.readers[addr] = rs
	w, ok := o.write[addr]
	return w, ok
}

func (o *oracle) store(addr int64, pc int32, time int64) (Access, bool, []Access) {
	prev, had := o.write[addr]
	rs := o.readers[addr]
	delete(o.readers, addr)
	o.write[addr] = Access{PC: pc, Time: time}
	return prev, had, rs
}

// TestAgainstOracle drives random access sequences through both
// implementations and compares every report.
func TestAgainstOracle(t *testing.T) {
	type op struct {
		IsStore bool
		Addr    uint16
		PC      uint8
	}
	f := func(ops []op) bool {
		m := New(1<<16, 3)
		o := newOracle(3)
		time := int64(0)
		for _, operation := range ops {
			time++
			addr := int64(operation.Addr % 512) // force collisions
			pc := int32(operation.PC%16) + 1
			if operation.IsStore {
				gPrev, gHad, gReaders := m.Store(addr, pc, time, nil)
				wPrev, wHad, wReaders := o.store(addr, pc, time)
				if gHad != wHad {
					return false
				}
				if gHad && (gPrev.PC != wPrev.PC || gPrev.Time != wPrev.Time) {
					return false
				}
				if len(gReaders) != len(wReaders) {
					return false
				}
				gset := map[int64]bool{}
				for _, r := range gReaders {
					gset[int64(r.PC)<<32|r.Time] = true
				}
				for _, r := range wReaders {
					if !gset[int64(r.PC)<<32|r.Time] {
						return false
					}
				}
			} else {
				gw, gok := m.Load(addr, pc, time, nil)
				ww, wok := o.load(addr, pc, time)
				if gok != wok {
					return false
				}
				if gok && (gw.PC != ww.PC || gw.Time != ww.Time) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRecordsArePointerFree: shadow pages and the construct pool's slab
// hold no pointers, so the garbage collector never scans them, and an
// access record takes 16 bytes.
func TestRecordsArePointerFree(t *testing.T) {
	if n := unsafe.Sizeof(Access{}); n != 16 {
		t.Errorf("Access is %d bytes, want 16", n)
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(Access{}), reflect.TypeOf(indexing.Construct{})} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Type.Kind() < reflect.Bool || f.Type.Kind() > reflect.Uint64 {
				t.Errorf("%s.%s is a %s, want an integer", typ.Name(), f.Name, f.Type)
			}
		}
	}
}
