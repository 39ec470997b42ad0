package indexing

import (
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAcquireInitializes(t *testing.T) {
	p := NewPool(0)
	parent := p.Acquire(10, 100, nil)
	c := p.Acquire(12, 200, parent)
	if c.Label != 200 || c.Tenter != 12 || c.Texit != 0 || p.At(c.Parent) != parent {
		t.Errorf("acquired node wrong: %+v", c)
	}
}

func TestInWindow(t *testing.T) {
	c := &Construct{Tenter: 10, Texit: 20}
	for _, tc := range []struct {
		t    int64
		want bool
	}{
		{9, false}, {10, true}, {15, true}, {19, true}, {20, false}, {25, false},
	} {
		if got := c.InWindow(tc.t); got != tc.want {
			t.Errorf("InWindow(%d) = %v, want %v", tc.t, got, tc.want)
		}
	}
	active := &Construct{Tenter: 10, Texit: 0}
	if active.InWindow(15) {
		t.Error("active construct must not be in window")
	}
}

func TestLazyRetirement(t *testing.T) {
	p := NewPool(0)
	c := p.Acquire(0, 1, nil)
	c.Texit = 100 // lived [0,100): needs to stay dead until t=200
	p.Release(c)

	// Too early: the node must not be recycled.
	c2 := p.Acquire(150, 2, nil)
	if c2 == c {
		t.Fatal("node recycled before its retirement window")
	}
	c2.Tenter, c2.Texit = 150, 151
	p.Release(c2)

	// At t=200 the first node has been dead exactly as long as it lived.
	c3 := p.Acquire(200, 3, nil)
	if c3 != c && c3 != c2 {
		t.Fatal("no node recycled after the retirement window")
	}
}

func TestPoolFIFOOrder(t *testing.T) {
	p := NewPool(0)
	var nodes []*Construct
	for i := 0; i < 5; i++ {
		c := p.Acquire(int64(i), i, nil)
		c.Texit = c.Tenter + 1
		nodes = append(nodes, c)
	}
	for _, c := range nodes {
		p.Release(c)
	}
	// All are retirable far in the future; reuse comes from the head
	// (oldest release first).
	got := p.Acquire(1000, 99, nil)
	if got != nodes[0] {
		t.Error("reuse did not come from the pool head")
	}
}

func TestRotation(t *testing.T) {
	p := NewPool(0)
	hot := p.Acquire(0, 1, nil)
	hot.Texit = 1000 // dead at t=1000 after living 1000: hot until t=2000
	cold := p.Acquire(1000, 2, nil)
	cold.Texit = 1001 // lived 1 step: retirable at t=1002
	p.Release(hot)
	p.Release(cold)
	got := p.Acquire(1500, 3, nil)
	if got != cold {
		t.Error("probe did not skip the hot head and reuse the cold node")
	}
	if p.Stats().Rotations == 0 {
		t.Error("rotation not counted")
	}
}

func TestDisableReuse(t *testing.T) {
	p := NewPool(0)
	p.DisableReuse = true
	c := p.Acquire(0, 1, nil)
	c.Texit = 1
	p.Release(c)
	c2 := p.Acquire(1000, 2, nil)
	if c2 == c {
		t.Error("DisableReuse recycled a node")
	}
	if p.Stats().Reused != 0 {
		t.Error("reuse counted with DisableReuse")
	}
}

func TestPrealloc(t *testing.T) {
	p := NewPool(16)
	if p.Live() != 16 {
		t.Errorf("Live = %d", p.Live())
	}
	// Fresh preallocated nodes are immediately reusable.
	c := p.Acquire(0, 1, nil)
	if c == nil {
		t.Fatal("nil node")
	}
	if p.Stats().Reused != 1 || p.Stats().Allocated != 16 {
		t.Errorf("stats = %+v", p.Stats())
	}
	if p.Live() != 15 {
		t.Errorf("Live after acquire = %d", p.Live())
	}
}

// TestRetirementInvariant is the Theorem 1 safety property: any recycled
// node must have been dead at least as long as it was alive, so a
// dependence reaching into its old window would have Tdep > Tdur anyway.
func TestRetirementInvariant(t *testing.T) {
	f := func(durs []uint16, gaps []uint16) bool {
		p := NewPool(0)
		now := int64(0)
		live := map[*Construct]struct {
			enter, exit int64
		}{}
		n := len(durs)
		if n > len(gaps) {
			n = len(gaps)
		}
		for i := 0; i < n; i++ {
			c := p.Acquire(now, i, nil)
			// If the node was recycled, check the invariant against its
			// previous lifetime.
			if prev, ok := live[c]; ok {
				if now-prev.exit < prev.exit-prev.enter {
					return false
				}
			}
			dur := int64(durs[i] % 1000)
			c.Texit = now + dur
			live[c] = struct{ enter, exit int64 }{now, c.Texit}
			p.Release(c)
			now = c.Texit + int64(gaps[i]%100)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReleaseQueuePreservesOrder(t *testing.T) {
	p := NewPool(0)
	var nodes []*Construct
	// Queue more released nodes than one probe reaches.
	for i := 0; i < 100; i++ {
		c := p.Acquire(int64(i), i, nil)
		c.Tenter, c.Texit = int64(i), int64(i)+1
		nodes = append(nodes, c)
	}
	for _, c := range nodes {
		p.Release(c)
	}
	if p.Live() != 100 {
		t.Fatalf("Live = %d", p.Live())
	}
	// Drain; order must be FIFO.
	for i := 0; i < 100; i++ {
		got := p.Acquire(1_000_000, 999, nil)
		if got != nodes[i] {
			t.Fatalf("drain position %d: wrong node", i)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindFunc.String() != "func" || KindLoop.String() != "loop" || KindCond.String() != "cond" {
		t.Error("kind strings wrong")
	}
	if Kind(9).String() != "?" {
		t.Error("unknown kind string")
	}
}

func TestConstructString(t *testing.T) {
	c := &Construct{Label: 5, Tenter: 1, Texit: 9}
	if c.String() != "@5[1,9)" {
		t.Errorf("String = %q", c.String())
	}
}

// TestConstructIs32Bytes: a node holds two timestamps and four int32s,
// so a chunk of 4,096 nodes is 128 KiB.
func TestConstructIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Construct{}); n != 32 {
		t.Errorf("Construct is %d bytes, want 32", n)
	}
}

// TestHeldIsChunksOnly: the profiler's default pool of 65,536 nodes,
// every one handed out and released, takes exactly 16 chunks (2 MiB), and
// the pool holds nothing beside them.
func TestHeldIsChunksOnly(t *testing.T) {
	p := NewPool(1 << 16)
	var nodes []*Construct
	for i := 0; i < 1<<16; i++ {
		c := p.Acquire(int64(i), i, nil)
		c.Texit = c.Tenter + 1
		nodes = append(nodes, c)
	}
	for _, c := range nodes {
		p.Release(c)
	}
	const chunk = 1 << chunkBits * 32
	if got, want := p.Held(), int64(16*chunk); got != want {
		t.Errorf("Held = %d bytes after 65,536 nodes, want %d (16 chunks)", got, want)
	}
	if p.Live() != 1<<16 {
		t.Errorf("Live = %d, want 65536", p.Live())
	}
}
