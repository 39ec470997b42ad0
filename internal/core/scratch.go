package core

import (
	"alchemist/internal/indexing"
	"alchemist/internal/shadow"
)

// Scratch holds the per-run buffers that dominate allocation churn —
// the VM's flat memory, the shadow memory and the construct pool — so
// back-to-back runs (every Engine run and profile) can recycle them
// instead of reallocating megabytes per job. A profiled run takes all
// three (Options.Scratch), an uninstrumented one only the VM memory
// (RunProgramCtx), and a Parallel run none. A Scratch may be used by at
// most one run at a time; for concurrency keep one per concurrent run
// (the Engine keeps a free list of at most Workers() of them). The zero
// value is ready: buffers are created on first use and replaced
// whenever a run's geometry (memory extent, reader slots) is
// incompatible with the retained ones, so an idle Scratch holds what its
// largest runs grew: the VM memory at most MemWords words, and under
// twice the words the run that grew it allocated.
type Scratch struct {
	mem    []int64
	shadow *shadow.Memory
	pool   *indexing.Pool
}

// Bytes reports the storage the Scratch holds: VM memory words, shadow
// pages and overflow blocks, and construct-pool chunks.
func (s *Scratch) Bytes() int64 {
	b := 8 * int64(cap(s.mem))
	if s.shadow != nil {
		b += s.shadow.Held()
	}
	if s.pool != nil {
		b += s.pool.Held()
	}
	return b
}

// acquire returns reset-or-fresh buffers for a run over memWords of flat
// memory with the given reader-slot bound and construct-pool
// preallocation, retaining them in the Scratch for the next acquire. A
// retained pool is reset to exactly what NewPool(prealloc) builds, so a
// run's profile does not depend on which run used the Scratch before.
func (s *Scratch) acquire(memWords int64, readerSlots, prealloc int) (*indexing.Pool, *shadow.Memory) {
	wantSlots := readerSlots
	if wantSlots <= 0 {
		wantSlots = shadow.DefaultReaderSlots
	}
	if s.shadow != nil && s.shadow.Words() >= memWords && s.shadow.Slots() == wantSlots {
		s.shadow.Reset()
	} else {
		s.shadow = shadow.New(memWords, readerSlots)
	}
	if s.pool != nil {
		s.pool.Reset(prealloc)
	} else {
		s.pool = indexing.NewPool(prealloc)
	}
	return s.pool, s.shadow
}
