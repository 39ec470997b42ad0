package core

import (
	"alchemist/internal/indexing"
	"alchemist/internal/shadow"
)

// Scratch holds the per-run profiling buffers that dominate allocation
// churn — the shadow memory and the construct pool — so back-to-back
// profiling runs (the Engine batch path) can recycle them instead of
// reallocating tens of megabytes per job. A Scratch may be used by at
// most one profiler at a time; for concurrency keep one per concurrent
// run (the Engine keeps a free list of at most Workers() of them).
// The zero value is ready: buffers are created on first use and replaced
// whenever a run's geometry (memory extent, reader slots) is
// incompatible with the retained ones.
type Scratch struct {
	shadow *shadow.Memory
	pool   *indexing.Pool
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
