package indexing

import (
	"testing"
	"testing/quick"
)

// fifoModel is the reference for Pool: Table I's FIFO pool as a plain
// queue of separately allocated nodes, warmed with prealloc empty nodes.
// Reset builds a new queue, as a fresh pool would.
type fifoModel struct {
	queue    []*modelNode // head first
	maxProbe int
	disable  bool
	stats    PoolStats
}

type modelNode struct{ tenter, texit int64 }

func newFIFOModel(prealloc int) *fifoModel {
	m := &fifoModel{maxProbe: 32}
	m.reset(prealloc)
	return m
}

func (m *fifoModel) reset(prealloc int) {
	m.queue = nil
	for i := 0; i < prealloc; i++ {
		m.queue = append(m.queue, &modelNode{})
	}
	m.stats = PoolStats{Allocated: int64(prealloc)}
}

func (m *fifoModel) acquire(now int64) *modelNode {
	probes := max(m.maxProbe, 1)
	if m.disable {
		probes = 0
	}
	var c *modelNode
	for i := 0; i < probes && len(m.queue) > 0; i++ {
		cand := m.queue[0]
		m.queue = m.queue[1:]
		if now-cand.texit >= cand.texit-cand.tenter {
			c = cand
			m.stats.Reused++
			break
		}
		m.queue = append(m.queue, cand)
		m.stats.Rotations++
	}
	if c == nil {
		c = &modelNode{}
		m.stats.Allocated++
	}
	c.tenter, c.texit = now, 0
	return c
}

func (m *fifoModel) release(c *modelNode) { m.queue = append(m.queue, c) }

// poolOp is one step of a random pool workload.
type poolOp struct {
	Kind uint8  // acquire, release or reset
	Gap  uint8  // time that passes before the step
	Pick uint16 // which active node to release; the prealloc of a reset
}

// TestPoolMatchesFIFOModel drives random Acquire/Release/Reset sequences
// through Pool and fifoModel. The two must reuse the same nodes (node
// identities correspond one to one within a reset epoch) and report the
// same stats and Live counts after every step.
func TestPoolMatchesFIFOModel(t *testing.T) {
	f := func(prealloc, maxProbe uint8, disable bool, ops []poolOp) bool {
		disable = disable && maxProbe%4 == 0 // mostly with reuse
		p, m := NewPool(int(prealloc%16)), newFIFOModel(int(prealloc%16))
		p.MaxProbe, m.maxProbe = int(maxProbe%5), int(maxProbe%5)
		p.DisableReuse, m.disable = disable, disable
		toPool := map[*modelNode]*Construct{}
		toModel := map[*Construct]*modelNode{}
		type pair struct {
			c *Construct
			n *modelNode
		}
		var active []pair
		now := int64(0)
		for _, op := range ops {
			now += int64(op.Gap % 16)
			switch op.Kind % 8 {
			case 0, 1, 2, 3:
				var parent *Construct
				if len(active) > 0 {
					parent = active[len(active)-1].c
				}
				c := p.Acquire(now, int(op.Pick), parent)
				n := m.acquire(now)
				if c.Tenter != now || c.Texit != 0 || c.Parent != parent.Index() || p.At(c.Index()) != c {
					return false
				}
				want, seen := toPool[n]
				if seen != (toModel[c] != nil) || seen && want != c {
					return false
				}
				toPool[n], toModel[c] = c, n
				active = append(active, pair{c, n})
			case 4, 5, 6:
				if len(active) == 0 {
					continue
				}
				i := int(op.Pick) % len(active)
				a := active[i]
				active = append(active[:i], active[i+1:]...)
				a.c.Texit, a.n.texit = now, now
				p.Release(a.c)
				m.release(a.n)
			default:
				n := int(op.Pick % 16)
				p.Reset(n)
				m.reset(n)
				clear(toPool)
				clear(toModel)
				active = active[:0]
			}
			if p.Stats() != m.stats || p.Live() != len(m.queue) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
