package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// MaxLabelCardinality is the hard cap on distinct label-value
// combinations per labeled instrument. Once a vec holds this many
// children, further unseen label combinations all collapse into a
// single overflow child whose every label value is OverflowLabel, so a
// misbehaving caller (or hostile client names leaking into labels) can
// never grow a registry without bound.
const MaxLabelCardinality = 64

// OverflowLabel is the label value carried by the overflow child of a
// vec that has hit MaxLabelCardinality.
const OverflowLabel = "_overflow"

// vec is the shared core of CounterVec and GaugeVec: a map from
// label-value tuples to child instruments, capped at
// MaxLabelCardinality distinct tuples.
type vec struct {
	name   string
	labels []string

	mu       sync.RWMutex
	children map[string]*vecChild
	overflow *vecChild
}

// vecChild is one labeled child: the label values plus exactly one
// live instrument, matching the parent's kind.
type vecChild struct {
	values []string
	c      *Counter
	g      *Gauge
}

// labelKey joins label values with a byte that cannot appear in UTF-8
// text, so tuples never collide.
func labelKey(values []string) string {
	return strings.Join(values, "\xff")
}

func newVec(name string, labels []string) *vec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: vec %q needs at least one label", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	return &vec{
		name:     name,
		labels:   append([]string(nil), labels...),
		children: make(map[string]*vecChild),
	}
}

// child returns the child for the given label values, creating it on
// first use. Past MaxLabelCardinality distinct tuples every unseen
// tuple maps to the single overflow child.
func (v *vec) child(mk func(*vecChild), values []string) *vecChild {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: vec %q wants %d label values, got %d",
			v.name, len(v.labels), len(values)))
	}
	key := labelKey(values)
	v.mu.RLock()
	ch := v.children[key]
	v.mu.RUnlock()
	if ch != nil {
		return ch
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if ch := v.children[key]; ch != nil {
		return ch
	}
	if len(v.children) >= MaxLabelCardinality {
		if v.overflow == nil {
			ov := make([]string, len(v.labels))
			for i := range ov {
				ov[i] = OverflowLabel
			}
			v.overflow = &vecChild{values: ov}
			mk(v.overflow)
		}
		return v.overflow
	}
	ch = &vecChild{values: append([]string(nil), values...)}
	mk(ch)
	v.children[key] = ch
	return ch
}

// snapshot returns the children (overflow last) sorted by label values.
func (v *vec) snapshot() []*vecChild {
	v.mu.RLock()
	out := make([]*vecChild, 0, len(v.children)+1)
	for _, ch := range v.children {
		out = append(out, ch)
	}
	ov := v.overflow
	v.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		return labelKey(out[i].values) < labelKey(out[j].values)
	})
	if ov != nil {
		out = append(out, ov)
	}
	return out
}

// labelString renders the Prometheus label selector for a child, e.g.
// `{route="health",code="200"}`.
func (v *vec) labelString(ch *vecChild) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range v.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l, ch.values[i])
	}
	b.WriteByte('}')
	return b.String()
}

// CounterVec is a counter with labels. Obtain children with With; all
// methods are safe for concurrent use and on a nil receiver.
type CounterVec struct{ v *vec }

// With returns the child counter for the given label values (one per
// declared label, in declaration order). Past the cardinality cap all
// unseen tuples share one overflow child labeled OverflowLabel.
func (cv *CounterVec) With(values ...string) *Counter {
	if cv == nil {
		return nil
	}
	return cv.v.child(func(ch *vecChild) { ch.c = &Counter{} }, values).c
}

// GaugeVec is a gauge with labels.
type GaugeVec struct{ v *vec }

// With returns the child gauge for the given label values.
func (gv *GaugeVec) With(values ...string) *Gauge {
	if gv == nil {
		return nil
	}
	return gv.v.child(func(ch *vecChild) { ch.g = &Gauge{} }, values).g
}

// CounterVec returns the labeled counter registered under name,
// creating it with the given help text and label names on first use.
// Label names are fixed at registration; a later lookup with different
// labels panics.
func (r *Registry) CounterVec(name, help string, labels []string) *CounterVec {
	in := r.lookup(name, func() *instrument {
		return &instrument{name: name, help: help, cv: &CounterVec{v: newVec(name, labels)}}
	})
	if in.cv == nil {
		panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
	}
	checkLabels(name, in.cv.v.labels, labels)
	return in.cv
}

// GaugeVec returns the labeled gauge registered under name.
func (r *Registry) GaugeVec(name, help string, labels []string) *GaugeVec {
	in := r.lookup(name, func() *instrument {
		return &instrument{name: name, help: help, gv: &GaugeVec{v: newVec(name, labels)}}
	})
	if in.gv == nil {
		panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
	}
	checkLabels(name, in.gv.v.labels, labels)
	return in.gv
}

func checkLabels(name string, registered, got []string) {
	if len(registered) != len(got) {
		panic(fmt.Sprintf("obs: metric %q registered with labels %v, looked up with %v",
			name, registered, got))
	}
	for i := range registered {
		if registered[i] != got[i] {
			panic(fmt.Sprintf("obs: metric %q registered with labels %v, looked up with %v",
				name, registered, got))
		}
	}
}
