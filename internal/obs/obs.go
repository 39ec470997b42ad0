// Package obs is the dependency-free observability subsystem: atomic
// counters, gauges, and fixed-bucket histograms behind a Registry, with
// snapshot-to-JSON and Prometheus-text exporters, a Progress reporter for
// long-running jobs, and an HTTP endpoint (/metrics, /metrics.json,
// net/http/pprof) served on a side listener.
//
// Instruments are cheap enough for per-run flushing: a Counter.Add is one
// atomic add, and every method is nil-receiver safe so call sites can
// leave instrumentation unwired without branching. Hot loops should not
// call instruments per event; the VM and profiler accumulate into plain
// per-run structs and flush once at exit.
package obs

import (
	"fmt"
	"log/slog"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; all methods are safe for concurrent use and on a nil receiver
// (no-ops / zero).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The zero value is ready to
// use; all methods are safe for concurrent use and on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket latency/size histogram: observations are
// counted into the first bucket whose upper bound is >= the value, plus
// an implicit +Inf bucket, with a running sum. Construct histograms via
// Registry.Histogram so the bucket layout is registered once.
type Histogram struct {
	bounds []float64      // sorted upper bounds, exclusive of +Inf
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-updated
	count  atomic.Int64

	exMu sync.Mutex
	ex   []Exemplar // ring of recent exemplars, newest last
}

// maxExemplars bounds the per-histogram exemplar ring.
const maxExemplars = 4

// Exemplar ties a recent histogram observation to the trace that
// produced it, so a latency bucket can be drilled into via
// /debug/traces?trace_id=… . Exemplars appear in the JSON export only;
// the Prometheus 0.0.4 text format has no syntax for them.
type Exemplar struct {
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
}

// DefBuckets is the default bucket layout for wall-clock seconds,
// spanning 100µs to ~100s in roughly 3x steps.
var DefBuckets = []float64{
	0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100,
}

// ByteBuckets is a bucket layout for payload sizes in bytes, spanning
// 64 B to 16 MiB in 4x steps.
var ByteBuckets = []float64{
	64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20,
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar records one value and, when traceID is non-empty,
// remembers it as an exemplar (a small ring of the most recent ones).
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID == "" {
		return
	}
	h.exMu.Lock()
	if len(h.ex) >= maxExemplars {
		copy(h.ex, h.ex[1:])
		h.ex = h.ex[:maxExemplars-1]
	}
	h.ex = append(h.ex, Exemplar{Value: v, TraceID: traceID})
	h.exMu.Unlock()
}

// Exemplars returns a copy of the recent-exemplar ring, oldest first.
func (h *Histogram) Exemplars() []Exemplar {
	if h == nil {
		return nil
	}
	h.exMu.Lock()
	defer h.exMu.Unlock()
	if len(h.ex) == 0 {
		return nil
	}
	return append([]Exemplar(nil), h.ex...)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// instrument pairs a metric with its registration metadata.
type instrument struct {
	name string
	help string
	c    *Counter
	g    *Gauge
	h    *Histogram
	cv   *CounterVec
	gv   *GaugeVec
}

// Registry is a named collection of instruments. Lookups are
// get-or-create: the first registration of a name fixes its kind, help
// text, and (for histograms) bucket layout; later lookups return the
// same instrument. A Registry is safe for concurrent use; the zero value
// is not usable — construct one with NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*instrument
	hooks  map[string]func()
	logger atomic.Pointer[slog.Logger]
}

// SetLogger routes the registry's own diagnostics (scrape-hook panics)
// to l. Without one, slog.Default() is used.
func (r *Registry) SetLogger(l *slog.Logger) {
	if l != nil {
		r.logger.Store(l)
	}
}

func (r *Registry) log() *slog.Logger {
	if l := r.logger.Load(); l != nil {
		return l
	}
	return slog.Default()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byName: make(map[string]*instrument),
		hooks:  make(map[string]func()),
	}
}

// OnScrape registers a named hook that runs before every export
// (Snapshot, WritePrometheus, WriteJSON). Hooks let gauges that mirror
// external state — runtime memstats, queue lengths — refresh lazily at
// scrape time instead of polling on a timer. Registering a name that
// already has a hook replaces it; use name-disjoint hooks to compose.
// Hooks must not themselves trigger an export (deadlock-free, but the
// nested export would run with stale hook state).
func (r *Registry) OnScrape(name string, fn func()) {
	r.mu.Lock()
	r.hooks[name] = fn
	r.mu.Unlock()
}

// onScrapeOnce installs fn under name only if no hook with that name
// exists yet, reporting whether it was installed.
func (r *Registry) onScrapeOnce(name string, fn func()) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.hooks[name]; ok {
		return false
	}
	r.hooks[name] = fn
	return true
}

// runScrapeHooks invokes every registered scrape hook outside the lock.
// A panicking hook is recovered, logged, and counted in
// alchemist_obs_scrape_errors_total rather than taking down the scrape
// (or the server thread driving it); the remaining hooks still run.
func (r *Registry) runScrapeHooks() {
	type hook struct {
		name string
		fn   func()
	}
	r.mu.RLock()
	hooks := make([]hook, 0, len(r.hooks))
	for name, fn := range r.hooks {
		hooks = append(hooks, hook{name, fn})
	}
	r.mu.RUnlock()
	for _, h := range hooks {
		r.runHook(h.name, h.fn)
	}
}

func (r *Registry) runHook(name string, fn func()) {
	defer func() {
		if p := recover(); p != nil {
			r.Counter("alchemist_obs_scrape_errors_total",
				"Scrape hooks that panicked (recovered).").Inc()
			r.log().Error("obs: scrape hook panicked",
				"hook", name, "panic", fmt.Sprint(p))
		}
	}()
	fn()
}

// validName enforces the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// lookup returns the instrument registered under name, or registers the
// one built by mk. Kind mismatches and invalid names panic: metric
// registration is programmer-controlled, never data-driven.
func (r *Registry) lookup(name string, mk func() *instrument) *instrument {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.RLock()
	in := r.byName[name]
	r.mu.RUnlock()
	if in != nil {
		return in
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if in := r.byName[name]; in != nil {
		return in
	}
	in = mk()
	r.byName[name] = in
	return in
}

// Counter returns the counter registered under name, creating it with
// the given help text on first use.
func (r *Registry) Counter(name, help string) *Counter {
	in := r.lookup(name, func() *instrument {
		return &instrument{name: name, help: help, c: &Counter{}}
	})
	if in.c == nil {
		panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
	}
	return in.c
}

// Gauge returns the gauge registered under name, creating it with the
// given help text on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	in := r.lookup(name, func() *instrument {
		return &instrument{name: name, help: help, g: &Gauge{}}
	})
	if in.g == nil {
		panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
	}
	return in.g
}

// Histogram returns the histogram registered under name, creating it
// with the given help text and bucket upper bounds on first use (nil
// bounds use DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	in := r.lookup(name, func() *instrument {
		if bounds == nil {
			bounds = DefBuckets
		}
		return &instrument{name: name, help: help, h: newHistogram(bounds)}
	})
	if in.h == nil {
		panic(fmt.Sprintf("obs: metric %q already registered with a different kind", name))
	}
	return in.h
}

// sorted returns the registered instruments in name order.
func (r *Registry) sorted() []*instrument {
	r.mu.RLock()
	out := make([]*instrument, 0, len(r.byName))
	for _, in := range r.byName {
		out = append(out, in)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
