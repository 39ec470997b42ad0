package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	seed      uint64
	seconds   float64 // measurement window per workload
	trace     bool    // traced run: per-layer metrics instead of end-to-end
	small     bool    // SmallScale inputs (smoke test)
	setupReps int     // minimum set-up repetitions; setup_s is their median
	setupSecs float64 // keep setting up until this much set-up time is measured
	tmpDir    string  // parent of the service workload's journal directories
	gold      golden
	update    bool // record observed hashes into gold instead of checking
}

// runner collects the measurements of one workload run.
type runner struct {
	cfg   config
	name  string
	spans *spanRecorder // nil when untraced

	setupS []float64
	stages []string             // stage names in first-measured order
	lat    map[string][]float64 // wall seconds per stage
	opLat  []float64            // wall seconds per whole operation
	busy   float64              // seconds of operations (sequential) or window (concurrent)
	ops    int
	mem    memDelta

	attempted, failed int
	errs              []string

	metrics map[string]float64
}

func newRunner(name string, cfg config) *runner {
	r := &runner{cfg: cfg, name: name, lat: map[string][]float64{}, metrics: map[string]float64{}}
	if cfg.trace {
		r.spans = &spanRecorder{}
	}
	return r
}

// memDelta accumulates runtime.MemStats differences over timed regions.
type memDelta struct {
	bytes, mallocs, gcs, pauseNs uint64
}

func (m *memDelta) add(a, b *runtime.MemStats) {
	m.bytes += b.TotalAlloc - a.TotalAlloc
	m.mallocs += b.Mallocs - a.Mallocs
	m.gcs += uint64(b.NumGC - a.NumGC)
	m.pauseNs += b.PauseTotalNs - a.PauseTotalNs
}

// timeSetup times one set-up repetition.
func (r *runner) timeSetup(fn func() error) error {
	runtime.GC()
	t0 := time.Now()
	err := fn()
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	return err
}

// moreSetup reports whether to set up once more: at least setupReps times,
// then until setupSecs of set-up has been measured, at most 15 times.
// Short set-ups repeat more, so their median stays steady.
func (r *runner) moreSetup() bool {
	var total float64
	for _, s := range r.setupS {
		total += s
	}
	n := len(r.setupS)
	return n < r.cfg.setupReps || (total < r.cfg.setupSecs && n < 15)
}

// op runs one sequential operation, which records its own stages. The
// forced GC first keeps one operation's garbage off the next one's clock.
func (r *runner) op(fn func() error) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	r.mem.add(&m0, &m1)
	r.busy += d.Seconds()
	r.ops++
	r.opLat = append(r.opLat, d.Seconds())
	return err
}

// record adds one latency of a stage: a timed part of an operation, such
// as one program's profiled run, or a whole service job.
func (r *runner) record(name string, d time.Duration) {
	if _, ok := r.lat[name]; !ok {
		r.stages = append(r.stages, name)
	}
	r.lat[name] = append(r.lat[name], d.Seconds())
}

// stage runs fn as one stage of an operation and returns its wall time; a
// traced run also records it as a span.
func stage(spans *spanRecorder, name string, op, parent int, fn func() error) (time.Duration, error) {
	sp := spans.start(name, op, parent)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	spans.end(sp)
	return d, err
}

// check counts one checked outcome; a non-nil err is a failure.
func (r *runner) check(item string, err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", item, err))
	}
}

// endToEnd derives the end-to-end metrics from the recorded operations.
// suite_s sums the median run of each stage of each item: the time of one
// typical pass over the workload. A median, unlike the fastest run, keeps
// queueing and contention in the number and does not drift with the
// sample count, which a faster commit raises within the fixed window; the
// document keeps each stage's quantiles.
func (r *runner) endToEnd() {
	var suite float64
	for _, st := range r.stages {
		suite += quantile(sorted(r.lat[st]), 0.5)
	}
	ops := float64(max(r.ops, 1))
	m := r.metrics
	m["setup_s"] = quantile(sorted(r.setupS), 0.5)
	m["suite_s"] = suite
	m["alloc_mb_per_op"] = float64(r.mem.bytes) / ops / 1e6
	m["mallocs_per_op"] = float64(r.mem.mallocs) / ops
	m["runtime.gc_cycles_per_op"] = float64(r.mem.gcs) / ops
	m["runtime.gc_pause_ms_per_op"] = float64(r.mem.pauseNs) / 1e6 / ops
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the closest ranks of sorted s.
func quantile(s []float64, q float64) float64 {
	switch len(s) {
	case 0:
		return math.NaN()
	case 1:
		return s[0]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

// deadline reports whether a measurement loop that started at start
// should stop: after at least one complete pass, once the window is over.
func (r *runner) deadline(start time.Time, passes int) bool {
	return passes > 0 && time.Since(start).Seconds() >= r.cfg.seconds
}
