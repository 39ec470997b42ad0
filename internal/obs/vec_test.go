package obs

import (
	"bytes"
	"fmt"
	"log/slog"
	"strings"
	"testing"
)

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("reqs_total", "requests", []string{"route", "code"})
	cv.With("health", "200").Add(3)
	cv.With("health", "200").Inc()
	cv.With("compile", "500").Inc()
	if got := cv.With("health", "200").Value(); got != 4 {
		t.Fatalf("child value = %d, want 4", got)
	}
	// Same name+labels returns the same vec; snapshot exposes flat keys.
	if r.CounterVec("reqs_total", "requests", []string{"route", "code"}) != cv {
		t.Fatal("re-lookup returned a different vec")
	}
	s := r.Snapshot()
	if s.Counters[`reqs_total{route="health",code="200"}`] != 4 {
		t.Fatalf("snapshot: %+v", s.Counters)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE reqs_total counter",
		`reqs_total{route="compile",code="500"} 1`,
		`reqs_total{route="health",code="200"} 4`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus text missing %q:\n%s", want, text)
		}
	}
}

func TestGaugeVecAndBuildInfo(t *testing.T) {
	r := NewRegistry()
	bi := RegisterBuildInfo(r)
	if bi.GoVersion == "" {
		t.Fatal("build info must carry a Go version")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "alchemist_build_info{") {
		t.Fatalf("missing build info gauge:\n%s", buf.String())
	}
}

func TestVecCardinalityCap(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("capped_total", "", []string{"k"})
	for i := 0; i < MaxLabelCardinality; i++ {
		cv.With(fmt.Sprintf("v%d", i)).Inc()
	}
	// Past the cap, unseen values collapse into one overflow child…
	over1 := cv.With("brand-new")
	over2 := cv.With("also-new")
	if over1 != over2 {
		t.Fatal("overflow children must be shared")
	}
	over1.Inc()
	over2.Inc()
	// …while already-seen values keep their own children.
	if cv.With("v0") == over1 {
		t.Fatal("existing child must not be the overflow child")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("capped_total{k=%q} 2", OverflowLabel)
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("missing overflow series %q:\n%s", want, buf.String())
	}
}

func TestVecMisuse(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("v_total", "", []string{"a"})
	mustPanic(t, "kind mismatch", func() { r.Counter("v_total", "") })
	mustPanic(t, "label mismatch", func() { r.CounterVec("v_total", "", []string{"b"}) })
	mustPanic(t, "arity mismatch", func() { r.CounterVec("v_total", "", []string{"a"}).With("x", "y") })
	mustPanic(t, "no labels", func() { r.GaugeVec("g", "", nil) })
	mustPanic(t, "bad label name", func() { r.GaugeVec("h", "", []string{"bad-label"}) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestVecNilSafety(t *testing.T) {
	var cv *CounterVec
	var gv *GaugeVec
	cv.With("x").Inc()
	gv.With("x").Set(1)
}

func TestExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ex_seconds", "", nil)
	if h.Exemplars() != nil {
		t.Fatal("fresh histogram must have no exemplars")
	}
	h.ObserveExemplar(0.1, "") // no trace: counted, not remembered
	for i := 0; i < maxExemplars+2; i++ {
		h.ObserveExemplar(float64(i), fmt.Sprintf("trace%d", i))
	}
	ex := h.Exemplars()
	if len(ex) != maxExemplars {
		t.Fatalf("ring size %d, want %d", len(ex), maxExemplars)
	}
	if ex[len(ex)-1].TraceID != fmt.Sprintf("trace%d", maxExemplars+1) {
		t.Fatalf("newest exemplar: %+v", ex)
	}
	if h.Count() != int64(maxExemplars+3) {
		t.Fatalf("count %d", h.Count())
	}
	s := r.Snapshot()
	if len(s.Histograms["ex_seconds"].Exemplars) != maxExemplars {
		t.Fatalf("snapshot exemplars: %+v", s.Histograms["ex_seconds"])
	}
	var nilH *Histogram
	nilH.ObserveExemplar(1, "t")
	if nilH.Exemplars() != nil {
		t.Fatal("nil histogram exemplars")
	}
}

func TestScrapeHookPanicRecovered(t *testing.T) {
	r := NewRegistry()
	var logBuf bytes.Buffer
	r.SetLogger(slog.New(slog.NewTextHandler(&logBuf, nil)))
	ran := false
	r.OnScrape("boom", func() { panic("kaboom") })
	r.OnScrape("fine", func() { ran = true })
	s := r.Snapshot() // must not panic
	if !ran {
		t.Fatal("healthy hook skipped after a panicking one")
	}
	if s.Counters["alchemist_obs_scrape_errors_total"] != 1 {
		t.Fatalf("scrape error counter: %+v", s.Counters)
	}
	if !strings.Contains(logBuf.String(), "kaboom") {
		t.Fatalf("panic not logged: %q", logBuf.String())
	}
}
