// Command benchmark measures the alchemist profiler and job service on four
// fixed workloads and checks every output it measures.
//
// Run it from the repository root through benchmark/run.sh, which builds
// this package with a build cache inside the checkout:
//
//	bash benchmark/run.sh --workload paper-suite --seed 1 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
// BENCHMARK.json at the repository root names both sets. The last line of
// standard output is one JSON object per workload run:
// {"correct", "attempted", "failed", "metrics"}. -compare judges two sets
// of result documents written with -o.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output of a workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// latencyStat summarizes operation latencies.
type latencyStat struct {
	N     int     `json:"n"`
	MinMS float64 `json:"min_ms"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
	// SamplesMS holds every latency in measurement order when there are
	// at most maxSamples.
	SamplesMS []float64 `json:"samples_ms,omitempty"`
}

const maxSamples = 200

func summarize(seconds []float64) latencyStat {
	s := sorted(seconds)
	st := latencyStat{
		N: len(s), MinMS: s[0] * 1000, P50MS: quantile(s, 0.5) * 1000,
		P90MS: quantile(s, 0.9) * 1000, P99MS: quantile(s, 0.99) * 1000,
	}
	if len(seconds) <= maxSamples {
		for _, v := range seconds {
			st.SamplesMS = append(st.SamplesMS, v*1000)
		}
	}
	return st
}

// workloadDoc is one workload's entry in a result document.
type workloadDoc struct {
	resultLine
	Errors      []string               `json:"errors,omitempty"`
	NotMeasured []string               `json:"not_measured,omitempty"`
	SetupS      []float64              `json:"setup_s_samples"`
	OpsPerS     float64                `json:"ops_per_s"`
	Ops         latencyStat            `json:"ops"`
	Stages      map[string]latencyStat `json:"stages"`
	Spans       []spanStat             `json:"spans,omitempty"`
}

// envDoc records where and how a result document was measured.
type envDoc struct {
	Go         string  `json:"go"`
	OS         string  `json:"os"`
	Arch       string  `json:"arch"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	Modified   bool    `json:"modified"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Date       string  `json:"date"`
}

// resultDoc is what -o writes and -compare reads.
type resultDoc struct {
	Env       envDoc                  `json:"env"`
	Workloads map[string]*workloadDoc `json:"workloads"`
}

func environment(cfg config) envDoc {
	e := envDoc{
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: "unknown",
		Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Date: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				e.Modified = s.Value == "true"
			}
		}
	}
	return e
}

// report builds the workload's result from its runner: the end-to-end
// metrics, or in a traced run the per-layer ones. Per-layer metrics of a
// layer the workload does not exercise read 0 and are listed as not
// measured.
func (r *runner) report(spec *benchSpec) (*workloadDoc, error) {
	metrics := spec.EndToEnd
	if r.cfg.trace {
		metrics = spec.PerLayer
	}
	d := &workloadDoc{
		resultLine: resultLine{
			Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
			Metrics: map[string]metricValue{},
		},
		Errors: r.errs, SetupS: r.setupS, OpsPerS: float64(r.ops) / r.busy,
		Stages: map[string]latencyStat{}, Spans: r.spans.summary(),
	}
	for _, m := range metrics {
		v, ok := r.metrics[m.Name]
		if !ok && !r.cfg.trace {
			return nil, fmt.Errorf("%s: metric %s was not computed", r.name, m.Name)
		}
		if !ok {
			d.NotMeasured = append(d.NotMeasured, m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", r.name, m.Name, v)
		}
		d.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for _, st := range r.stages {
		d.Stages[st] = summarize(r.lat[st])
	}
	if len(r.opLat) > 0 {
		d.Ops = summarize(r.opLat)
	}
	return d, nil
}

// Paths relative to the repository root, where the benchmark runs.
const (
	goldenPath = "benchmark/golden.json"
	tmpDir     = ".bench_build/tmp" // the service workload's journals
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 0, "measurement window per workload, in seconds; must equal run_seconds in BENCHMARK.json")
	trace := fs.Int("trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	out := fs.String("o", "", "write the full result document to this file")
	cmp := fs.String("compare", "", "compare result documents: -compare A.json B.json")
	update := fs.Bool("update-golden", false, "record this run's profile hashes and targets in benchmark/golden.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if *cmp != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two files: -compare A.json B.json")
			return 2
		}
		if err := compare(*cmp, fs.Arg(0), spec, stdout); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	// The window is fixed in BENCHMARK.json, so that every result document
	// of a commit measures the same length of time; the flag only confirms
	// it.
	if *seconds != 0 && *seconds != spec.RunSeconds {
		fmt.Fprintf(stderr, "benchmark: --seconds %d differs from run_seconds %d in BENCHMARK.json\n", *seconds, spec.RunSeconds)
		return 2
	}
	gold, err := loadGolden(goldenPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	cfg := config{
		seed: *seed, seconds: float64(spec.RunSeconds), trace: *trace == 1, setupReps: 5, setupSecs: 2,
		tmpDir: tmpDir, gold: gold, update: *update,
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}

	doc := resultDoc{Env: environment(cfg), Workloads: map[string]*workloadDoc{}}
	var lines [][]byte
	correct := true
	for _, w := range selected {
		fmt.Fprintf(stderr, "benchmark: %s (seed %d, %gs, trace %v)\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
		r := newRunner(w.name, cfg)
		err := w.run(r)
		var wd *workloadDoc
		if err == nil {
			wd, err = r.report(spec)
		}
		if err == nil && r.attempted == 0 {
			err = errors.New("no operation was attempted")
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		for _, e := range wd.Errors {
			fmt.Fprintf(stderr, "benchmark: %s: check failed: %s\n", w.name, e)
		}
		correct = correct && wd.Correct
		doc.Workloads[w.name] = wd
		metrics := spec.EndToEnd
		if cfg.trace {
			metrics = spec.PerLayer
		}
		for _, m := range metrics {
			fmt.Fprintf(stdout, "%-16s %-30s %16.6f %s\n", w.name, m.Name, wd.Metrics[m.Name].Value, m.Unit)
		}
		line, err := json.Marshal(wd.resultLine)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		lines = append(lines, line)
	}
	if *update {
		if err := gold.write(goldenPath); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	for _, l := range lines {
		fmt.Fprintf(stdout, "%s\n", l)
	}
	if !correct {
		return 1
	}
	return 0
}
