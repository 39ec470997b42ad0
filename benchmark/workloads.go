package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"alchemist"
	"alchemist/client"
	"alchemist/internal/progs"
	"alchemist/internal/report"
	"alchemist/internal/server"
)

// workload is one input set of the benchmark. run returns an error only
// when the workload cannot be measured at all; failed operations and
// checks are counted in the runner.
type workload struct {
	name string
	run  func(r *runner) error
}

var workloads = []workload{
	{"paper-suite", paperSuite},
	{"construct-dense", constructDense},
	{"batch-merge", batchMerge},
	{"service-jobs", serviceJobs},
}

// ---------- sequential suites: paper-suite, construct-dense ----------

// seqItem is one program of a sequential suite.
type seqItem struct {
	name     string
	src      string
	input    []int64
	memWords int64
	key      string  // golden hash key
	want     []int64 // expected out() values, when the benchmark can compute them
	paper    bool    // check the paper-facing targets
	noMemory bool    // compute-only: the profile must see no loads or stores
}

// paperSuite is the paper's Table III traffic: every embedded workload at
// its paper scale, one `alchemist profile`-like operation each.
func paperSuite(r *runner) error {
	var items []seqItem
	warm := 0
	for i, w := range progs.All() {
		scale := 0
		if r.cfg.small {
			scale = w.SmallScale
		}
		if w.Name == "gzip" {
			warm = i
		}
		items = append(items, seqItem{
			name: w.Name, src: w.Source, input: w.InputFor(scale), memWords: w.MemWords,
			key: "paper-suite/" + w.Name, paper: true,
		})
	}
	return runSequential(r, items, warm)
}

// denseShapes are the trip counts, outermost first, of the generated
// construct-dense programs: 2 to 4 deep, 20k to 100k inner iterations.
var denseShapes = [][]int{{40, 500}, {5, 8, 1000}, {3, 4, 5, 250}, {4, 15, 1000}, {5, 5, 4, 1000}}

// serviceShapes are the trip counts of the service-jobs programs, 1000
// inner iterations each; program i uses serviceShapes[i%3].
var serviceShapes = [][]int{{10, 100}, {5, 4, 50}, {2, 5, 4, 25}}

// scaled divides the innermost trip count by div, for the smoke test.
func scaled(trips []int, div int) []int {
	t := slices.Clone(trips)
	t[len(t)-1] = max(t[len(t)-1]/div, 1)
	return t
}

// constructDense runs generated compute-only programs: construct tracking
// and per-instruction tracing do all the profiler work, shadow memory and
// the dependence walk none.
func constructDense(r *runner) error {
	rnd := newRNG(r.cfg.seed, 2)
	m := microLoop()
	items := []seqItem{{name: m.name, src: m.src, key: "construct-dense/micro", want: m.want, noMemory: true}}
	for i, trips := range denseShapes {
		if r.cfg.small {
			trips = scaled(trips, 20)
		}
		g := genNest(rnd, fmt.Sprintf("dense%d", i+1), trips, false)
		items = append(items, seqItem{
			name: g.name, src: g.src, input: g.input,
			key:  fmt.Sprintf("construct-dense/%d/%s", r.cfg.seed, g.name),
			want: g.want, noMemory: true,
		})
	}
	return runSequential(r, items, 0)
}

// seqStages names the stages of a sequential operation.
var seqStages = [3]string{"NewEngine+Compile", "Engine.Run", "Engine.Profile"}

// seqOut is what one sequential operation produced.
type seqOut struct {
	eng          *alchemist.Engine
	native, pres *alchemist.RunResult
	prof         *alchemist.Profile
	times        [len(seqStages)]time.Duration
}

// seqOp is one `alchemist profile` invocation: a fresh single-worker
// engine and a compile, the uninstrumented run, then the profiled run.
func seqOp(ctx context.Context, it seqItem, spans *spanRecorder, op, parent int) (o seqOut, err error) {
	var prog *alchemist.Program
	rc := alchemist.RunConfig{Input: it.input, MemWords: it.memWords}
	stages := [len(seqStages)]func() error{
		func() (err error) {
			o.eng = alchemist.NewEngine(alchemist.WithWorkers(1))
			prog, err = o.eng.Compile(ctx, it.name+".mc", it.src)
			return err
		},
		func() (err error) { o.native, err = o.eng.Run(ctx, prog, rc); return err },
		func() (err error) {
			o.prof, o.pres, err = o.eng.Profile(ctx, prog, alchemist.ProfileConfig{RunConfig: rc})
			return err
		},
	}
	for i, fn := range stages {
		if o.times[i], err = stage(spans, seqStages[i], op, parent, fn); err != nil {
			return o, err
		}
	}
	return o, nil
}

func (r *runner) checkSeq(it seqItem, o seqOut) error {
	if !slices.Equal(o.native.Output, o.pres.Output) || o.native.Ret != o.pres.Ret || o.native.Steps != o.pres.Steps {
		return errors.New("profiled run diverged from the native run")
	}
	if it.want != nil && !slices.Equal(o.native.Output, it.want) {
		return fmt.Errorf("output %v, want %v", o.native.Output, it.want)
	}
	if it.noMemory && (o.prof.Shadow.Loads != 0 || o.prof.Shadow.Stores != 0) {
		return fmt.Errorf("compute-only program made %d loads and %d stores", o.prof.Shadow.Loads, o.prof.Shadow.Stores)
	}
	if it.paper {
		if err := r.cfg.checkTargets(it.name, o.prof); err != nil {
			return err
		}
	}
	enc, err := profileJSON(o.prof)
	if err != nil {
		return err
	}
	return r.cfg.checkHash(it.key, enc)
}

func runSequential(r *runner, items []seqItem, warm int) error {
	ctx := context.Background()
	for r.moreSetup() {
		err := r.timeSetup(func() error {
			eng := alchemist.NewEngine(alchemist.WithWorkers(1))
			for _, it := range items {
				if _, err := eng.Compile(ctx, it.name+".mc", it.src); err != nil {
					return err
				}
			}
			_, err := seqOp(ctx, items[warm], nil, -1, -1)
			return err
		})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	if r.cfg.trace {
		var li []layerItem
		for i, it := range items {
			li = append(li, layerItem{name: it.name, src: it.src, input: it.input, memWords: it.memWords, group: i})
		}
		r.decompose(li)
	}

	rnd := newRNG(r.cfg.seed, 1)
	var eng engineStats
	start := time.Now()
	for pass := 0; !r.deadline(start, pass); pass++ {
		for _, i := range rnd.perm(len(items)) {
			it := items[i]
			var out seqOut
			op := r.ops
			sp := r.spans.start("op "+it.name, op, -1)
			err := r.op(func() (err error) {
				out, err = seqOp(ctx, it, r.spans, op, sp)
				return err
			})
			r.spans.end(sp)
			if err == nil {
				for i, d := range out.times {
					r.record(it.name+" "+seqStages[i], d)
				}
				err = r.checkSeq(it, out)
			}
			r.check(it.name, err)
			if r.cfg.trace && out.eng != nil {
				eng = eng.plus(readEngine(out.eng))
			}
		}
	}
	r.endToEnd()
	if r.cfg.trace {
		eng.metrics(r.metrics)
	}
	return nil
}

// ---------- engine counters ----------

// engineStats holds the Engine.Metrics() counters the per-layer metrics
// read.
type engineStats struct {
	gets, news, jobs int64
	jobWallS         float64
}

func readEngine(e *alchemist.Engine) engineStats {
	s := e.Metrics().Snapshot()
	h := s.Histograms["alchemist_engine_job_wall_seconds"]
	return engineStats{
		gets: s.Counters["alchemist_engine_scratch_gets_total"],
		news: s.Counters["alchemist_engine_scratch_news_total"],
		jobs: h.Count, jobWallS: h.Sum,
	}
}

func (a engineStats) plus(b engineStats) engineStats {
	return engineStats{a.gets + b.gets, a.news + b.news, a.jobs + b.jobs, a.jobWallS + b.jobWallS}
}

func (a engineStats) minus(b engineStats) engineStats {
	return engineStats{a.gets - b.gets, a.news - b.news, a.jobs - b.jobs, a.jobWallS - b.jobWallS}
}

func (a engineStats) metrics(m map[string]float64) {
	if a.gets > 0 {
		m["engine.scratch_reuse_ratio"] = 1 - float64(a.news)/float64(a.gets)
	}
	m["engine.job_wall_ms"] = ratio(a.jobWallS*1000, float64(a.jobs))
}

// ---------- batch-merge ----------

type batch struct {
	name string
	w    *progs.Workload
	jobs []alchemist.ProfileJob
}

// batchMerge profiles input suites through one long-lived two-worker
// engine and encodes each merged profile: warm scratch reuse, two jobs at
// once, Merge and JSON encoding on the path.
func batchMerge(r *runner) error {
	ctx := context.Background()
	rnd := newRNG(r.cfg.seed, 3)
	var batches []batch
	for _, w := range []*progs.Workload{progs.Gzip(), progs.Par2()} {
		b := batch{name: w.Name, w: w}
		// Six evenly spaced scales in [SmallScale, DefaultScale); the seed
		// orders them.
		lo, step := w.SmallScale, (w.DefaultScale-w.SmallScale)/6
		if r.cfg.small {
			lo, step = lo/8, step/64
		}
		for _, k := range rnd.perm(6) {
			scale := lo + k*step
			b.jobs = append(b.jobs, alchemist.ProfileJob{
				Input:  w.InputFor(scale),
				Config: &alchemist.ProfileConfig{RunConfig: alchemist.RunConfig{MemWords: w.MemWords}},
			})
		}
		batches = append(batches, b)
	}

	var eng *alchemist.Engine
	compiled := map[string]*alchemist.Program{}
	for r.moreSetup() {
		err := r.timeSetup(func() error {
			eng = alchemist.NewEngine(alchemist.WithWorkers(2))
			for _, b := range batches {
				p, err := eng.Compile(ctx, b.w.Name+".mc", b.w.Source)
				if err != nil {
					return err
				}
				compiled[b.name] = p
			}
			_, _, err := batchOp(ctx, eng, compiled[batches[0].name], batches[0], nil, -1, -1)
			return err
		})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}

	// Reference: each job profiled alone, in order, then merged. Every
	// measured batch must encode to exactly these bytes.
	refs := make([]string, len(batches))
	ref := alchemist.NewEngine(alchemist.WithWorkers(1))
	for i, b := range batches {
		enc, err := sequentialMerge(ctx, ref, b)
		if err == nil {
			err = r.cfg.checkHash(fmt.Sprintf("batch-merge/%d/%s", r.cfg.seed, b.name), enc)
		}
		r.check("reference "+b.name, err)
		refs[i] = hashOf(enc)
	}
	if r.cfg.trace {
		var li []layerItem
		for i, b := range batches {
			for j, job := range b.jobs {
				li = append(li, layerItem{
					name: fmt.Sprintf("%s/%d", b.name, j), src: b.w.Source,
					input: job.Input, memWords: b.w.MemWords, group: i,
				})
			}
		}
		r.decompose(li)
	}

	e0 := readEngine(eng)
	start := time.Now()
	for pass := 0; !r.deadline(start, pass); pass++ {
		for _, i := range rnd.perm(len(batches)) {
			b := batches[i]
			var enc []byte
			var times [len(batchStages)]time.Duration
			op := r.ops
			sp := r.spans.start("op "+b.name, op, -1)
			err := r.op(func() (err error) {
				enc, times, err = batchOp(ctx, eng, compiled[b.name], b, r.spans, op, sp)
				return err
			})
			r.spans.end(sp)
			if err == nil {
				for j, d := range times {
					r.record(b.name+" "+batchStages[j], d)
				}
				if hashOf(enc) != refs[i] {
					err = errors.New("merged batch profile differs from sequential Profile + Merge")
				}
			}
			r.check(b.name, err)
		}
	}
	r.endToEnd()
	if r.cfg.trace {
		readEngine(eng).minus(e0).metrics(r.metrics)
	}
	return nil
}

// batchStages names the stages of a batch operation.
var batchStages = [2]string{"Engine.ProfileBatch", "report.WriteJSON"}

// batchOp profiles one batch and encodes the merged profile.
func batchOp(ctx context.Context, eng *alchemist.Engine, prog *alchemist.Program, b batch, spans *spanRecorder, op, parent int) (enc []byte, times [len(batchStages)]time.Duration, err error) {
	var merged *alchemist.Profile
	times[0], err = stage(spans, batchStages[0], op, parent, func() (err error) {
		merged, _, err = eng.ProfileBatch(ctx, prog, b.jobs)
		return err
	})
	if err != nil {
		return nil, times, err
	}
	var buf bytes.Buffer
	times[1], err = stage(spans, batchStages[1], op, parent, func() error { return alchemist.WriteJSON(&buf, merged) })
	return buf.Bytes(), times, err
}

func sequentialMerge(ctx context.Context, eng *alchemist.Engine, b batch) ([]byte, error) {
	prog, err := eng.Compile(ctx, b.w.Name+".mc", b.w.Source)
	if err != nil {
		return nil, err
	}
	var ps []*alchemist.Profile
	for _, j := range b.jobs {
		cfg := *j.Config
		cfg.Input = j.Input
		p, _, err := eng.Profile(ctx, prog, cfg)
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
	}
	merged, err := alchemist.Merge(ps...)
	if err != nil {
		return nil, err
	}
	return profileJSON(merged)
}

// ---------- service-jobs ----------

// serviceClients is the closed-loop client count: each waits for its job
// before submitting the next, and holds at most one connection.
const serviceClients = 2

// serviceMaxJobs is the server's job store cap. It is far above the jobs
// one window completes (3000 to 5000 in 25 s on 2 vCPUs), so no job is
// retired, and no retirement journaled, while the benchmark measures.
const serviceMaxJobs = 1 << 16

// jobResult is the part of a succeeded profile job's result the checks
// read.
type jobResult struct {
	Profile report.JSONProfile  `json:"profile"`
	Runs    []client.RunSummary `json:"runs"`
}

type jobRec struct {
	spec         int
	lat          time.Duration
	submit, wait time.Duration
	st           *client.JobStatus
	trace        *client.JobTrace
	err          error
}

// service is one in-process server with its journal directory.
type service struct {
	eng     *alchemist.Engine
	srv     *server.Server
	dir     string
	clients []*client.Client
	trs     []*http.Transport
}

func (s *service) stop() {
	if s == nil {
		return
	}
	for _, tr := range s.trs {
		tr.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "service-jobs: shutdown: %v\n", err)
	}
	os.RemoveAll(s.dir)
}

func startService(cfg config) (*service, error) {
	dir, err := os.MkdirTemp(cfg.tmpDir, "jobs-")
	if err != nil {
		return nil, err
	}
	eng := alchemist.NewEngine()
	srv, err := server.New(server.Options{Engine: eng, DataDir: dir, MaxJobs: serviceMaxJobs})
	if err == nil {
		err = srv.Start("127.0.0.1:0")
		if err != nil {
			srv.Close()
		}
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{eng: eng, srv: srv, dir: dir}
	for i := 0; i < serviceClients; i++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		s.trs = append(s.trs, tr)
		s.clients = append(s.clients, client.New(srv.URL(),
			client.WithHTTPClient(&http.Client{Transport: tr}),
			client.WithRandSeed(int64(cfg.seed)+int64(i))))
	}
	return s, nil
}

// serviceJobs drives an in-process server, journal on, with two
// closed-loop SDK clients submitting small profile jobs.
func serviceJobs(r *runner) error {
	ctx := context.Background()
	rnd := newRNG(r.cfg.seed, 4)
	specs := make([]genProgram, 16)
	reqs := make([]client.JobRequest, len(specs))
	for i := range specs {
		trips := serviceShapes[i%len(serviceShapes)]
		if r.cfg.small {
			trips = scaled(trips, 5)
		}
		specs[i] = genNest(rnd, fmt.Sprintf("svc%d", i), trips, true)
		reqs[i] = client.JobRequest{Kind: "profile", SourceSpec: client.SourceSpec{
			Name: specs[i].name + ".mc", Source: specs[i].src, Inputs: [][]int64{specs[i].input},
		}}
	}

	var svc *service
	defer func() { svc.stop() }()
	for r.moreSetup() {
		svc.stop()
		svc = nil
		err := r.timeSetup(func() error {
			var err error
			if svc, err = startService(r.cfg); err != nil {
				return err
			}
			st, err := svc.clients[0].SubmitAndWait(ctx, reqs[0])
			if err == nil && st.State != client.JobSucceeded {
				err = fmt.Errorf("warm-up job %s: %s", st.State, st.Error)
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}

	// Expected results: the same spec profiled locally through a fresh
	// engine.
	want := make([]*report.JSONProfile, len(specs))
	local := alchemist.NewEngine(alchemist.WithWorkers(1))
	for i, sp := range specs {
		prog, err := local.Compile(ctx, sp.name+".mc", sp.src)
		var prof *alchemist.Profile
		var res *alchemist.RunResult
		if err == nil {
			prof, res, err = local.Profile(ctx, prog, alchemist.ProfileConfig{RunConfig: alchemist.RunConfig{Input: sp.input}})
		}
		if err == nil && !slices.Equal(res.Output, sp.want) {
			err = fmt.Errorf("local output %v, want %v", res.Output, sp.want)
		}
		var enc []byte
		if err == nil {
			enc, err = profileJSON(prof)
		}
		if err == nil {
			err = r.cfg.checkHash(fmt.Sprintf("service-jobs/%d/%s", r.cfg.seed, sp.name), enc)
			want[i] = report.ToJSON(prof)
		}
		r.check("reference "+sp.name, err)
	}
	if r.cfg.trace {
		var li []layerItem
		for i, sp := range specs {
			li = append(li, layerItem{name: sp.name, src: sp.src, input: sp.input, group: i})
		}
		r.decompose(li)
	}

	reg := svc.srv.Metrics()
	j0 := reg.Snapshot()
	e0 := readEngine(svc.eng)
	order := rnd.perm(len(specs))
	var next atomic.Int64
	recs := make([][]jobRec, serviceClients)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range svc.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(specs) && time.Since(start).Seconds() >= r.cfg.seconds {
					return
				}
				recs[c] = append(recs[c], r.serviceJob(ctx, svc.clients[c], reqs, order[k%len(order)], k))
			}
		}(c)
	}
	wg.Wait()
	window := time.Since(start)
	runtime.ReadMemStats(&m1)
	r.mem.add(&m0, &m1)
	r.busy = window.Seconds()

	var traces []jobRec
	var submits, waits []float64
	for _, cr := range recs {
		for _, jr := range cr {
			name := specs[jr.spec].name
			r.record(name, jr.lat)
			r.ops++
			r.opLat = append(r.opLat, jr.lat.Seconds())
			err := jr.err
			if err == nil {
				err = checkJob(jr.st, want[jr.spec], specs[jr.spec].want)
			}
			r.check(name, err)
			if jr.trace != nil {
				traces = append(traces, jr)
			}
			submits = append(submits, jr.submit.Seconds()*1000)
			waits = append(waits, jr.wait.Seconds()*1000)
		}
	}
	r.endToEnd()
	if r.cfg.trace {
		readEngine(svc.eng).minus(e0).metrics(r.metrics)
		jobs := float64(r.ops)
		j1 := reg.Snapshot()
		for _, k := range []string{"appends", "append_bytes", "fsyncs"} {
			name := "alchemist_journal_" + k + "_total"
			r.metrics["journal."+k+"_per_job"] = float64(j1.Counters[name]-j0.Counters[name]) / jobs
		}
		r.metrics["client.submit_ms"] = quantile(sorted(submits), 0.5)
		r.metrics["client.wait_ms"] = quantile(sorted(waits), 0.5)
		serverSpans(r.metrics, traces)
	}
	return nil
}

// serviceJob submits one job and waits for its terminal state. The traced
// run splits SubmitAndWait into its two SDK calls and fetches the server's
// span timeline of every tenth job.
func (r *runner) serviceJob(ctx context.Context, c *client.Client, reqs []client.JobRequest, spec, k int) jobRec {
	jr := jobRec{spec: spec}
	t0 := time.Now()
	if !r.cfg.trace {
		jr.st, jr.err = c.SubmitAndWait(ctx, reqs[spec])
		jr.lat = time.Since(t0)
		return jr
	}
	sp := r.spans.start("client.SubmitJob", k, -1)
	jr.st, jr.err = c.SubmitJob(ctx, reqs[spec])
	r.spans.end(sp)
	jr.submit = time.Since(t0)
	if jr.err != nil {
		return jr
	}
	sp = r.spans.start("client.WaitJob", k, -1)
	jr.st, jr.err = c.WaitJob(ctx, jr.st.ID)
	r.spans.end(sp)
	jr.lat = time.Since(t0)
	jr.wait = jr.lat - jr.submit
	if jr.err == nil && k%10 == 0 {
		sp = r.spans.start("client.JobTrace", k, -1)
		jr.trace, jr.err = c.JobTrace(ctx, jr.st.ID)
		r.spans.end(sp)
	}
	return jr
}

func checkJob(st *client.JobStatus, want *report.JSONProfile, out []int64) error {
	if st.State != client.JobSucceeded {
		return fmt.Errorf("job %s: %s", st.State, st.Error)
	}
	var res jobResult
	if err := json.Unmarshal(st.Result, &res); err != nil {
		return fmt.Errorf("decoding job result: %w", err)
	}
	if want == nil || !reflect.DeepEqual(&res.Profile, want) {
		return errors.New("job profile differs from the local Engine.Profile")
	}
	if len(res.Runs) != 1 || !slices.Equal(res.Runs[0].Output, out) {
		return fmt.Errorf("job output %v, want %v", res.Runs, out)
	}
	return nil
}

// serverSpans turns sampled job timelines into per-job medians of each
// server stage, plus the latency no stage accounts for.
func serverSpans(m map[string]float64, traces []jobRec) {
	stages := map[string]string{
		"admit": "server.admit_ms", "queue": "server.queue_ms", "compile": "server.compile_ms",
		"profile": "server.profile_ms", "journal.append": "server.journal_ms", "sse": "server.sse_ms",
	}
	per := map[string][]float64{}
	for _, jr := range traces {
		sums := map[string]float64{}
		var ivs [][2]int64
		for _, sp := range jr.trace.Spans {
			if key, ok := stages[sp.Name]; ok {
				sums[key] += sp.DurationMS
				ivs = append(ivs, [2]int64{sp.Start.UnixNano(), sp.End.UnixNano()})
			}
		}
		for _, key := range stages {
			per[key] = append(per[key], sums[key])
		}
		union := float64(covered(ivs, -1<<62, 1<<62)) / 1e6
		per["server.other_ms"] = append(per["server.other_ms"], jr.lat.Seconds()*1000-union)
	}
	for key, v := range per {
		m[key] = quantile(sorted(v), 0.5)
	}
}
