package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"
	"weak"

	"alchemist"
	"alchemist/internal/api"
)

// referenceSweep is the retirement rule of the store's single full
// pass, which every put once ran: walking the store in creation order, a
// job goes when it expired or, while the store is still over max, when
// it has finished, and every retirement shrinks the overflow. It returns
// the jobs kept and the IDs retired, in order.
func referenceSweep(order []*job, max int, ttl time.Duration, now time.Time) (kept []*job, retired []string) {
	overflow := len(order) - max
	for _, j := range order {
		evict := j.expired(now, ttl)
		if !evict && overflow > 0 && j.isTerminal() {
			evict = true
		}
		if evict {
			if overflow > 0 {
				overflow--
			}
			retired = append(retired, j.id)
			continue
		}
		kept = append(kept, j)
	}
	return kept, retired
}

func jobIDs(jobs []*job) []string {
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.id
	}
	return ids
}

// TestJobStoreRetiresLikeReferenceSweep puts random finished, running
// and queued jobs into a store of capacity 5, finishing unfinished ones
// as it goes, with a TTL no job reaches. After every put the stored jobs,
// their order and the idempotency index equal the reference pass's, and
// the journal's retired records, read back at the end, are the
// reference's retirements in order. Every few puts a sweep with some
// jobs expired retires every expired job and no job the reference pass
// would have kept.
func TestJobStoreRetiresLikeReferenceSweep(t *testing.T) {
	const max = 5
	wal, _ := openWAL(t, t.TempDir())
	sm := newServerMetrics(alchemist.NewEngine().Metrics())
	store := newJobStore(time.Hour, max, sm, wal)
	wal.store = store
	rng := rand.New(rand.NewSource(26))

	var model []*job      // the reference's stored jobs, in order
	var want []string     // the reference's retirements, in order
	var unfinished []*job // queued or running jobs, at most 8
	finishOne := func() {
		k := rng.Intn(len(unfinished))
		j := unfinished[k]
		unfinished = slices.Delete(unfinished, k, k+1)
		if j.state == api.JobQueued {
			j.setRunning()
		}
		j.finish(nil, nil)
	}
	check := func(step int) {
		t.Helper()
		if got, wantIDs := jobIDs(store.order), jobIDs(model); !slices.Equal(got, wantIDs) {
			t.Fatalf("step %d: store order %v, reference %v", step, got, wantIDs)
		}
		if len(store.jobs) != len(model) {
			t.Fatalf("step %d: %d jobs indexed, %d stored", step, len(store.jobs), len(model))
		}
		keys := 0
		for _, j := range model {
			if store.jobs[j.id] != j {
				t.Fatalf("step %d: job %s stored but not indexed", step, j.id)
			}
			if j.idemKey != "" {
				keys++
				if store.byIdem[j.idemKey] != j {
					t.Fatalf("step %d: key %s does not find its job", step, j.idemKey)
				}
			}
		}
		if len(store.byIdem) != keys {
			t.Fatalf("step %d: %d idempotency keys indexed, %d stored jobs have one", step, len(store.byIdem), keys)
		}
		if got := sm.jobsRetired.Value(); got != int64(len(want)) {
			t.Fatalf("step %d: %d retirements counted, reference %d", step, got, len(want))
		}
	}

	for step := 0; step < 3000; step++ {
		for len(unfinished) > 0 && (len(unfinished) == 8 || rng.Intn(3) == 0) {
			finishOne()
		}
		key := ""
		if rng.Intn(2) == 0 {
			key = fmt.Sprintf("key-%d", step)
		}
		j := newJob("run", nil, key, nil)
		switch rng.Intn(3) {
		case 0:
			j.setRunning()
			j.finish(nil, nil)
		case 1:
			j.setRunning()
			unfinished = append(unfinished, j)
		default:
			unfinished = append(unfinished, j)
		}
		var retired []string
		model, retired = referenceSweep(append(model, j), max, store.ttl, time.Now())
		want = append(want, retired...)
		if rng.Intn(2) == 0 {
			store.put(j)
		} else if winner := store.putOrIdem(j); winner != j {
			t.Fatalf("step %d: a fresh key found job %s", step, winner.id)
		}
		check(step)

		if step%97 != 96 {
			continue
		}
		// Expire some finished jobs and sweep.
		now := time.Now()
		expired := make(map[string]bool)
		for _, j := range store.order {
			j.mu.Lock()
			if j.state.Terminal() && rng.Intn(3) == 0 {
				j.finished = now.Add(-2 * store.ttl)
				expired[j.id] = true
			}
			j.mu.Unlock()
		}
		_, fullPass := referenceSweep(store.order, max, store.ttl, now)
		before := jobIDs(store.order)
		store.sweep(now)
		after := jobIDs(store.order)
		var trimmed []string // journaled after every expired job
		for _, id := range before {
			gone := !slices.Contains(after, id)
			switch {
			case expired[id] && !gone:
				t.Fatalf("step %d: sweep kept expired job %s", step, id)
			case gone && !slices.Contains(fullPass, id):
				t.Fatalf("step %d: sweep retired %s, which the reference pass keeps", step, id)
			case expired[id]:
				want = append(want, id)
			case gone:
				trimmed = append(trimmed, id)
			}
		}
		want = append(want, trimmed...)
		if len(after) > max && slices.ContainsFunc(store.order, (*job).isTerminal) {
			t.Fatalf("step %d: %d jobs stored over capacity %d with finished ones among them", step, len(after), max)
		}
		model = slices.Clone(store.order)
		check(step)
	}

	if err := wal.close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, raw := range readJournal(t, wal.jn.Dir()) {
		var r walRecord
		if err := json.Unmarshal(raw, &r); err != nil {
			t.Fatal(err)
		}
		if r.Type != recRetired {
			t.Fatalf("journal holds a %q record; only the store journals here", r.Type)
		}
		got = append(got, r.ID)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("journal retired %d jobs, reference %d, or in another order", len(got), len(want))
	}
	t.Logf("%d retirements", len(want))
}

// TestJobStorePutSkipsStoredJobs: a put under capacity takes no stored
// job's lock, so a job held locked cannot stall a submission.
func TestJobStorePutSkipsStoredJobs(t *testing.T) {
	store := newJobStore(time.Hour, 8, newServerMetrics(alchemist.NewEngine().Metrics()), nil)
	held := newJob("run", nil, "", nil)
	held.setRunning()
	held.finish(nil, nil)
	store.put(held)
	held.mu.Lock()
	defer held.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		store.put(newJob("run", nil, "", nil))
		store.putOrIdem(newJob("run", nil, "key", nil))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a put under capacity waited on a stored job's lock")
	}
}

// TestJobStoreRetiredJobsAreCollectable: neither a put's trim nor a
// sweep leaves a retired job reachable from the store.
func TestJobStoreRetiredJobsAreCollectable(t *testing.T) {
	store := newJobStore(time.Hour, 4, newServerMetrics(alchemist.NewEngine().Metrics()), nil)
	var retired []weak.Pointer[job]
	put := func(n int) {
		for i := 0; i < n; i++ {
			j := newJob("run", nil, fmt.Sprintf("key-%d", len(retired)), nil)
			j.setRunning()
			j.finish(nil, nil)
			store.put(j)
			retired = append(retired, weak.Make(j))
		}
	}
	put(8) // the trims retire the first 4
	for _, j := range store.order {
		j.mu.Lock()
		j.finished = time.Now().Add(-2 * time.Hour)
		j.mu.Unlock()
	}
	store.sweep(time.Now()) // retires the other 4
	put(2)
	runtime.GC()
	for i, wp := range retired[:8] {
		if wp.Value() != nil {
			t.Fatalf("retired job %d is still reachable", i)
		}
	}
	if len(store.order) != 2 {
		t.Fatalf("%d jobs stored, want 2", len(store.order))
	}
}

// TestRecoveryRetiresExpiredJobs: a job whose TTL ran out while the
// server was down is retired as the next server starts, before any
// janitor pass.
func TestRecoveryRetiresExpiredJobs(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurableServer(t, dir, nil)
	id := submitJob(t, ts1.URL, fmt.Sprintf(`{"kind":"run","source":%q}`, tinySrc), nil)
	if st := waitState(t, ts1.URL, id); st.State != api.JobSucceeded {
		t.Fatalf("job = %s (%s), want succeeded", st.State, st.Error)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	s2, ts2 := newDurableServer(t, dir, func(o *Options) { o.JobTTL = 10 * time.Millisecond })
	defer func() { ts2.Close(); s2.Close() }()
	if rec := s2.Recovery(); rec.Jobs != 1 {
		t.Fatalf("recovery = %+v, want the finished job", rec)
	}
	if resp, body := doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+id, ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expired job after restart = %d: %s", resp.StatusCode, body)
	}
}

// referenceJobList is the job-list loop that built a status for every
// job up to the page, filtered it, and checked it against the cursor.
func referenceJobList(store *jobStore, filter api.JobState, limit int, tok string) api.JobList {
	var afterNS int64
	var afterID string
	hasCursor := tok != ""
	if hasCursor {
		afterNS, afterID, _ = decodeCursor(tok)
	}
	out := api.JobList{Jobs: make([]api.JobStatus, 0, limit)}
	for _, j := range store.list() {
		st := j.status(false)
		if filter != "" && st.State != filter {
			continue
		}
		if hasCursor {
			ns := st.CreatedAt.UnixNano()
			if ns < afterNS || (ns == afterNS && st.ID <= afterID) {
				continue
			}
		}
		if len(out.Jobs) == limit {
			out.NextPageToken = encodeCursor(out.Jobs[limit-1])
			break
		}
		out.Jobs = append(out.Jobs, st)
	}
	return out
}

// TestJobListPageCostsOnlyThePage: over a store of 20,000 finished jobs,
// every page of a walk, unfiltered and filtered, is byte for byte the
// reference loop's page, and the last page of 100 jobs allocates at most
// twice what the first does. The reference loop built a status for every
// job before the page: its last page cost about a hundred times its
// first.
func TestJobListPageCostsOnlyThePage(t *testing.T) {
	const n = 20000
	store := finishedStore(t, n)
	s := &Server{adm: newAdmission(Options{}), store: store}
	get := func(query string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		s.handleJobList(rr, httptest.NewRequest(http.MethodGet, "/v1/jobs"+query, nil))
		return rr
	}
	check := func(filter api.JobState, limit int, tok string) api.JobList {
		t.Helper()
		q := fmt.Sprintf("?limit=%d", limit)
		if filter != "" {
			q += "&state=" + string(filter)
		}
		if tok != "" {
			q += "&page_token=" + tok
		}
		got := get(q)
		ref := referenceJobList(store, filter, limit, tok)
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, ref)
		if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("list%s: %d, %d bytes; reference %d bytes", q, got.Code, got.Body.Len(), want.Body.Len())
		}
		return ref
	}
	for _, c := range []struct {
		filter api.JobState
		pages  int
	}{{"", n / maxListLimit}, {api.JobSucceeded, n / maxListLimit}, {api.JobFailed, 1}} {
		tok := ""
		pages := 0
		for {
			page := check(c.filter, maxListLimit, tok)
			pages++
			if tok = page.NextPageToken; tok == "" {
				break
			}
		}
		if pages != c.pages {
			t.Errorf("state %q: %d pages, want %d", c.filter, pages, c.pages)
		}
	}

	const limit = 100
	jobs := store.list()
	last := encodeCursor(jobs[n-limit-1].status(false))
	if page := check("", limit, last); len(page.Jobs) != limit || page.NextPageToken != "" {
		t.Fatalf("last page: %d jobs, next token %q", len(page.Jobs), page.NextPageToken)
	}
	check("", limit, "")
	first := testing.AllocsPerRun(3, func() { get(fmt.Sprintf("?limit=%d", limit)) })
	lastAllocs := testing.AllocsPerRun(3, func() { get(fmt.Sprintf("?limit=%d&page_token=%s", limit, last)) })
	t.Logf("page of %d jobs: first %.0f allocations, last %.0f", limit, first, lastAllocs)
	if lastAllocs > 2*first {
		t.Errorf("last page of %d jobs: %.0f allocations, first page %.0f", limit, lastAllocs, first)
	}
}
