package obs

import (
	"sort"
	"sync"
)

// JobProgress is one job's progress snapshot.
type JobProgress struct {
	// Job is the caller-chosen job index.
	Job int `json:"job"`
	// Steps is the latest reported step count.
	Steps int64 `json:"steps"`
	// Done marks a job whose final report has been delivered.
	Done bool `json:"done"`
}

// Progress aggregates per-job step reports from long-running work — the
// natural sink for the RunConfig.OnProgress callbacks of Engine batch
// jobs. It is safe for concurrent use; the zero value is ready to use.
type Progress struct {
	mu      sync.Mutex
	jobs    map[int]*JobProgress
	next    int
	updates int64
}

// AllocJob reserves a fresh job index and registers it at zero steps, so
// independent reporters can share one Progress without coordinating ids.
// Indices chosen explicitly via Update/MarkDone are skipped over.
func (p *Progress) AllocJob() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.jobs == nil {
		p.jobs = make(map[int]*JobProgress)
	}
	for {
		if _, taken := p.jobs[p.next]; !taken {
			break
		}
		p.next++
	}
	id := p.next
	p.next++
	p.jobs[id] = &JobProgress{Job: id}
	return id
}

// Update records the latest step count for a job. Reports are expected
// to be monotonic per job; a stale (smaller) report is ignored so
// late-arriving updates cannot rewind the view.
func (p *Progress) Update(job int, steps int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.jobs == nil {
		p.jobs = make(map[int]*JobProgress)
	}
	jp := p.jobs[job]
	if jp == nil {
		jp = &JobProgress{Job: job}
		p.jobs[job] = jp
	}
	if steps > jp.Steps {
		jp.Steps = steps
	}
	p.updates++
}

// MarkDone records that a job delivered its final report.
func (p *Progress) MarkDone(job int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.jobs == nil {
		p.jobs = make(map[int]*JobProgress)
	}
	jp := p.jobs[job]
	if jp == nil {
		jp = &JobProgress{Job: job}
		p.jobs[job] = jp
	}
	jp.Done = true
}

// Snapshot returns the per-job progress sorted by job index.
func (p *Progress) Snapshot() []JobProgress {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	out := make([]JobProgress, 0, len(p.jobs))
	for _, jp := range p.jobs {
		out = append(out, *jp)
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Job < out[j].Job })
	return out
}

// TotalSteps sums the latest step reports across all jobs.
func (p *Progress) TotalSteps() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var sum int64
	for _, jp := range p.jobs {
		sum += jp.Steps
	}
	return sum
}

// Updates returns the number of Update calls observed.
func (p *Progress) Updates() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.updates
}
