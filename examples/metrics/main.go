// metrics demonstrates the observability subsystem end to end: an
// Engine instrumented into an obs.Registry, per-job progress reporting
// piggybacked on the VM's cancellation check, a /metrics + /metrics.json
// + pprof side listener, and the Prometheus text rendering of the
// collected counters.
//
// Run with: go run ./examples/metrics
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"alchemist"
	"alchemist/internal/obs"
	"alchemist/internal/progs"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// One registry can back several engines (WithRegistry); here one
	// engine owns it and Metrics() hands it out.
	eng := alchemist.NewEngine(alchemist.WithWorkers(2))

	// Serve /metrics, /metrics.json, and /debug/pprof on a side
	// listener; ":0" picks a free port.
	srv, err := obs.StartServer("127.0.0.1:0", eng.Metrics())
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("serving %s/metrics\n\n", srv.URL())

	w := progs.AES()
	prog, err := eng.Compile(ctx, "aes.mc", w.Source)
	if err != nil {
		log.Fatal(err)
	}

	// Profile three input scales concurrently, streaming per-job
	// progress into an obs.Progress aggregate. Reports arrive every
	// vm.CancelCheckInterval steps plus once on completion.
	var progress obs.Progress
	scales := []int{512, 768, 1024}
	jobs := make([]alchemist.ProfileJob, len(scales))
	for i, scale := range scales {
		jobs[i] = alchemist.ProfileJob{
			Input: w.InputFor(scale),
			Config: &alchemist.ProfileConfig{
				RunConfig: alchemist.RunConfig{
					MemWords:   w.MemWords,
					OnProgress: func(steps int64) { progress.Update(i, steps) },
				},
			},
		}
	}
	merged, _, err := eng.ProfileBatch(ctx, prog, jobs)
	if err != nil {
		log.Fatal(err)
	}
	for _, jp := range progress.Snapshot() {
		fmt.Printf("job %d: %d steps in %d reports (total)\n", jp.Job, jp.Steps, progress.Updates())
	}
	fmt.Printf("profiled %d constructs across %d inputs\n\n", len(merged.Constructs), len(jobs))

	// The endpoint serves what the engine recorded; show the VM and
	// cache counters a scrape would collect.
	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== /metrics (excerpt) ===")
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "alchemist_vm_") ||
			strings.HasPrefix(line, "alchemist_engine_cache_") ||
			strings.HasPrefix(line, "alchemist_engine_jobs_total") {
			fmt.Println(line)
		}
	}
}
