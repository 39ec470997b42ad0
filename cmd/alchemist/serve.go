package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"alchemist"
	"alchemist/internal/journal"
	"alchemist/internal/server"
)

// cmdServe runs the profiling-as-a-service HTTP front end: one shared
// Engine behind the internal/server API (sync compile/profile/advise/run,
// async jobs with SSE progress streams, /metrics, /healthz). SIGINT or
// SIGTERM starts a graceful drain: in-flight jobs finish (bounded by
// -drain-timeout) while new submissions are refused.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (\":0\" picks a free port)")
	workers := fs.Int("workers", 0, "engine worker pool size (0 = GOMAXPROCS)")
	cacheSize := fs.Int("cache", 0, "compiled-program cache budget (0 = default)")
	queue := fs.Int("queue", 0, "admission queue depth; full queue answers 429 (0 = 4x workers)")
	timeout := fs.Duration("timeout", time.Minute, "default per-job deadline")
	maxTimeout := fs.Duration("max-timeout", 10*time.Minute, "upper bound on request-supplied deadlines")
	jobTTL := fs.Duration("job-ttl", 15*time.Minute, "retire finished async jobs once they finished this long ago (checked every quarter of it, at least a second apart)")
	maxBody := fs.Int64("max-body", 1<<20, "request body size cap in bytes")
	drain := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain window; jobs still running after it are aborted")
	quiet := fs.Bool("quiet", false, "disable per-request access logging")
	logFormat := fs.String("log-format", "text", "access/server log encoding: text or json")
	dataDir := fs.String("data-dir", "", "journal job state under this directory so jobs survive restarts (empty = in-memory only)")
	fsync := fs.String("fsync", "interval", "journal fsync policy: always, interval, or none")
	snapshotEvery := fs.Int64("snapshot-every", 4096, "compact the journal after this many records (negative disables)")
	requeue := fs.Bool("requeue-on-recovery", false, "re-enqueue jobs that were queued or running at crash time instead of marking them interrupted")
	apiKeys := fs.String("api-keys", "", "file of name:key lines; requests must present a listed key via X-Api-Key (empty = open server)")
	rate := fs.Float64("rate", 0, "per-client request rate limit for work-creating endpoints, requests/second (0 = unlimited)")
	clientQuota := fs.Int("client-quota", 0, "per-client cap on concurrent admitted work units; 429 quota_exceeded beyond it (0 = unlimited)")
	shed := fs.Bool("shed", false, "reject jobs on arrival when the estimated queue wait already exceeds their deadline")
	fs.Parse(args)

	syncMode, err := journal.ParseSyncMode(*fsync)
	if err != nil {
		return err
	}
	keys, err := loadAPIKeys(*apiKeys)
	if err != nil {
		return err
	}

	eng := alchemist.NewEngine(
		alchemist.WithWorkers(*workers),
		alchemist.WithCacheSize(*cacheSize),
	)
	var logger *slog.Logger
	if !*quiet {
		switch *logFormat {
		case "text":
			logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
		case "json":
			logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
		default:
			return fmt.Errorf("serve: -log-format must be text or json, got %q", *logFormat)
		}
	}
	srv, err := server.New(server.Options{
		Engine:            eng,
		QueueDepth:        *queue,
		DefaultTimeout:    *timeout,
		MaxTimeout:        *maxTimeout,
		JobTTL:            *jobTTL,
		MaxBodyBytes:      *maxBody,
		Logger:            logger,
		DataDir:           *dataDir,
		Fsync:             syncMode,
		SnapshotEvery:     *snapshotEvery,
		RequeueOnRecovery: *requeue,
		APIKeys:           keys,
		RatePerSec:        *rate,
		ClientQuota:       *clientQuota,
		ShedDeadlines:     *shed,
	})
	if err != nil {
		return err
	}
	if rec := srv.Recovery(); rec.Durable {
		// The recovery line goes to stdout with the listen line: restart
		// scripts (and the CI smoke test) scrape it.
		fmt.Printf("serve: journal recovered %d jobs (%d interrupted, %d requeued, %d torn bytes dropped)\n",
			rec.Jobs, rec.Interrupted, rec.Requeued, rec.TruncatedBytes)
	}
	// Install the signal handler before announcing the address: a script
	// may send SIGTERM as soon as it reads the listen line, and that
	// signal must drain the server, not kill the process.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if err := srv.Start(*addr); err != nil {
		return err
	}
	// The listen line goes to stdout so scripts can scrape the bound
	// address (the port is dynamic with -addr :0).
	fmt.Printf("serve: listening on %s\n", srv.URL())

	<-ctx.Done()
	stopSignals() // a second signal kills the process instead of waiting

	fmt.Fprintf(os.Stderr, "serve: draining (up to %s)\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "serve: drained cleanly")
	return nil
}

// loadAPIKeys reads a key file: one name:key per line, blank lines and
// #-comments skipped. The returned map is keyed by the API key (what a
// request presents), valued by the client name (what quotas and logs
// use).
func loadAPIKeys(path string) (map[string]string, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: reading -api-keys: %w", err)
	}
	keys := make(map[string]string)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, key, ok := strings.Cut(line, ":")
		name, key = strings.TrimSpace(name), strings.TrimSpace(key)
		if !ok || name == "" || key == "" {
			return nil, fmt.Errorf("serve: -api-keys line %d: want name:key, got %q", i+1, line)
		}
		if prev, dup := keys[key]; dup {
			return nil, fmt.Errorf("serve: -api-keys line %d: key already assigned to %q", i+1, prev)
		}
		keys[key] = name
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("serve: -api-keys file %s holds no keys", path)
	}
	return keys, nil
}
