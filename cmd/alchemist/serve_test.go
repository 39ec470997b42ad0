package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startServe launches the built binary's serve command on a free port
// and returns its base URL, the running command, and the stdout banner
// that preceded the listen line (the journal-recovery summary, when a
// -data-dir is set, prints there).
func startServe(t *testing.T, extra ...string) (string, *exec.Cmd, string) {
	t.Helper()
	args := append([]string{"serve", "-addr", "127.0.0.1:0", "-quiet"}, extra...)
	cmd := exec.Command(binary, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	// Read stdout until the "serve: listening on URL" line shows up;
	// banner lines (recovery summary) may precede it.
	const prefix = "serve: listening on "
	buf := make([]byte, 256)
	out := ""
	deadline := time.Now().Add(10 * time.Second)
	for {
		if idx := strings.Index(out, prefix); idx >= 0 && strings.Contains(out[idx:], "\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listen line from serve; got %q", out)
		}
		n, err := stdout.Read(buf)
		out += string(buf[:n])
		if err != nil && !strings.Contains(out, prefix) {
			t.Fatalf("serve stdout ended early: %v (got %q)", err, out)
		}
	}
	idx := strings.Index(out, prefix)
	banner := out[:idx]
	rest := out[idx+len(prefix):]
	url := strings.TrimSpace(rest[:strings.Index(rest, "\n")])
	go io.Copy(io.Discard, stdout) // keep the pipe drained
	return url, cmd, banner
}

func TestCLIServeProfileAndGracefulShutdown(t *testing.T) {
	url, cmd, _ := startServe(t)

	resp, err := http.Post(url+"/v1/profile", "application/json",
		strings.NewReader(`{"workload":"aes","scales":[1024],"top":3}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), `"total_steps"`) {
		t.Errorf("profile body:\n%.400s", body)
	}

	resp, err = http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"alchemist_server_requests_total",
		"alchemist_process_goroutines",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// SIGTERM starts the drain; with nothing in flight the process must
	// exit promptly and cleanly.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("serve exited uncleanly: %v", err)
		}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatal("serve did not exit after SIGTERM")
	}
}

// TestCLIServeCrashRecovery SIGKILLs a journal-backed serve process
// mid-job and restarts it over the same data dir: the finished job comes
// back with its result, the in-flight one comes back interrupted, and
// the recovery summary line reports both.
func TestCLIServeCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	url, cmd, _ := startServe(t, "-data-dir", dir)

	postJob := func(base, body string) serveJobStatus {
		t.Helper()
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job create = %d: %s", resp.StatusCode, b)
		}
		var st serveJobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	getJob := func(base, id string) serveJobStatus {
		t.Helper()
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job get = %d: %s", resp.StatusCode, b)
		}
		var st serveJobStatus
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	// One quick job runs to completion...
	quick := postJob(url, `{"kind":"run","source":"int main() { return 7; }"}`)
	deadline := time.Now().Add(30 * time.Second)
	for getJob(url, quick.ID).State != "succeeded" {
		if time.Now().After(deadline) {
			t.Fatal("quick job never succeeded")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// ...and one effectively-infinite job is mid-flight at kill time.
	hogSrc := `int main() { int s = 0; for (int i = 0; i < 1000000000; i++) { s += i; } return s % 2; }`
	hog := postJob(url, fmt.Sprintf(`{"kind":"run","source":%q,"timeout_ms":60000}`, hogSrc))
	for getJob(url, hog.ID).State != "running" {
		if time.Now().After(deadline) {
			t.Fatal("hog job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Hard kill: no drain, no journal close.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	url2, cmd2, banner := startServe(t, "-data-dir", dir)
	if !strings.Contains(banner, "serve: journal recovered 2 jobs (1 interrupted") {
		t.Errorf("recovery banner = %q", banner)
	}
	if st := getJob(url2, quick.ID); st.State != "succeeded" {
		t.Errorf("finished job state after crash = %q, want succeeded", st.State)
	}
	st := getJob(url2, hog.ID)
	if st.State != "interrupted" {
		t.Errorf("in-flight job state after crash = %q, want interrupted", st.State)
	}
	if !strings.Contains(st.Error, "interrupted") {
		t.Errorf("interrupted job error = %q", st.Error)
	}

	if err := cmd2.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd2.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("recovered serve exited uncleanly: %v", err)
		}
	case <-time.After(15 * time.Second):
		cmd2.Process.Kill()
		t.Fatal("recovered serve did not exit after SIGTERM")
	}
}

// serveJobStatus is the subset of the job wire form the CLI tests need.
type serveJobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

func TestCLIProfileProgressFlag(t *testing.T) {
	// Stderr is a pipe here (not a TTY), so the display must degrade to
	// plain lines; the final snapshot always prints, even on fast runs.
	out := run(t, "profile", "-w", "aes", "-scale", "1024", "-top", "3", "-progress", "-jobs", "2", "-scales", "512,1024")
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "progress: ") {
			found = true
			if !strings.Contains(line, "jobs done") || !strings.Contains(line, "steps") {
				t.Errorf("malformed progress line %q", line)
			}
		}
	}
	if !found {
		t.Errorf("no progress lines in output:\n%s", out)
	}
	if !strings.Contains(out, fmt.Sprintf("progress: %d/%d jobs done", 2, 2)) {
		t.Errorf("final progress snapshot should report 2/2 jobs done:\n%s", out)
	}
}

func TestCLITable5ProgressFlag(t *testing.T) {
	out := run(t, "table5", "-small", "-progress")
	if !strings.Contains(out, "jobs done") {
		t.Errorf("table5 -progress output lacks progress lines:\n%s", out)
	}
	// 4 workloads x (sequential + parallel) x 1 run = 8 progress slots.
	if !strings.Contains(out, "progress: 8/8 jobs done") {
		t.Errorf("final snapshot should report 8/8 runs done:\n%s", out)
	}
}

// TestCLIServeResilienceFlags exercises the admission-control flags:
// -api-keys gates every /v1 endpoint, -rate meters work creation, and
// -client-quota caps concurrent jobs per key.
func TestCLIServeResilienceFlags(t *testing.T) {
	keyFile := t.TempDir() + "/keys"
	if err := os.WriteFile(keyFile, []byte("# test keys\nalpha: key-alpha\nbeta: key-beta\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	url, _, _ := startServe(t, "-api-keys", keyFile, "-rate", "50", "-client-quota", "1")

	get := func(key string) int {
		req, err := http.NewRequest(http.MethodGet, url+"/v1/jobs", nil)
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set("X-Api-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("nope"); code != http.StatusUnauthorized {
		t.Fatalf("unknown key: status %d, want 401", code)
	}
	if code := get("key-alpha"); code != http.StatusOK {
		t.Fatalf("known key: status %d, want 200", code)
	}
	if code := get(""); code != http.StatusOK {
		t.Fatalf("anonymous: status %d, want 200", code)
	}

	// Quota 1: alpha's second concurrent job is refused; beta still gets in.
	submit := func(key string) int {
		body := `{"kind":"run","name":"f","source":"int main() { int s = 0; for (int i = 0; i < 1000000000; i++) { s += i; } return s % 2; }","timeout_ms":30000}`
		req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Api-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := submit("key-alpha"); code != http.StatusAccepted {
		t.Fatalf("alpha job 1: status %d, want 202", code)
	}
	if code := submit("key-alpha"); code != http.StatusTooManyRequests {
		t.Fatalf("alpha job 2: status %d, want 429 quota_exceeded", code)
	}
	if code := submit("key-beta"); code != http.StatusAccepted {
		t.Fatalf("beta job: status %d, want 202 (alpha's quota must not starve beta)", code)
	}
}
