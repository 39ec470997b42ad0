package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// binary builds the alchemist CLI once per test run.
var binary string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "alchemist-cli")
	if err != nil {
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	binary = filepath.Join(dir, "alchemist")
	cmd := exec.Command("go", "build", "-o", binary, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		os.Stderr.Write(out)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

func run(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command(binary, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("alchemist %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

func runFail(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command(binary, args...).CombinedOutput()
	if err == nil {
		t.Fatalf("alchemist %s: expected failure\n%s", strings.Join(args, " "), out)
	}
	return string(out)
}

func TestCLIList(t *testing.T) {
	out := run(t, "list")
	for _, w := range []string{"gzip", "bzip2", "197.parser", "130.li", "ogg", "aes", "par2", "delaunay"} {
		if !strings.Contains(out, w) {
			t.Errorf("list output lacks %s:\n%s", w, out)
		}
	}
}

func TestCLIProfileWorkload(t *testing.T) {
	out := run(t, "profile", "-w", "gzip", "-scale", "1200", "-top", "5")
	if !strings.Contains(out, "Method main") || !strings.Contains(out, "Tdur=") {
		t.Errorf("profile output:\n%s", out)
	}
}

func TestCLIProfileJSON(t *testing.T) {
	out := run(t, "profile", "-w", "aes", "-scale", "1024", "-json")
	if !strings.Contains(out, `"total_steps"`) || !strings.Contains(out, `"constructs"`) {
		t.Errorf("json output:\n%.400s", out)
	}
}

func TestCLIProfileFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.mc")
	src := `int main() { int s = 0; for (int i = 0; i < in(0); i++) { s += i; } out(s); return 0; }`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, "profile", "-f", path, "-input", "25")
	if !strings.Contains(out, "Method main") {
		t.Errorf("file profile output:\n%s", out)
	}
	out = run(t, "run", "-f", path, "-input", "25")
	if !strings.Contains(out, "out=[300]") {
		t.Errorf("run output:\n%s", out)
	}
}

// TestCLIProfileSuiteStdoutStable: a merged suite profile does not depend
// on the worker count or on the live progress display.
func TestCLIProfileSuiteStdoutStable(t *testing.T) {
	stdout := func(extra ...string) []byte {
		t.Helper()
		args := append([]string{"profile", "-w", "gzip", "-scales", "300,600", "-json"}, extra...)
		out, err := exec.Command(binary, args...).Output()
		if err != nil {
			t.Fatalf("alchemist %s: %v", strings.Join(args, " "), err)
		}
		return out
	}
	want := stdout("-jobs", "1")
	for _, extra := range [][]string{{"-jobs", "2"}, {"-jobs", "2", "-progress"}} {
		if got := stdout(extra...); !bytes.Equal(got, want) {
			t.Errorf("profile %s: stdout differs from -jobs 1 (%d vs %d bytes)", strings.Join(extra, " "), len(got), len(want))
		}
	}
}

func TestCLIProfileMetricsAddr(t *testing.T) {
	out := run(t, "profile", "-w", "aes", "-scale", "1024", "-top", "3", "-metrics-addr", "127.0.0.1:0")
	if !strings.Contains(out, "metrics: serving /metrics /metrics.json /debug/pprof on http://127.0.0.1:") {
		t.Errorf("missing serving line:\n%s", out)
	}
	sum := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "metrics: vm_runs=") {
			sum = line
		}
	}
	if sum == "" {
		t.Fatalf("missing metrics summary line:\n%s", out)
	}
	if !strings.Contains(sum, "vm_runs=1") || strings.Contains(sum, "vm_steps=0") ||
		!strings.Contains(sum, "cache_misses=1") || !strings.Contains(sum, "compiles=1") {
		t.Errorf("summary line = %q, want vm_runs=1, nonzero vm_steps, cache_misses=1, compiles=1", sum)
	}
}

func TestCLIAdvise(t *testing.T) {
	out := run(t, "advise", "-w", "aes", "-scale", "1024", "-top", "4")
	if !strings.Contains(out, "future candidate") && !strings.Contains(out, "NOT parallelizable") {
		t.Errorf("advise output:\n%s", out)
	}
}

func TestCLIRunParallelVariant(t *testing.T) {
	out := run(t, "run", "-w", "ogg", "-scale", "256", "-par-src", "-parallel")
	if !strings.Contains(out, "steps=") {
		t.Errorf("run output:\n%s", out)
	}
}

func TestCLIDisasm(t *testing.T) {
	out := run(t, "disasm", "-w", "aes")
	if !strings.Contains(out, "func main") || !strings.Contains(out, "br r") {
		t.Errorf("disasm output:\n%.400s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	runFail(t, "profile")                       // neither -w nor -f
	runFail(t, "profile", "-w", "nope")         // unknown workload
	runFail(t, "nonsense")                      // unknown command
	runFail(t, "run", "-w", "gzip", "-par-src") // gzip has no parallel variant
	out := runFail(t, "profile", "-f", "/does/not/exist.mc")
	if !strings.Contains(out, "alchemist:") {
		t.Errorf("error output: %s", out)
	}
}
