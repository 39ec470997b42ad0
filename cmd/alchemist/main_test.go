package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
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

// TestCLIPaperTablesStdoutPinned pins the small-scale paper tables to
// their known output: table4, fig6 and table5 byte for byte, and the
// deterministic columns (Benchmark, LOC, Static, Dynamic) of table3,
// whose timing columns vary run to run. table5 must not depend on -jobs.
func TestCLIPaperTablesStdoutPinned(t *testing.T) {
	stdout := func(args ...string) []byte {
		t.Helper()
		out, err := exec.Command(binary, args...).Output()
		if err != nil {
			t.Fatalf("alchemist %s: %v", strings.Join(args, " "), err)
		}
		return out
	}
	check := func(name string, out []byte, want string) {
		t.Helper()
		if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != want {
			t.Errorf("%s: stdout sha256 %s, want %s\n%s", name, got, want, out)
		}
	}
	check("table4 -small", stdout("table4", "-small"),
		"80e565a337546932c70ee9c1d90a5789745071fcd1215f897722986952d44412")
	check("fig6 -small", stdout("fig6", "-small"),
		"4b8edf1034281d32b6739779203aed4d3c3ff04f45849659c94865fb1e399ee7")
	for _, jobs := range []string{"1", "4"} {
		check("table5 -small -jobs "+jobs, stdout("table5", "-small", "-jobs", jobs),
			"8c4fbd9c0051820aafa160e281616d8b9d473c4873003dff840edf1ac9d38382")
	}
	var cols bytes.Buffer
	for _, line := range strings.Split(strings.TrimSuffix(string(stdout("table3", "-small")), "\n"), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 {
			t.Fatalf("table3 -small: short line %q", line)
		}
		fmt.Fprintln(&cols, strings.Join(f[:4], " "))
	}
	check("table3 -small (Benchmark, LOC, Static, Dynamic)", cols.Bytes(),
		"e5952164d732a390af35fbecbf84e6fda49c3ba1719688638f343e41eb468c10")
}
