package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"alchemist/internal/obs"
)

func open(t *testing.T, dir string, mod func(*Options)) (*Journal, *Recovery) {
	t.Helper()
	opts := Options{Dir: dir, Sync: SyncNone}
	if mod != nil {
		mod(&opts)
	}
	j, rec, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, rec
}

func appendAll(t *testing.T, j *Journal, recs ...string) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
}

func asStrings(recs [][]byte) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = string(r)
	}
	return out
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	j, rec := open(t, dir, nil)
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh journal recovered %d records", len(rec.Records))
	}
	appendAll(t, j, "one", "two", "three")
	if err := j.Append(nil); err != nil { // empty payloads are legal
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec = open(t, dir, nil)
	got := asStrings(rec.Records)
	want := []string{"one", "two", "three", ""}
	if len(got) != len(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if rec.TruncatedBytes != 0 {
		t.Errorf("clean shutdown reported %d truncated bytes", rec.TruncatedBytes)
	}
}

// newestSegment returns the path of the highest-generation segment.
func newestSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var best string
	var bestGen uint64
	for _, e := range entries {
		if g, ok := fileGen(e.Name(), "wal-", ".seg"); ok && g >= bestGen {
			bestGen, best = g, filepath.Join(dir, e.Name())
		}
	}
	if best == "" {
		t.Fatal("no segments on disk")
	}
	return best
}

func TestTornTailIsTruncated(t *testing.T) {
	cases := []struct {
		name string
		tear func(valid []byte) []byte // transforms a valid frame into a torn one
	}{
		{"partial header", func(f []byte) []byte { return f[:3] }},
		{"partial payload", func(f []byte) []byte { return f[:len(f)-2] }},
		{"corrupt checksum", func(f []byte) []byte {
			f = append([]byte(nil), f...)
			f[len(f)-1] ^= 0xff
			return f
		}},
		{"absurd length", func(f []byte) []byte {
			return []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0, 'x'}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, _ := open(t, dir, nil)
			appendAll(t, j, "good-1", "good-2")
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			// Craft a valid frame, tear it, and append the wreckage to
			// the newest segment — exactly what a crash mid-append
			// leaves behind.
			var scratch Journal
			frame := append([]byte(nil), scratch.appendFrame([]byte("torn-record"))...)
			seg := newestSegment(t, dir)
			pre, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			torn := tc.tear(frame)
			if _, err := f.Write(torn); err != nil {
				t.Fatal(err)
			}
			f.Close()

			_, rec := open(t, dir, nil)
			got := asStrings(rec.Records)
			if len(got) != 2 || got[0] != "good-1" || got[1] != "good-2" {
				t.Errorf("recovered %v, want the two good records", got)
			}
			if rec.TruncatedBytes != int64(len(torn)) {
				t.Errorf("TruncatedBytes = %d, want %d", rec.TruncatedBytes, len(torn))
			}
			// The tear is physically gone: the file ends at the last
			// valid record.
			post, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(post, pre) {
				t.Errorf("torn segment not truncated back to %d bytes (got %d)", len(pre), len(post))
			}
		})
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, _ := open(t, dir, func(o *Options) { o.SegmentBytes = 64 })
	var want []string
	for i := 0; i < 20; i++ {
		r := fmt.Sprintf("record-%02d-%s", i, strings.Repeat("x", 16))
		want = append(want, r)
	}
	appendAll(t, j, want...)
	if segs := j.Segments(); segs < 5 {
		t.Errorf("only %d segments after 20 oversized appends", segs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := open(t, dir, nil)
	got := asStrings(rec.Records)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records across segments, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q (cross-segment order broken)", i, got[i], want[i])
		}
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	j, _ := open(t, dir, func(o *Options) { o.SegmentBytes = 64 })
	appendAll(t, j, strings.Repeat("a", 40), strings.Repeat("b", 40), strings.Repeat("c", 40))

	tok, err := j.StartSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Records appended between Start and Finish survive the compaction.
	appendAll(t, j, "post-snapshot")
	if err := j.FinishSnapshot(tok, []byte("state-after-abc")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, "after-finish")
	if segs := j.Segments(); segs != 1 {
		t.Errorf("%d segments after compaction, want 1", segs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec := open(t, dir, nil)
	if string(rec.Snapshot) != "state-after-abc" {
		t.Errorf("snapshot = %q", rec.Snapshot)
	}
	got := asStrings(rec.Records)
	if len(got) != 2 || got[0] != "post-snapshot" || got[1] != "after-finish" {
		t.Errorf("post-snapshot records = %v", got)
	}
	// The pre-snapshot segments are gone from disk.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, e := range entries {
		if _, ok := fileGen(e.Name(), "snap-", ".snap"); ok {
			snaps++
		}
	}
	if snaps != 1 {
		t.Errorf("%d snapshot files on disk, want 1", snaps)
	}
}

func TestTornSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	j, _ := open(t, dir, nil)
	appendAll(t, j, "r1")
	tok, err := j.StartSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.FinishSnapshot(tok, []byte("good-snap")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, "r2")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// A newer but corrupt snapshot (e.g. bit rot) must fall back to the
	// older intact one without losing the trailing records.
	if err := os.WriteFile(filepath.Join(dir, snapName(1<<40)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec := open(t, dir, nil)
	if string(rec.Snapshot) != "good-snap" {
		t.Errorf("snapshot = %q, want the intact older one", rec.Snapshot)
	}
	if got := asStrings(rec.Records); len(got) != 1 || got[0] != "r2" {
		t.Errorf("records = %v, want [r2]", got)
	}
}

// TestSnapshotPartsWrittenWithoutCopy: a multi-MiB snapshot passed in
// parts replays as their concatenation, and the frame buffer that
// appends reuse stays the size of a record, not of the snapshot.
func TestSnapshotPartsWrittenWithoutCopy(t *testing.T) {
	dir := t.TempDir()
	j, _ := open(t, dir, nil)
	appendAll(t, j, "r1")
	var parts [][]byte
	for i := 0; i < 64; i++ {
		parts = append(parts, bytes.Repeat([]byte{byte('a' + i%26)}, 64<<10))
	}
	tok, err := j.StartSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.FinishSnapshot(tok, parts...); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, "r2")
	if n := cap(j.buf); n > 1<<10 {
		t.Errorf("append buffer holds %d bytes after a %d-byte snapshot, want a record's worth", n, 64*64<<10)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := open(t, dir, nil)
	if !bytes.Equal(rec.Snapshot, bytes.Join(parts, nil)) {
		t.Errorf("snapshot of %d bytes, want the %d-byte concatenation of its parts", len(rec.Snapshot), 64*64<<10)
	}
	if got := asStrings(rec.Records); len(got) != 1 || got[0] != "r2" {
		t.Errorf("records = %v, want [r2]", got)
	}
}

// TestSnapshotReusesItsWriter: a warm snapshot allocates far less than
// the 64 KiB buffer it writes through, because the journal keeps one
// writer for all its snapshots.
func TestSnapshotReusesItsWriter(t *testing.T) {
	j, _ := open(t, t.TempDir(), nil)
	parts := [][]byte{[]byte(`{"jobs":[`), bytes.Repeat([]byte("x"), 1000), []byte(`]}`)}
	snapshot := func() {
		tok, err := j.StartSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := j.FinishSnapshot(tok, parts...); err != nil {
			t.Fatal(err)
		}
	}
	snapshot() // warm
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		snapshot()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("a warm snapshot allocates %d bytes", per)
	if per > 16<<10 {
		t.Errorf("a warm snapshot allocates %d bytes, want at most %d", per, 16<<10)
	}
}

// TestCompactionPastRecordLimit: a snapshot larger than the limit on a
// segment record still recovers, since its file's size bounds its frame.
func TestCompactionPastRecordLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("writes a 65 MiB snapshot")
	}
	dir := t.TempDir()
	j, _ := open(t, dir, nil)
	appendAll(t, j, "r1")
	part := bytes.Repeat([]byte("0123456789abcdef"), 64<<10)
	parts := make([][]byte, maxRecord/len(part)+1)
	for i := range parts {
		parts[i] = part
	}
	tok, err := j.StartSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.FinishSnapshot(tok, parts...); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, "r2")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := open(t, dir, nil)
	if want := len(parts) * len(part); len(rec.Snapshot) != want {
		t.Fatalf("recovered a snapshot of %d bytes, want %d", len(rec.Snapshot), want)
	}
	for off := 0; off < len(rec.Snapshot); off += len(part) {
		if !bytes.Equal(rec.Snapshot[off:off+len(part)], part) {
			t.Fatalf("snapshot differs at byte %d", off)
		}
	}
	if got := asStrings(rec.Records); len(got) != 1 || got[0] != "r2" {
		t.Errorf("records = %v, want [r2]", got)
	}
}

func TestSyncModes(t *testing.T) {
	for _, mode := range []SyncMode{SyncAlways, SyncInterval, SyncNone} {
		t.Run(string(mode), func(t *testing.T) {
			dir := t.TempDir()
			j, _ := open(t, dir, func(o *Options) {
				o.Sync = mode
				o.SyncEvery = time.Millisecond
			})
			appendAll(t, j, "a", "b")
			if mode == SyncInterval {
				time.Sleep(20 * time.Millisecond) // let the batcher run
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec := open(t, dir, nil)
			if len(rec.Records) != 2 {
				t.Errorf("mode %s recovered %d records, want 2", mode, len(rec.Records))
			}
		})
	}
	if _, err := ParseSyncMode("sometimes"); err == nil {
		t.Error("ParseSyncMode accepted garbage")
	}
}

func TestMetricsWiring(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	dir := t.TempDir()
	j, _, err := Open(Options{Dir: dir, Sync: SyncAlways, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, "x", "y")
	tok, err := j.StartSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := j.FinishSnapshot(tok, []byte("s")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if m.appends.Value() != 2 {
		t.Errorf("appends = %d", m.appends.Value())
	}
	if m.fsyncs.Value() == 0 {
		t.Error("no fsyncs recorded under SyncAlways")
	}
	if m.snapshots.Value() != 1 {
		t.Errorf("snapshots = %d", m.snapshots.Value())
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "alchemist_journal_appends_total 2") {
		t.Error("journal metrics missing from the registry export")
	}
}

func TestConcurrentAppendsSurviveReplay(t *testing.T) {
	dir := t.TempDir()
	j, _ := open(t, dir, func(o *Options) { o.SegmentBytes = 256 })
	const writers, each = 8, 50
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < each; i++ {
				if err := j.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < writers; w++ {
		<-done
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := open(t, dir, nil)
	if len(rec.Records) != writers*each {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), writers*each)
	}
	// Per-writer order is preserved even though writers interleave.
	next := make(map[string]int)
	for _, r := range rec.Records {
		var w, i int
		if _, err := fmt.Sscanf(string(r), "w%d-%d", &w, &i); err != nil {
			t.Fatalf("bad record %q", r)
		}
		key := fmt.Sprintf("w%d", w)
		if i != next[key] {
			t.Fatalf("writer %d: record %d arrived before %d", w, i, next[key])
		}
		next[key]++
	}
}
