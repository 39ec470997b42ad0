// Package journal is a disk-backed write-ahead log: length-prefixed,
// checksummed records appended to a sequence of segment files, with
// snapshot+compaction so the log does not grow unboundedly and a replay
// path that recovers cleanly from a crash mid-write.
//
// Layout (one directory per journal):
//
//	wal-0000000000000003.seg    framed records, appended in order
//	wal-0000000000000007.seg
//	snap-0000000000000006.snap  one framed record: the snapshot payload
//
// Every file carries a generation number from one monotonic counter.
// A snapshot with generation G captures every record in segments with
// generation < G; replay loads the newest valid snapshot and then the
// segments above it, oldest first. Within a file each record is framed
// as
//
//	[4-byte little-endian payload length][4-byte CRC32-Castagnoli][payload]
//
// A torn tail — a partial frame or a checksum mismatch, the signature
// of a crash mid-append — truncates the file at the last valid record
// instead of aborting recovery; anything after the tear (including
// later segments) is dropped, because records are only ever appended.
//
// Durability is tunable: SyncAlways fsyncs before Append returns,
// SyncInterval batches fsyncs on a timer (bounded loss window, near
// in-memory append cost), SyncNone leaves flushing to the OS.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncMode selects when appended records are fsynced.
type SyncMode string

const (
	// SyncAlways fsyncs before every Append returns: no acknowledged
	// record is ever lost, at the cost of one fsync per record.
	SyncAlways SyncMode = "always"
	// SyncInterval batches fsyncs on a timer (Options.SyncEvery): a
	// crash loses at most one interval of records.
	SyncInterval SyncMode = "interval"
	// SyncNone never fsyncs explicitly; the OS flushes when it likes.
	SyncNone SyncMode = "none"
)

// ParseSyncMode maps a flag string onto a SyncMode.
func ParseSyncMode(s string) (SyncMode, error) {
	switch SyncMode(s) {
	case SyncAlways, SyncInterval, SyncNone:
		return SyncMode(s), nil
	}
	return "", fmt.Errorf("journal: unknown sync mode %q (want always, interval, or none)", s)
}

// Options configures a Journal. Only Dir is required.
type Options struct {
	// Dir is the journal directory, created if missing.
	Dir string
	// SegmentBytes rotates the active segment once it exceeds this many
	// bytes. Default 4 MiB.
	SegmentBytes int64
	// Sync selects the fsync policy. Default SyncInterval.
	Sync SyncMode
	// SyncEvery is the fsync batching period under SyncInterval.
	// Default 100ms.
	SyncEvery time.Duration
	// Metrics receives journal instrumentation; nil disables it.
	Metrics *Metrics
}

func (o Options) withDefaults() (Options, error) {
	if o.Dir == "" {
		return o, errors.New("journal: Options.Dir is required")
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.Sync == "" {
		o.Sync = SyncInterval
	}
	if _, err := ParseSyncMode(string(o.Sync)); err != nil {
		return o, err
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.Metrics == nil {
		o.Metrics = &Metrics{}
	}
	return o, nil
}

// Recovery is what Open found on disk: the newest valid snapshot
// payload (nil if none) and every record appended after it, in order.
type Recovery struct {
	// Snapshot is the latest intact snapshot payload, nil if the
	// journal has never snapshotted.
	Snapshot []byte
	// Records are the post-snapshot records, oldest first.
	Records [][]byte
	// TruncatedBytes counts bytes dropped from a torn tail (0 on a
	// clean shutdown).
	TruncatedBytes int64
}

const (
	frameHeader = 8        // 4-byte length + 4-byte CRC
	maxRecord   = 64 << 20 // sanity bound on a segment record; larger lengths are treated as corruption
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Journal is an open write-ahead log. All methods are safe for
// concurrent use.
type Journal struct {
	opts Options
	m    *Metrics

	mu      sync.Mutex
	f       *os.File // active segment, nil until the first write after Open
	buf     []byte   // frame scratch
	pending int64    // bytes written since the last fsync
	size    int64    // bytes in the active segment
	gen     uint64   // last generation number handed out
	segs    []uint64 // live segment generations, ascending (last = f's, once open)
	snapGen uint64   // generation of the newest snapshot, 0 if none
	closed  bool
	// snapW writes every snapshot, reset onto each one's file, so its
	// 64 KiB buffer is allocated once.
	snapW *bufio.Writer

	stopSync chan struct{}
	syncDone chan struct{}
}

// Open opens (or creates) the journal in opts.Dir, replays what is on
// disk, and truncates any torn tail. It creates no file: the first
// Append or StartSnapshot starts a fresh active segment, so a caller
// that refuses what it recovered leaves the directory as it was.
func Open(opts Options) (*Journal, *Recovery, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	j := &Journal{opts: opts, m: opts.Metrics}
	rec, err := j.replay()
	if err != nil {
		return nil, nil, err
	}
	if j.opts.Sync == SyncInterval {
		j.stopSync = make(chan struct{})
		j.syncDone = make(chan struct{})
		go j.syncLoop()
	}
	j.m.recoveredRecords.Set(int64(len(rec.Records)))
	j.m.segments.Set(int64(len(j.segs)))
	return j, rec, nil
}

// fileGen parses "wal-<gen>.seg" / "snap-<gen>.snap" names.
func fileGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	g, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	return g, err == nil
}

func segName(gen uint64) string  { return fmt.Sprintf("wal-%016d.seg", gen) }
func snapName(gen uint64) string { return fmt.Sprintf("snap-%016d.snap", gen) }

// replay scans the directory, loads the newest intact snapshot, reads
// every later segment, and truncates a torn tail. It fills j.gen,
// j.segs, and j.snapGen.
func (j *Journal) replay() (*Recovery, error) {
	entries, err := os.ReadDir(j.opts.Dir)
	if err != nil {
		return nil, err
	}
	var segs, snaps []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if g, ok := fileGen(e.Name(), "wal-", ".seg"); ok {
			segs = append(segs, g)
		}
		if g, ok := fileGen(e.Name(), "snap-", ".snap"); ok {
			snaps = append(snaps, g)
		}
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a] < segs[b] })
	sort.Slice(snaps, func(a, b int) bool { return snaps[a] < snaps[b] })
	for _, g := range segs {
		if g > j.gen {
			j.gen = g
		}
	}
	for _, g := range snaps {
		if g > j.gen {
			j.gen = g
		}
	}

	rec := &Recovery{}
	// Newest intact snapshot wins; a torn snapshot (crash mid-write is
	// impossible thanks to tmp+rename, but a damaged disk is not) falls
	// back to the next older one.
	for i := len(snaps) - 1; i >= 0; i-- {
		payload, ok := readSnapshot(filepath.Join(j.opts.Dir, snapName(snaps[i])))
		if ok {
			rec.Snapshot = payload
			j.snapGen = snaps[i]
			break
		}
	}

	// Segments at or below the snapshot generation are compacted state;
	// remove leftovers from a crash mid-compaction.
	for _, g := range segs {
		if g < j.snapGen {
			os.Remove(filepath.Join(j.opts.Dir, segName(g)))
		}
	}
	// Old snapshots are superseded.
	for _, g := range snaps {
		if g < j.snapGen {
			os.Remove(filepath.Join(j.opts.Dir, snapName(g)))
		}
	}

	// Replay the live segments oldest-first. A tear ends the journal:
	// the torn file is truncated at its last valid record and anything
	// after it is dropped.
	torn := false
	for _, g := range segs {
		if g < j.snapGen {
			continue
		}
		path := filepath.Join(j.opts.Dir, segName(g))
		if torn {
			os.Remove(path)
			continue
		}
		records, dropped, err := readSegment(path)
		if err != nil {
			return nil, err
		}
		rec.Records = append(rec.Records, records...)
		if dropped > 0 {
			torn = true
			rec.TruncatedBytes += dropped
			j.m.tornTails.Inc()
		}
		j.segs = append(j.segs, g)
	}
	return rec, nil
}

// readSegment reads every intact record in the file and truncates it at
// the first torn or corrupt frame, returning the dropped byte count.
func readSegment(path string) (records [][]byte, dropped int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	off := 0
	for {
		n, payload := readFrame(data[off:])
		if n == 0 {
			break
		}
		records = append(records, payload)
		off += n
	}
	if off < len(data) {
		dropped = int64(len(data) - off)
		if err := os.Truncate(path, int64(off)); err != nil {
			return nil, 0, fmt.Errorf("journal: truncating torn tail of %s: %w", path, err)
		}
	}
	return records, dropped, nil
}

// readFrame decodes one frame from b, returning the bytes consumed and
// the payload, or (0, nil) when b starts with a partial or corrupt
// frame.
func readFrame(b []byte) (int, []byte) {
	if len(b) < frameHeader {
		return 0, nil
	}
	n := int(binary.LittleEndian.Uint32(b))
	if n > maxRecord || len(b) < frameHeader+n {
		return 0, nil
	}
	sum := binary.LittleEndian.Uint32(b[4:])
	payload := b[frameHeader : frameHeader+n]
	if crc32.Checksum(payload, castagnoli) != sum {
		return 0, nil
	}
	return frameHeader + n, payload
}

// readSnapshot loads a snapshot file, reporting whether it holds one
// intact frame. The file's size bounds the frame, so unlike a segment
// record a snapshot may be larger than maxRecord.
func readSnapshot(path string) ([]byte, bool) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) < frameHeader {
		return nil, false
	}
	payload := data[frameHeader:]
	if int(binary.LittleEndian.Uint32(data)) != len(payload) ||
		crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, false
	}
	return payload, true
}

// appendFrame encodes payload into j.buf.
func (j *Journal) appendFrame(payload []byte) []byte {
	j.buf = j.buf[:0]
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	j.buf = append(j.buf, hdr[:]...)
	j.buf = append(j.buf, payload...)
	return j.buf
}

// writeFrame writes one frame of the given payload size and checksum,
// the payload being the concatenation of parts, through w's fixed-size
// buffer: many small parts cost few writes, and a large one is written
// from where it lies.
func writeFrame(w *bufio.Writer, size int, sum uint32, parts [][]byte) error {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(size))
	binary.LittleEndian.PutUint32(hdr[4:], sum)
	w.Write(hdr[:])
	for _, p := range parts {
		w.Write(p)
	}
	return w.Flush()
}

// Append writes one record. Under SyncAlways it is durable when Append
// returns; under SyncInterval it becomes durable within one SyncEvery
// period.
func (j *Journal) Append(payload []byte) error {
	if len(payload) > maxRecord {
		return fmt.Errorf("journal: record of %d bytes exceeds the %d-byte limit", len(payload), maxRecord)
	}
	start := time.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: append on closed journal")
	}
	// The first append after Open goes into a fresh segment: the
	// truncated tail of the old one is never reopened for writing, which
	// keeps the tear analysis ("only the newest file can be torn") true.
	if j.f == nil || j.size > 0 && j.size+int64(len(payload))+frameHeader > j.opts.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	frame := j.appendFrame(payload)
	if _, err := j.f.Write(frame); err != nil {
		return err
	}
	j.size += int64(len(frame))
	j.pending += int64(len(frame))
	j.m.appends.Inc()
	j.m.appendBytes.Add(int64(len(frame)))
	j.m.recordBytes.Observe(float64(len(payload)))
	if j.opts.Sync == SyncAlways {
		if err := j.syncLocked(); err != nil {
			return err
		}
	}
	j.m.appendSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// syncLocked fsyncs the active segment if it has unsynced bytes.
func (j *Journal) syncLocked() error {
	if j.pending == 0 || j.f == nil {
		return nil
	}
	start := time.Now()
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.pending = 0
	j.m.fsyncs.Inc()
	j.m.fsyncSeconds.Observe(time.Since(start).Seconds())
	return nil
}

// Sync forces an fsync of the active segment.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

// syncLoop is the SyncInterval fsync batcher.
func (j *Journal) syncLoop() {
	defer close(j.syncDone)
	t := time.NewTicker(j.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-j.stopSync:
			return
		case <-t.C:
			j.Sync()
		}
	}
}

// rotateLocked seals the active segment and opens a fresh one under the
// next generation number.
func (j *Journal) rotateLocked() error {
	if j.f != nil {
		if err := j.syncLocked(); err != nil {
			return err
		}
		if err := j.f.Close(); err != nil {
			return err
		}
		j.f = nil
	}
	j.gen++
	f, err := os.OpenFile(filepath.Join(j.opts.Dir, segName(j.gen)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	j.f = f
	j.size = 0
	j.pending = 0
	j.segs = append(j.segs, j.gen)
	j.m.rotations.Inc()
	j.m.segments.Set(int64(len(j.segs)))
	return nil
}

// SnapshotToken marks a point in the record stream; records appended
// after StartSnapshot are preserved across the matching FinishSnapshot.
type SnapshotToken struct {
	gen uint64
}

// StartSnapshot begins a snapshot: it allocates the snapshot's
// generation and rotates the active segment above it, so that records
// appended while the caller is still encoding its state land in
// segments the compaction will keep. The intended sequence is
//
//	tok, err := j.StartSnapshot()
//	parts := encodeState()            // may run concurrently with appends
//	err = j.FinishSnapshot(tok, parts...)
//
// which requires replay to tolerate records that are both reflected in
// the snapshot and present after it (append-only state machines with
// sequence numbers get this for free).
func (j *Journal) StartSnapshot() (SnapshotToken, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return SnapshotToken{}, errors.New("journal: snapshot on closed journal")
	}
	j.gen++
	tok := SnapshotToken{gen: j.gen}
	if err := j.rotateLocked(); err != nil {
		return SnapshotToken{}, err
	}
	return tok, nil
}

// FinishSnapshot durably writes the snapshot payload, the
// concatenation of parts, under the token's generation and compacts
// away every segment and snapshot below it. The frame header and the
// parts go straight to the snapshot file: the journal only reads the
// parts and keeps no copy of the payload, so a caller may pass
// encodings it goes on holding.
func (j *Journal) FinishSnapshot(tok SnapshotToken, parts ...[]byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: snapshot on closed journal")
	}
	if tok.gen == 0 || tok.gen <= j.snapGen {
		return fmt.Errorf("journal: stale snapshot token (gen %d, newest snapshot %d)", tok.gen, j.snapGen)
	}
	var size int
	var sum uint32
	for _, p := range parts {
		size += len(p)
		sum = crc32.Update(sum, castagnoli, p)
	}
	if size > math.MaxUint32 {
		return fmt.Errorf("journal: snapshot of %d bytes exceeds the 4 GiB frame limit", size)
	}

	// tmp + fsync + rename + dir fsync: the snapshot is either fully
	// there under its final name or not there at all.
	final := filepath.Join(j.opts.Dir, snapName(tok.gen))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if j.snapW == nil {
		j.snapW = bufio.NewWriterSize(f, 64<<10)
	} else {
		j.snapW.Reset(f)
	}
	if err := writeFrame(j.snapW, size, sum, parts); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(j.opts.Dir)

	oldSnap := j.snapGen
	j.snapGen = tok.gen
	if oldSnap != 0 {
		os.Remove(filepath.Join(j.opts.Dir, snapName(oldSnap)))
	}
	kept := j.segs[:0]
	for _, g := range j.segs {
		if g < tok.gen {
			os.Remove(filepath.Join(j.opts.Dir, segName(g)))
			continue
		}
		kept = append(kept, g)
	}
	j.segs = kept
	j.m.snapshots.Inc()
	j.m.snapshotBytes.Observe(float64(size))
	j.m.segments.Set(int64(len(j.segs)))
	return nil
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// Segments returns the number of live segment files (including the
// active one).
func (j *Journal) Segments() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.segs)
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.opts.Dir }

// Close flushes, fsyncs, and closes the journal. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	stop := j.stopSync
	j.mu.Unlock()
	if stop != nil {
		close(stop)
		<-j.syncDone
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var err error
	if j.f != nil {
		if serr := j.syncLocked(); serr != nil {
			err = serr
		}
		if cerr := j.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		j.f = nil
	}
	return err
}
