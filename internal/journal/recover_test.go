package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
)

// buildDir writes a journal of recs into dir with small segments and
// returns the segment files' contents in sequence order.
func buildDir(t *testing.T, dir string, recs [][]byte, segBytes int64) []string {
	t.Helper()
	j, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, recs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs) // zero-padded hex names sort numerically
	return segs
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	recs := records(5)
	segs := buildDir(t, dir, recs, DefaultSegmentBytes) // single segment
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	// Cut three bytes off the final frame: a torn write.
	if err := os.Truncate(last, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	j, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, j)
	if !equalRecords(got, recs[:4]) {
		t.Fatalf("replayed %d records after torn tail, want 4", len(got))
	}
	// The repair is physical: the file now ends at the frame boundary.
	repaired, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if repaired.Size() >= info.Size()-3 {
		t.Fatalf("torn tail not truncated: %d bytes", repaired.Size())
	}
	// And appends resume cleanly at the boundary.
	if err := j.AppendMany([][]byte{[]byte("resumed")}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	want := append(append([][]byte{}, recs[:4]...), []byte("resumed"))
	if got := replayAll(t, j2); !equalRecords(got, want) {
		t.Fatalf("replayed %d records after repair+append, want %d", len(got), len(want))
	}
}

func TestZeroFilledTailTruncated(t *testing.T) {
	dir := t.TempDir()
	recs := records(3)
	segs := buildDir(t, dir, recs, DefaultSegmentBytes)
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A crash can extend the file with zero pages before the frame data
	// reaches disk.
	if _, err := f.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if got := replayAll(t, j); !equalRecords(got, recs) {
		t.Fatalf("replayed %d records with zero-filled tail, want %d", len(got), len(recs))
	}
}

func TestMidStreamCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	recs := records(6)
	segs := buildDir(t, dir, recs, DefaultSegmentBytes)
	buf, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside the first frame: the CRC fails and valid
	// frames follow, so this is not a torn tail.
	buf[frameHeaderSize+2] ^= 0xff
	if err := os.WriteFile(segs[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Sync: SyncNever}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-stream corruption: %v", err)
	}
}

func TestTornNonFinalSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	recs := records(20)
	segs := buildDir(t, dir, recs, 64)
	if len(segs) < 3 {
		t.Fatalf("need several segments, got %d", len(segs))
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()-2); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Sync: SyncNever}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn non-final segment: %v", err)
	}
}

func TestMissingSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	segs := buildDir(t, dir, records(20), 64)
	if len(segs) < 3 {
		t.Fatalf("need several segments, got %d", len(segs))
	}
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Sync: SyncNever}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing segment: %v", err)
	}
}

// TestEveryPrefixRecovers is the crash-recovery property at the journal
// layer: however many bytes of the record stream survive, recovery
// succeeds and replays exactly some prefix of the appended records.
func TestEveryPrefixRecovers(t *testing.T) {
	master := t.TempDir()
	recs := records(14)
	segs := buildDir(t, master, recs, 96)
	if len(segs) < 2 {
		t.Fatalf("want multiple segments, got %d", len(segs))
	}
	bodies := make([][]byte, len(segs))
	for i, s := range segs {
		b, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}

	prevK := -1
	for segIdx := range segs {
		for cut := 0; cut <= len(bodies[segIdx]); cut++ {
			dir := t.TempDir()
			// The crash preserved every earlier segment, a prefix of
			// segment segIdx, and nothing after it.
			for i := 0; i < segIdx; i++ {
				if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[i])), bodies[i], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[segIdx])), bodies[segIdx][:cut], 0o644); err != nil {
				t.Fatal(err)
			}

			j, err := Open(dir, Options{Sync: SyncNever})
			if err != nil {
				t.Fatalf("seg %d cut %d: %v", segIdx, cut, err)
			}
			got := replayAll(t, j)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if !equalRecords(got, recs[:len(got)]) {
				t.Fatalf("seg %d cut %d: recovered records are not a prefix", segIdx, cut)
			}
			// More surviving bytes never recovers fewer records.
			if len(got) < prevK {
				t.Fatalf("seg %d cut %d: recovered %d records, previously %d", segIdx, cut, len(got), prevK)
			}
			prevK = len(got)
		}
	}
	if prevK != len(recs) {
		t.Fatalf("full journal recovered %d of %d records", prevK, len(recs))
	}
}

func TestVerifyReports(t *testing.T) {
	dir := t.TempDir()
	recs := records(10)
	segs := buildDir(t, dir, recs, 96)

	rep, err := Verify(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != "" || rep.RecoverableFrames != len(recs) || rep.TruncatedBytes != 0 {
		t.Fatalf("clean journal report: %+v", rep)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("recoverable frames: 10")) {
		t.Fatalf("report text:\n%s", buf.String())
	}

	// Torn tail: still recoverable, with dropped bytes reported. If the
	// final rotation left an empty tail segment, drop it so the tear
	// lands in a segment that has frames.
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		if err := os.Remove(last); err != nil {
			t.Fatal(err)
		}
		segs = segs[:len(segs)-1]
		last = segs[len(segs)-1]
		if info, err = os.Stat(last); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Truncate(last, info.Size()-2); err != nil {
		t.Fatal(err)
	}
	rep, err = Verify(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != "" || rep.TruncatedBytes == 0 || rep.RecoverableFrames >= len(recs) {
		t.Fatalf("torn journal report: %+v", rep)
	}
	// Verify is read-only: the torn bytes are still there afterwards.
	after, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != info.Size()-2 {
		t.Fatal("Verify modified the journal")
	}

	// Corruption in an early segment: unrecoverable verdict.
	buf0, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	buf0[frameHeaderSize+1] ^= 0xff
	if err := os.WriteFile(segs[0], buf0, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Verify(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err == "" {
		t.Fatalf("corrupt journal reported recoverable: %+v", rep)
	}
}

func TestVerifyReportsSnapshotAndStaleSegments(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{Sync: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, records(10))
	if err := j.Compact(stateFrom(records(10))); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, [][]byte{[]byte("post-snap")})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Verify(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasSnapshot || rep.Err != "" || rep.RecoverableFrames != 1 {
		t.Fatalf("post-compaction report: %+v", rep)
	}
	snap, err := os.Stat(filepath.Join(dir, rep.SnapshotName))
	if err != nil {
		t.Fatal(err)
	}
	if rep.SnapshotBytes != snap.Size() || rep.SnapshotBytes == 0 {
		t.Fatalf("snapshot reported as %d bytes, file holds %d", rep.SnapshotBytes, snap.Size())
	}
	var out bytes.Buffer
	if err := rep.Write(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte("snapshot  snap-")) {
		t.Fatalf("report text:\n%s", out.String())
	}
}

func TestScanFramesClassification(t *testing.T) {
	var stream []byte
	payloads := [][]byte{[]byte("one"), []byte("two-two"), []byte("three")}
	for _, p := range payloads {
		stream = appendFrame(stream, p)
	}
	// A frame whose payload outgrows the scanner's read buffer, and a run
	// of small frames long enough that a tail cut lands across a buffer
	// boundary.
	big := bytes.Repeat([]byte("0123456789abcdef"), 3*scanBufSize/16+5)
	var run []byte
	runFrames := 0
	for len(run) < scanBufSize+4*frameHeaderSize {
		run = appendFrame(run, []byte(fmt.Sprintf("small-%05d", runFrames)))
		runFrames++
	}
	runFrameLen := len(run) / runFrames
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		status scanStatus
		frames int
	}{
		{"clean", func(b []byte) []byte { return b }, scanClean, 3},
		{"torn header", func(b []byte) []byte { return b[:len(b)-frameHeaderSize-2] }, scanTorn, 2},
		{"torn payload", func(b []byte) []byte { return b[:len(b)-1] }, scanTorn, 2},
		{"zero tail", func(b []byte) []byte { return append(b, make([]byte, 20)...) }, scanTorn, 3},
		{"bad crc at end", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0xff
			return c
		}, scanTorn, 2},
		{"bad crc mid-stream", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[frameHeaderSize] ^= 0xff
			return c
		}, scanCorrupt, 0},
		{"garbage after zero header", func(b []byte) []byte {
			return append(b, 0, 0, 0, 0, 0, 0, 0, 0, 'x')
		}, scanCorrupt, 3},
		{"payload larger than the read buffer", func(b []byte) []byte {
			return appendFrame(appendFrame(b, big), []byte("after"))
		}, scanClean, 5},
		{"torn payload larger than the read buffer", func(b []byte) []byte {
			return appendFrame(b, big)[:len(b)+frameHeaderSize+scanBufSize+7]
		}, scanTorn, 3},
		{"bad crc larger than the read buffer, zero tail", func(b []byte) []byte {
			c := appendFrame(b, big)
			c[len(c)-1] ^= 0xff
			return append(c, make([]byte, scanBufSize)...)
		}, scanTorn, 3},
		{"torn tail across a buffer boundary", func(b []byte) []byte {
			// Cut mid-header of the frame that spans byte scanBufSize.
			cut := len(b) + (scanBufSize/runFrameLen)*runFrameLen + 3
			return append(b, run...)[:cut]
		}, scanTorn, 3 + scanBufSize/runFrameLen},
		{"zero-fill across a buffer boundary", func(b []byte) []byte {
			return append(b, make([]byte, 2*scanBufSize)...)
		}, scanTorn, 3},
		{"garbage after zero-fill across a buffer boundary", func(b []byte) []byte {
			return append(append(b, make([]byte, scanBufSize+1)...), 'x')
		}, scanCorrupt, 3},
		{"oversized length past the end", func(b []byte) []byte {
			return append(binary.LittleEndian.AppendUint32(b, MaxRecordSize+1), 1, 2, 3, 4, 'x')
		}, scanTorn, 3},
	}
	sc := newFrameScanner()
	for _, tc := range cases {
		buf := tc.mutate(append([]byte(nil), stream...))
		res, err := sc.scan(bytes.NewReader(buf), nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.status != tc.status || res.frames != tc.frames {
			t.Errorf("%s: status %v frames %d, want %v/%d", tc.name, res.status, res.frames, tc.status, tc.frames)
		}
		if res.size != int64(len(buf)) {
			t.Errorf("%s: size %d, want %d", tc.name, res.size, len(buf))
		}
	}
}

// TestRecordsWithZeroBytes ensures payload content is opaque: records full
// of zeros round-trip (the zero-fill heuristic only applies to damaged
// tails, never to intact frames).
func TestRecordsWithZeroBytes(t *testing.T) {
	dir := t.TempDir()
	recs := [][]byte{make([]byte, 40), {0, 1, 0, 2, 0}, make([]byte, 7)}
	j, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, recs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := replayAll(t, j2); !equalRecords(got, recs) {
		t.Fatalf("zero-byte records did not round-trip: %d records", len(got))
	}
}

func TestParseSeqRejectsStrays(t *testing.T) {
	for _, name := range []string{
		"seg-.wal", "seg-xyz.wal", "seg-0001.wal", "snap-0000000000000001.wal",
		"seg-0000000000000001.snap", "ledger.json", "seg-0000000000000001.wal.tmp",
	} {
		if _, ok := parseSeq(name, "seg-", ".wal"); ok {
			t.Errorf("parseSeq accepted %q", name)
		}
	}
	seq, ok := parseSeq(fmt.Sprintf("seg-%016x.wal", 42), "seg-", ".wal")
	if !ok || seq != 42 {
		t.Fatalf("parseSeq round trip: %d %v", seq, ok)
	}
}

// TestRecoveryMemoryBounded pins what recovery allocates to the largest
// record, not to the journal: reopening and replaying 8 MiB, then 16 MiB,
// of records across 4 MiB segments allocates under 1 MiB each time.
func TestRecoveryMemoryBounded(t *testing.T) {
	dir := t.TempDir()
	batch := make([][]byte, 256)
	for i := range batch {
		batch[i] = bytes.Repeat([]byte{byte(i + 1)}, 800)
	}
	var written, appended int
	for _, target := range []int{8 << 20, 16 << 20} {
		j, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		for ; written < target; written += len(batch) * 800 {
			if err := j.AppendMany(batch); err != nil {
				t.Fatal(err)
			}
			appended += len(batch)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		j, err = Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		if err := j.Replay(func(rec []byte) error {
			n++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if n != appended {
			t.Fatalf("replayed %d records, appended %d", n, appended)
		}
		if delta := after.TotalAlloc - before.TotalAlloc; delta >= 1<<20 {
			t.Errorf("Open+Replay of %d MiB allocated %d bytes, want under 1 MiB", written>>20, delta)
		} else {
			t.Logf("Open+Replay of %d MiB allocated %d bytes", written>>20, delta)
		}
	}
}

// TestReplayRefusesSegmentChangedSinceOpen: Replay reads exactly the
// prefix Open validated, and a segment cut short in between is reported,
// not replayed as a shorter ledger.
func TestReplayRefusesSegmentChangedSinceOpen(t *testing.T) {
	dir := t.TempDir()
	segs := buildDir(t, dir, records(5), DefaultSegmentBytes)
	j, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()-3); err != nil {
		t.Fatal(err)
	}
	if err := j.Replay(func([]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay of a segment cut short after Open: %v", err)
	}
}
