package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	}
	for _, tc := range cases {
		buf := tc.mutate(append([]byte(nil), stream...))
		_, frames, status, err := scanFrames(buf, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if status != tc.status || frames != tc.frames {
			t.Errorf("%s: status %v frames %d, want %v/%d", tc.name, status, frames, tc.status, tc.frames)
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
