package journal

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// dirState is what a listing of the journal directory parses into.
type dirState struct {
	snapSeq  uint64 // newest snapshot's sequence, 0 if none
	snapPath string
	snapFile os.DirEntry // newest snapshot's directory entry
	// segs maps every segment sequence on disk to its path.
	segs map[uint64]string
	// staleSnaps are superseded snapshot files (older sequence).
	staleSnaps []string
}

// listDir parses the journal directory. Unknown files (including .tmp
// leftovers from an interrupted atomic write) are ignored.
func listDir(fsys FS, dir string) (*dirState, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("journal: listing %s: %w", dir, err)
	}
	st := &dirState{segs: make(map[uint64]string)}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if seq, ok := parseSeq(name, "seg-", ".wal"); ok {
			st.segs[seq] = filepath.Join(dir, name)
			continue
		}
		if seq, ok := parseSeq(name, "snap-", ".snap"); ok {
			if seq > st.snapSeq {
				if st.snapPath != "" {
					st.staleSnaps = append(st.staleSnaps, st.snapPath)
				}
				st.snapSeq, st.snapPath, st.snapFile = seq, filepath.Join(dir, name), e
			} else {
				st.staleSnaps = append(st.staleSnaps, filepath.Join(dir, name))
			}
		}
	}
	return st, nil
}

// parseSeq extracts the hex sequence from prefix<seq>suffix names.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hexpart := name[len(prefix) : len(name)-len(suffix)]
	if len(hexpart) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hexpart, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// recover scans the directory, removes files a finished compaction made
// redundant, validates the segments newer than the snapshot, and repairs
// a torn tail. On return j.replay/j.snapSeq/j.snapPath describe the
// recovered state.
func (j *Journal) recover() error {
	st, err := listDir(j.fs, j.dir)
	if err != nil {
		return err
	}
	j.snapSeq, j.snapPath = st.snapSeq, st.snapPath

	// A crash between a compaction's snapshot rename and its removals
	// leaves covered segments and superseded snapshots behind; they are
	// redundant by construction, so finish the job.
	for _, p := range st.staleSnaps {
		if err := j.fs.Remove(p); err != nil {
			return fmt.Errorf("journal: removing stale snapshot %s: %w", p, err)
		}
	}
	var seqs []uint64
	for seq, path := range st.segs {
		if seq < st.snapSeq {
			if err := j.fs.Remove(path); err != nil {
				return fmt.Errorf("journal: removing compacted segment %s: %w", path, err)
			}
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(a, b int) bool { return seqs[a] < seqs[b] })

	// The replayed run must be contiguous and must start where the
	// snapshot left off (sequence 1 on a snapshotless journal): a hole
	// means records that were once durable are gone, which is not a torn
	// tail.
	if len(seqs) > 0 {
		first := uint64(1)
		if st.snapSeq > 0 {
			first = st.snapSeq
		}
		if seqs[0] != first {
			return fmt.Errorf("%w: first segment after snapshot should be %d, found %d", ErrCorrupt, first, seqs[0])
		}
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			return fmt.Errorf("%w: segment %d missing (have %d then %d)", ErrCorrupt, seqs[i-1]+1, seqs[i-1], seqs[i])
		}
	}

	var recovered int
	var truncated int64
	sc := newFrameScanner()
	for i, seq := range seqs {
		path := st.segs[seq]
		res, err := sc.scanFile(j.fs, path, math.MaxInt64, nil)
		if err != nil {
			return fmt.Errorf("journal: reading segment %s: %w", path, err)
		}
		final := i == len(seqs)-1
		switch {
		case res.status == scanClean:
			// intact
		case res.status == scanTorn && final:
			// The one kind of damage a crash legitimately causes: a write
			// cut short at the very end of the log. Cut it off so appends
			// resume at a frame boundary.
			if err := j.truncateSegment(path, res.validLen); err != nil {
				return err
			}
			truncated += res.size - res.validLen
		case res.status == scanTorn:
			// A torn tail in a non-final segment means every record in the
			// segments after it postdates the damage: mid-stream corruption.
			return fmt.Errorf("%w: segment %s torn at offset %d but later segments exist", ErrCorrupt, path, res.validLen)
		default:
			return fmt.Errorf("%w: segment %s has a bad frame at offset %d followed by data", ErrCorrupt, path, res.validLen)
		}
		recovered += res.frames
		j.replay = append(j.replay, segmentInfo{seq: seq, path: path, size: res.validLen, frames: res.frames})
	}
	j.tel.recoveredRecs.Add(uint64(recovered))
	j.tel.truncatedBytes.Add(uint64(truncated))
	return nil
}

// truncateSegment cuts a torn tail off at size and makes the repair
// durable.
func (j *Journal) truncateSegment(path string, size int64) error {
	f, err := j.fs.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("journal: opening %s for repair: %w", path, err)
	}
	err = f.Truncate(size)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: truncating torn tail of %s: %w", path, err)
	}
	return nil
}

// openTail positions the journal for appending: the last recovered
// segment if it has room, otherwise a fresh one. Caller holds j.mu.
//
//lint:holds mu
func (j *Journal) openTail() error {
	if n := len(j.replay); n > 0 {
		last := j.replay[n-1]
		if last.size < j.opts.SegmentBytes {
			f, err := j.fs.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				return fmt.Errorf("journal: opening tail segment: %w", err)
			}
			j.tail, j.tailSeq, j.tailSize = f, last.seq, last.size
			return nil
		}
		f, err := j.createSegment(last.seq + 1)
		if err != nil {
			return err
		}
		j.tail, j.tailSeq, j.tailSize = f, last.seq+1, 0
		return nil
	}
	// Empty journal (or everything folded into the snapshot): start at
	// the snapshot's sequence, or 1 on a fresh directory.
	seq := j.snapSeq
	if seq == 0 {
		seq = 1
	}
	f, err := j.createSegment(seq)
	if err != nil {
		return err
	}
	j.tail, j.tailSeq, j.tailSize = f, seq, 0
	return nil
}

// Snapshot returns a reader over the newest snapshot's contents, or
// ok=false when the journal has none. The caller closes it.
func (j *Journal) Snapshot() (rc io.ReadCloser, ok bool, err error) {
	if j.snapPath == "" {
		return nil, false, nil
	}
	f, err := j.fs.OpenFile(j.snapPath, os.O_RDONLY, 0)
	if err != nil {
		return nil, false, fmt.Errorf("journal: opening snapshot: %w", err)
	}
	return f, true, nil
}

// Replay streams every record that survived recovery, oldest first, to
// fn; a non-nil error from fn aborts the replay. rec is valid only during
// the call: Replay reuses its buffer for the next record, so fn copies
// whatever it keeps. Call Replay once after Open (and after applying
// Snapshot), before appending: records appended after Open are not
// replayed.
func (j *Journal) Replay(fn func(rec []byte) error) error {
	sc := newFrameScanner()
	for _, seg := range j.replay {
		res, err := sc.scanFile(j.fs, seg.path, seg.size, fn)
		if err != nil {
			return fmt.Errorf("journal: replaying %s: %w", seg.path, err)
		}
		if res.status != scanClean || res.frames != seg.frames {
			return fmt.Errorf("%w: segment %s changed since Open: %d of %d frames intact", ErrCorrupt, seg.path, res.frames, seg.frames)
		}
	}
	return nil
}
