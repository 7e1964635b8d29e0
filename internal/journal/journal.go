// Package journal is a stdlib-only append-only write-ahead journal for
// the broker's sale ledger — the marketplace's only irreplaceable state.
// Datasets and trained models are relisted from source on restart; the
// record of who bought what at which price is not reproducible, so it
// must survive kill -9.
//
// On disk a journal directory holds at most one snapshot plus a run of
// segment files:
//
//	snap-%016x.snap   full state at a point in time, written atomically
//	seg-%016x.wal     CRC32C-framed records appended since then
//
// Records are length-prefixed, checksummed frames (see frame.go).
// Segments rotate at Options.SegmentBytes; the snapshot's sequence number
// N means "this snapshot folds in every record of every segment with
// sequence < N", so recovery loads the newest snapshot and replays the
// segments at or above its sequence, in order.
//
// Recovery tolerates exactly the damage a crash can cause: a torn final
// write in the final segment is truncated away, while a bad frame with
// valid data after it — damage to records that were once durable — makes
// recovery refuse rather than silently drop sales (ErrCorrupt).
//
// Durability is configurable per deployment via SyncPolicy: group commit
// (the default: no acknowledged append is ever lost, and concurrent
// appenders share one frame write and one fsync), fsync on an interval
// (bounded loss window, near-zero fsync amplification), or leave flushing
// to the OS (benchmarks).
package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"nimbus/internal/telemetry"
)

// SyncPolicy selects when appends are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncGroup is group commit, and the zero value: every append is
	// acknowledged only after an fsync covering its record returns — a
	// sale acknowledged to the buyer is on stable storage before the
	// response leaves the broker — but concurrent appenders batch into a
	// single frame-buffer write and a single fsync, so the flush rate is
	// one per batch, not one per record. An uncontended append is a batch
	// of one: one write, one fsync.
	SyncGroup SyncPolicy = iota
	// SyncInterval marks appends dirty and fsyncs at most once per
	// Options.SyncEvery (plus at rotation, compaction and Close). A crash
	// loses at most the final window of sales; the disk sees a bounded
	// flush rate regardless of traffic.
	SyncInterval
	// SyncNever leaves flushing entirely to the OS page cache. Only the
	// process dying is survivable, not the machine; meant for benchmarks
	// and tests.
	SyncNever
)

// ParseSyncPolicy maps the CLI spellings onto a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "group":
		return SyncGroup, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("journal: unknown sync policy %q (want group, interval or never; group fsyncs every acknowledged append)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncGroup:
		return "group"
	case SyncInterval:
		return "interval"
	default:
		return "never"
	}
}

// Defaults for Options zero values.
const (
	DefaultSegmentBytes = 4 << 20
	DefaultSyncEvery    = 100 * time.Millisecond
)

// Options configures a journal. The zero value is usable: OS filesystem,
// 4 MiB segments, group commit (every append fsynced before it returns).
type Options struct {
	// SegmentBytes is the rotation threshold: a segment that reaches this
	// many bytes is sealed and a fresh one started.
	SegmentBytes int64
	// Sync is the fsync policy for appends.
	Sync SyncPolicy
	// SyncEvery is the flush interval under SyncInterval.
	SyncEvery time.Duration
	// FS overrides the filesystem, for fault injection. Nil means OSFS.
	FS FS
	// Telemetry, when non-nil, receives the journal's metrics:
	// append latency/count/bytes, fsyncs, rotations, compactions, and
	// the recovery counters (replayable records, truncated tail bytes).
	Telemetry *telemetry.Registry
}

// ErrClosed is returned by operations on a closed journal.
var ErrClosed = errors.New("journal: closed")

// ErrCorrupt marks unrecoverable journal damage: a bad frame in the
// middle of the record stream (not a torn tail), or a missing segment.
// Wrapped errors carry the segment and offset.
var ErrCorrupt = errors.New("journal: corrupt")

// Journal is an open write-ahead journal. It is safe for concurrent use;
// appends are serialized, so record order on disk is the order AppendMany
// calls returned.
type Journal struct {
	dir  string
	opts Options
	fs   FS

	mu       sync.Mutex
	tail     File   // guarded by mu
	tailSeq  uint64 // guarded by mu
	tailSize int64  // guarded by mu
	dirty    bool   // guarded by mu; bytes written since the last fsync
	armed    bool   // guarded by mu; an interval flush countdown is pending
	failed   error  // guarded by mu; sticky: a failed write/sync poisons the journal until reopen
	closed   bool   // guarded by mu
	buf      []byte // guarded by mu; frame scratch, reused across appends

	// group is the SyncGroup batching seam; it has its own lock so a
	// batch can accumulate arrivals while the previous batch's leader is
	// inside the fsync under mu.
	group groupState

	// flushc arms the interval flush countdown: the first append to dirty
	// the tail sends one token, and syncLoop flushes SyncEvery later — the
	// durability window is anchored to the append itself, and an idle
	// journal costs no timer wakeups.
	flushc chan struct{}

	// Recovery state captured at Open, consumed by Snapshot/Replay.
	replay   []segmentInfo
	snapSeq  uint64
	snapPath string

	done chan struct{} // stops the interval sync loop
	wg   sync.WaitGroup

	tel journalTelemetry
}

// segmentInfo is one segment as found at Open: its valid byte length is
// pinned so Replay sees exactly the recovered prefix even if appends have
// extended the file since.
type segmentInfo struct {
	seq    uint64
	path   string
	size   int64
	frames int
}

// journalTelemetry bundles the metric handles; all are nil-safe.
type journalTelemetry struct {
	appendLatency  *telemetry.Histogram
	appends        *telemetry.Counter
	appendBytes    *telemetry.Counter
	fsyncs         *telemetry.Counter
	rotations      *telemetry.Counter
	compactions    *telemetry.Counter
	recoveredRecs  *telemetry.Counter
	truncatedBytes *telemetry.Counter
	segments       *telemetry.Gauge
	groupCommits   *telemetry.Counter
	groupBatchRecs *telemetry.Histogram
}

func (j *Journal) initTelemetry(reg *telemetry.Registry) {
	reg.Help("nimbus_journal_append_seconds", "Latency of one journal append, including fsync under the group policy.")
	reg.Help("nimbus_journal_appends_total", "Records appended to the journal.")
	reg.Help("nimbus_journal_append_bytes_total", "Payload bytes appended to the journal.")
	reg.Help("nimbus_journal_fsyncs_total", "fsync calls issued by the journal.")
	reg.Help("nimbus_journal_rotations_total", "Segment rotations.")
	reg.Help("nimbus_journal_compactions_total", "Snapshot compactions.")
	reg.Help("nimbus_journal_recovered_records_total", "Records replayed from the journal at startup.")
	reg.Help("nimbus_journal_recovered_truncated_bytes_total", "Torn-tail bytes truncated during recovery.")
	reg.Help("nimbus_journal_segments", "Segment files currently on disk.")
	reg.Help("nimbus_journal_group_commits_total", "Group-commit batches flushed under the group sync policy.")
	reg.Help("nimbus_journal_group_batch_records", "Records per group-commit batch.")
	j.tel = journalTelemetry{
		appendLatency:  reg.Histogram("nimbus_journal_append_seconds", nil),
		appends:        reg.Counter("nimbus_journal_appends_total"),
		appendBytes:    reg.Counter("nimbus_journal_append_bytes_total"),
		fsyncs:         reg.Counter("nimbus_journal_fsyncs_total"),
		rotations:      reg.Counter("nimbus_journal_rotations_total"),
		compactions:    reg.Counter("nimbus_journal_compactions_total"),
		recoveredRecs:  reg.Counter("nimbus_journal_recovered_records_total"),
		truncatedBytes: reg.Counter("nimbus_journal_recovered_truncated_bytes_total"),
		segments:       reg.Gauge("nimbus_journal_segments"),
		groupCommits:   reg.Counter("nimbus_journal_group_commits_total"),
		groupBatchRecs: reg.Histogram("nimbus_journal_group_batch_records", []float64{1, 2, 4, 8, 16, 32, 64, 128}),
	}
}

// Open recovers the journal in dir (creating it if needed) and readies it
// for appends: it locates the newest snapshot, validates the segment tail
// after it, truncates a torn final write, and opens the last segment for
// appending. Damage that cannot be attributed to a torn tail returns
// ErrCorrupt. After Open, read the recovered state via Snapshot and
// Replay, then AppendMany away.
//
//lint:owns the journal holds an open segment file (and under SyncInterval a flusher goroutine); the caller must Close it on every path
func Open(dir string, opts Options) (*Journal, error) {
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating %s: %w", dir, err)
	}
	j := &Journal{dir: dir, opts: opts, fs: opts.FS}
	j.group.cond = sync.NewCond(&j.group.mu)
	j.initTelemetry(opts.Telemetry)
	if err := j.recover(); err != nil {
		return nil, err
	}
	// No other goroutine can reach j yet, but openTail and segmentsOnDisk
	// touch mu-guarded tail state, so honor the contract anyway — it keeps
	// the locking story uniform and costs one uncontended lock at startup.
	j.mu.Lock()
	err := j.openTail()
	if err == nil {
		j.tel.segments.Set(float64(j.segmentsOnDisk()))
	}
	j.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if opts.Sync == SyncInterval {
		j.done = make(chan struct{})
		j.flushc = make(chan struct{}, 1)
		j.wg.Add(1)
		go j.syncLoop()
	}
	return j, nil
}

// segmentsOnDisk counts the recovered segments plus the tail, without
// double-counting when the tail is a recovered segment.
//
//lint:holds mu
func (j *Journal) segmentsOnDisk() int {
	n := len(j.replay)
	if n == 0 || j.replay[n-1].seq != j.tailSeq {
		n++
	}
	return n
}

// checkRecord validates one record against the append preconditions.
func checkRecord(rec []byte) error {
	if len(rec) == 0 {
		return errors.New("journal: empty record")
	}
	if int64(len(rec)) > MaxRecordSize {
		//lint:allocok refusal path: the record is being rejected, not written
		return fmt.Errorf("journal: record of %d bytes exceeds MaxRecordSize", len(rec))
	}
	return nil
}

// AppendMany writes a run of records as one frame-buffer write, making
// them durable according to the sync policy before returning. The batch
// is atomic against failure: if the write cannot complete, the tail is
// truncated back so none of the batch's frames remain on disk (a torn
// tail a crash leaves behind is still recovered to a prefix of the
// batch). Under SyncGroup the whole run joins the in-flight batch as a
// unit, preserving its internal order.
//
//lint:hotpath write-ahead step of every durable sale
func (j *Journal) AppendMany(recs [][]byte) error {
	if len(recs) == 0 {
		return nil
	}
	for _, rec := range recs {
		if err := checkRecord(rec); err != nil {
			return err
		}
	}
	start := time.Now()
	var err error
	if j.opts.Sync == SyncGroup {
		err = j.groupCommit(recs)
	} else {
		j.mu.Lock()
		err = j.writeLocked(recs, false)
		j.mu.Unlock()
	}
	if err != nil {
		return err
	}
	j.tel.appendLatency.Observe(time.Since(start).Seconds())
	return nil
}

// writeLocked frames recs into one buffer, writes it to the tail in a
// single call, optionally fsyncs, and rotates a full segment. It is the
// shared core of every append path. Caller holds j.mu.
//
//lint:holds mu
func (j *Journal) writeLocked(recs [][]byte, fsync bool) error {
	if j.closed {
		return ErrClosed
	}
	if j.failed != nil {
		//lint:allocok refusal path: the journal is poisoned and the append is rejected
		return fmt.Errorf("journal: poisoned by earlier failure: %w", j.failed)
	}
	j.buf = j.buf[:0]
	var payload int
	for _, rec := range recs {
		j.buf = appendFrame(j.buf, rec)
		payload += len(rec)
	}
	if _, err := j.tail.Write(j.buf); err != nil {
		// The write may have landed partially, leaving a torn frame in
		// the middle of a live file. Try to cut the whole batch back off;
		// if that also fails, poison the journal — appending after a torn
		// frame would manufacture exactly the mid-stream corruption
		// recovery refuses.
		if terr := j.tail.Truncate(j.tailSize); terr != nil {
			//lint:allocok failure path: the write already failed
			j.failed = fmt.Errorf("append failed (%v) and truncate-back failed (%v)", err, terr)
		}
		//lint:allocok failure path: the write already failed
		return fmt.Errorf("journal: append: %w", err)
	}
	j.tailSize += int64(len(j.buf))
	j.dirty = true
	if fsync {
		if err := j.tail.Sync(); err != nil {
			//lint:allocok failure path: the fsync already failed
			j.failed = fmt.Errorf("fsync failed: %w", err)
			//lint:allocok failure path: the fsync already failed
			return fmt.Errorf("journal: append fsync: %w", err)
		}
		j.dirty = false
		j.tel.fsyncs.Inc()
	} else if j.opts.Sync == SyncInterval {
		j.armFlushLocked()
	}
	if j.tailSize >= j.opts.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			// The records themselves are safely in the sealed segment;
			// only the rotation failed. Poison so the operator finds out.
			j.failed = err
			//lint:allocok failure path: the rotation already failed
			return fmt.Errorf("journal: rotating segment: %w", err)
		}
	}
	j.tel.appends.Add(uint64(len(recs)))
	j.tel.appendBytes.Add(uint64(payload))
	return nil
}

// groupState is the SyncGroup batching seam. Arrivals append their
// records to the current batch; the first arrival with no flush in
// flight becomes the batch's leader, steals it, and performs one
// writeLocked(fsync) for everyone. Waiters are woken when their batch's
// flush completes and a new leader self-promotes from the next batch, so
// no background goroutine is needed and an abandoned batch cannot exist
// (every batch contains at least the caller that created it).
type groupState struct {
	mu       sync.Mutex
	cond     *sync.Cond  // signals flush completion; waiters re-check their batch
	cur      *groupBatch // guarded by mu; the batch accumulating arrivals
	flushing bool        // guarded by mu; a leader is inside write+fsync
}

// groupBatch is one group-commit unit. Its fields are owned by the
// groupState lock until the batch is stolen by its leader; recs is then
// read only by that leader.
type groupBatch struct {
	recs [][]byte
	done bool
	err  error
}

// groupCommit appends recs to the forming batch and returns once a
// flush covering them has completed — the caller's records are on stable
// storage when this returns nil.
func (j *Journal) groupCommit(recs [][]byte) error {
	g := &j.group
	g.mu.Lock()
	if g.cur == nil {
		//lint:allocok one batch header per group-commit window, amortized over every record in the batch
		g.cur = &groupBatch{}
	}
	b := g.cur
	//lint:allocok batch slice grows toward the window's size; the doubling amortizes across the batch
	b.recs = append(b.recs, recs...)
	for g.flushing && !b.done {
		g.cond.Wait()
	}
	if b.done {
		// Another caller led our batch while we waited; its verdict is ours.
		err := b.err
		g.mu.Unlock()
		return err
	}
	// No flush in flight and our batch not yet flushed: lead it. New
	// arrivals start the next batch and wait for us to finish.
	g.flushing = true
	g.cur = nil
	g.mu.Unlock()

	j.mu.Lock()
	err := j.writeLocked(b.recs, true)
	j.mu.Unlock()
	j.tel.groupCommits.Inc()
	j.tel.groupBatchRecs.Observe(float64(len(b.recs)))

	g.mu.Lock()
	b.done, b.err = true, err
	g.flushing = false
	g.cond.Broadcast()
	g.mu.Unlock()
	return err
}

// armFlushLocked starts one SyncEvery countdown if none is pending, so
// dirty bytes are flushed at most SyncEvery after the append that first
// dirtied the tail. Caller holds j.mu.
//
//lint:holds mu
func (j *Journal) armFlushLocked() {
	if j.armed || j.flushc == nil {
		return
	}
	j.armed = true
	select {
	case j.flushc <- struct{}{}:
	default:
	}
}

// rotateLocked seals the tail segment (fsync + close) and starts the next
// one. Caller holds j.mu.
//
//lint:holds mu
func (j *Journal) rotateLocked() error {
	if err := j.tail.Sync(); err != nil {
		//lint:allocok failure path: the seal fsync already failed
		return fmt.Errorf("sealing segment %d: %w", j.tailSeq, err)
	}
	j.tel.fsyncs.Inc()
	j.dirty = false
	if err := j.tail.Close(); err != nil {
		//lint:allocok failure path: the close already failed
		return fmt.Errorf("closing segment %d: %w", j.tailSeq, err)
	}
	f, err := j.createSegment(j.tailSeq + 1)
	if err != nil {
		return err
	}
	j.tail = f
	j.tailSeq++
	j.tailSize = 0
	j.tel.rotations.Inc()
	j.tel.segments.Add(1)
	return nil
}

// createSegment creates the segment file for seq and makes its directory
// entry durable.
func (j *Journal) createSegment(seq uint64) (File, error) {
	path := filepath.Join(j.dir, segName(seq))
	f, err := j.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		//lint:allocok failure path: the segment create already failed
		return nil, fmt.Errorf("creating segment %d: %w", seq, err)
	}
	if err := j.fs.SyncDir(j.dir); err != nil {
		//lint:ignore no-dropped-error best-effort cleanup; the directory-sync failure is what gets reported
		f.Close()
		//lint:allocok failure path: the directory sync already failed
		return nil, fmt.Errorf("syncing journal directory: %w", err)
	}
	return f, nil
}

// Sync forces dirty appends to stable storage regardless of policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.syncLocked()
}

// syncLocked flushes dirty appends. Caller holds j.mu.
//
//lint:holds mu
func (j *Journal) syncLocked() error {
	if !j.dirty {
		return nil
	}
	if err := j.tail.Sync(); err != nil {
		j.failed = fmt.Errorf("fsync failed: %w", err)
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.dirty = false
	j.tel.fsyncs.Inc()
	return nil
}

// syncLoop drives the interval policy. The countdown is armed by the
// first append that dirties a clean tail (armFlushLocked sends one
// flushc token) and fires SyncEvery later, so the durability window is
// anchored to the append itself: a burst followed by idleness is flushed
// at most SyncEvery after its first record, and an idle journal costs no
// timer wakeups at all. A free-running ticker would instead let dirty
// bytes written just after a tick sit for up to a full extra period, and
// kept waking an idle process.
func (j *Journal) syncLoop() {
	defer j.wg.Done()
	t := time.NewTimer(j.opts.SyncEvery)
	if !t.Stop() {
		<-t.C
	}
	defer t.Stop()
	for {
		select {
		case <-j.done:
			return
		case <-j.flushc:
			t.Reset(j.opts.SyncEvery)
		case <-t.C:
			j.mu.Lock()
			j.armed = false
			if !j.closed {
				// syncLocked records a failure in j.failed, which the
				// next AppendMany reports; the loop itself has no caller to
				// tell.
				if err := j.syncLocked(); err != nil {
					j.mu.Unlock()
					return
				}
			}
			j.mu.Unlock()
		}
	}
}

// Close flushes and closes the tail segment. Further operations return
// ErrClosed. Close is idempotent.
func (j *Journal) Close() error {
	// Manual unlock: the lock must be released before wg.Wait, or a
	// concurrent syncLoop tick blocked on j.mu could never observe closed
	// and exit.
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	done := j.done
	j.mu.Unlock()
	if done != nil {
		close(done)
		j.wg.Wait()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var err error
	if j.dirty && j.failed == nil {
		if serr := j.tail.Sync(); serr != nil {
			err = fmt.Errorf("journal: closing flush: %w", serr)
		} else {
			j.dirty = false
			j.tel.fsyncs.Inc()
		}
	}
	if cerr := j.tail.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("journal: closing segment: %w", cerr)
	}
	return err
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// segName and snapName are the on-disk naming scheme; sequence numbers
// are zero-padded hex so lexical order is numeric order.
//lint:allocok one name per segment rotation, SegmentBytes apart
func segName(seq uint64) string  { return fmt.Sprintf("seg-%016x.wal", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%016x.snap", seq) }
