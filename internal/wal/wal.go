// Package wal is a crash-safe write-ahead log: CRC32-framed,
// length-prefixed, sequence-numbered records appended to rotating
// segment files, with a configurable fsync policy and a recovery reader
// that tolerates a torn tail. It is the durability substrate under
// SEPTIC's learned query models (core.Persistence): every acknowledged
// training update is appended here before it is published in memory, so
// a crash, OOM-kill or power loss between the boot-time Load and the
// shutdown Save no longer silently discards everything learned since
// startup.
//
// # Frame format
//
// Each record is one frame:
//
//	offset size
//	0      4    CRC32-C (Castagnoli) over bytes [4, 16+len)
//	4      4    payload length, little-endian uint32
//	8      8    sequence number, little-endian uint64
//	16     len  payload (opaque bytes)
//
// Sequence numbers start at 1 and increase by exactly 1 across segment
// boundaries; a gap or repeat is treated as corruption. The CRC covers
// the length and sequence fields as well as the payload, so a frame
// whose header lies about its length fails the checksum instead of
// desynchronizing the reader.
//
// # Segments
//
// The log is a directory of segment files named %020d.wal after the
// sequence number of their first record. Appends go to the highest
// segment; when it would exceed Options.SegmentSize the segment is
// sealed (fsynced, closed) and a new one is created, with a directory
// fsync so the new name itself is durable. Sealed segments are deleted
// by TrimTo once a checkpoint has made their records redundant. The
// name is load-bearing: after a trim the active segment may hold zero
// valid records (a crash right after rotation), and recovery seeds the
// next sequence number from the name so appends can never restart below
// a checkpoint barrier and vanish behind its replay filter.
//
// The directory is single-writer: Open takes an exclusive flock on a
// LOCK file inside it and fails fast with ErrLocked when another log —
// in this or any other process — already holds it, so two daemons
// pointed at the same -wal-dir cannot interleave conflicting sequence
// numbers. The kernel releases the lock when the holding process dies.
//
// Recovery distinguishes crash debris from real damage. A torn tail in
// the NEWEST segment is the expected residue of a crash: it is
// truncated at the last good frame, counted, and the log continues.
// Invalid frames in any earlier segment can never come from a crash
// (segments are fsynced before rotation moves on), so Open refuses with
// ErrMidLogCorrupt rather than silently dropping the acknowledged
// records in intact later segments; Options.ForceRecover is the
// explicit override that truncates the damage and drops (and counts)
// everything after it.
//
// # Durability and failure semantics
//
// Append returns only after the frame is written — and, under
// FsyncAlways, covered by a completed fsync — so its return IS the
// acknowledgement the crash-chaos suite holds the log to: with
// FsyncAlways, a record whose Append returned nil survives any
// subsequent crash. Any write or fsync error (or an injected crash
// unwinding mid-frame) poisons the log: the on-disk tail is unknowable
// from user space after a failed write, so every later Append fails with
// ErrLogFailed until the process reopens the directory and lets recovery
// truncate the tear. The alternative — appending past a possibly-torn
// frame — would strand durable, acknowledged records behind a bad frame
// where recovery must drop them.
//
// # Group commit and the durable horizon
//
// Under FsyncAlways the fsync is paid per commit group, not per record.
// Append writes its frame under the log mutex, then waits until the
// durable horizon — the highest sequence number a completed fsync
// covers — reaches it. Whichever waiter finds no flush in flight
// becomes the leader: it notes the last sequence written, releases the
// mutex, fsyncs, re-locks, advances the horizon to what it noted and
// wakes the rest. Frames written while the leader was inside the fsync
// form the next group. The commit window is exactly "one fsync in
// flight": no timer, no batch size, and a lone writer still pays one
// fsync per record with nothing added. A failed (or crash-interrupted)
// flush poisons the log and fails every waiter it would have covered.
// Sync, the FsyncInterval ticker and the rotation seal go through the
// same flush, so the horizon is advanced in one place. Tail watchers,
// ReadFrom and DurableSeq expose nothing above the horizon: a replica
// never receives a record the primary might not recover.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/septic-db/septic/internal/faultinject"
	"github.com/septic-db/septic/internal/obs"
)

// FsyncPolicy selects when appends are made durable.
type FsyncPolicy int

// Fsync policies. Enums start at 1 so the zero value is invalid.
const (
	FsyncInvalid FsyncPolicy = iota
	// FsyncAlways acknowledges an append only after an fsync that covers
	// it: an Append that returned nil survives any crash. Concurrent
	// appends share one fsync per commit group. The policy the durability
	// guarantee is stated under.
	FsyncAlways
	// FsyncInterval fsyncs on a background timer (Options.Interval):
	// bounded data loss — at most one interval of acknowledged appends —
	// for near-FsyncNever append latency.
	FsyncInterval
	// FsyncNever leaves flushing to the OS page cache: fastest, loses up
	// to everything since the last kernel writeback on power loss, but
	// still torn-tail-safe (recovery truncates, never corrupts).
	FsyncNever
)

// String names the policy the way the septicd flag spells it.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy maps a flag string to its policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return FsyncInvalid, fmt.Errorf("unknown fsync policy %q (want always, interval or never)", s)
	}
}

const (
	// frameHeaderSize is the fixed per-record framing overhead.
	frameHeaderSize = 16
	// MaxRecordSize bounds one payload; a frame header claiming more is
	// corruption (a "lying length"), not a huge record.
	MaxRecordSize = 16 << 20
	// DefaultSegmentSize is the rotation threshold.
	DefaultSegmentSize = 4 << 20
	// DefaultInterval is the FsyncInterval flush period.
	DefaultInterval = 100 * time.Millisecond
	// scratchKeep bounds the frame buffer the log keeps between appends;
	// a larger record is encoded into a one-off buffer instead.
	scratchKeep = 64 << 10
	// segmentSuffix names segment files.
	segmentSuffix = ".wal"
	// lockFileName is the flock target guarding the directory against a
	// second writer.
	lockFileName = "LOCK"
)

// castagnoli is the CRC32-C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrLogFailed is wrapped by every Append after the log is poisoned by
// a write or fsync failure; the process must reopen the directory to
// recover.
var ErrLogFailed = errors.New("wal: log failed, reopen to recover")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrLocked is returned by Open when another log — in this process or
// any other — holds the directory's exclusive lock.
var ErrLocked = errors.New("wal: directory locked by another log")

// ErrMidLogCorrupt is returned by Open when a segment other than the
// newest has invalid frames. That can never be crash debris (sealed
// segments are fsynced before rotation proceeds), and recovering past
// it would drop the acknowledged records in the intact later segments;
// set Options.ForceRecover to do exactly that, explicitly.
var ErrMidLogCorrupt = errors.New("wal: mid-log corruption")

// Options configures a log directory.
type Options struct {
	// Dir is the segment directory, created if absent.
	Dir string
	// Policy is the fsync policy; default FsyncAlways.
	Policy FsyncPolicy
	// Interval is the FsyncInterval flush period; default
	// DefaultInterval.
	Interval time.Duration
	// SegmentSize is the rotation threshold; default DefaultSegmentSize.
	SegmentSize int64
	// ForceRecover recovers past mid-log damage by truncating the
	// damaged segment and dropping every later one (counted in
	// RecoveryInfo). Default false: Open fails with ErrMidLogCorrupt
	// instead, refusing to silently discard acknowledged records.
	ForceRecover bool
	// Metrics, when non-nil, receives the wal.fsync latency histogram and
	// the wal.group_size / wal.group_size_max gauges (records made durable
	// by the latest fsync, and by the largest one).
	Metrics *obs.Registry
}

// withDefaults resolves zero fields.
func (o Options) withDefaults() Options {
	if o.Policy == FsyncInvalid {
		o.Policy = FsyncAlways
	}
	if o.Interval <= 0 {
		o.Interval = DefaultInterval
	}
	if o.SegmentSize <= 0 {
		o.SegmentSize = DefaultSegmentSize
	}
	return o
}

// Stats is a snapshot of the log's work counters.
type Stats struct {
	// Appends counts records successfully appended this process.
	Appends int64
	// AppendErrors counts Append calls that failed.
	AppendErrors int64
	// Fsyncs counts fsyncs of the active segment.
	Fsyncs int64
	// Rotations counts segment seals.
	Rotations int64
	// Trimmed counts sealed segments deleted by TrimTo.
	Trimmed int64
	// LastSeq is the highest sequence number assigned.
	LastSeq uint64
}

// segmentInfo records one sealed (read-only) segment.
type segmentInfo struct {
	path        string
	first, last uint64
}

// Log is an open write-ahead log directory. All methods are safe for
// concurrent use; frame writes are serialized internally, fsyncs run
// outside the mutex (see "Group commit" in the package comment).
type Log struct {
	opts Options

	mu sync.Mutex
	// flushed (on mu) is broadcast whenever something a waiter looks at
	// changes: a flush ended, the log was poisoned, the log was closed.
	flushed sync.Cond
	f       *os.File // active segment
	lock    *os.File // flock'd LOCK file; released on Close/Kill
	size    int64    // bytes in active segment
	// seq is the last assigned sequence number and synced the durable
	// horizon: every record at or below it is covered by a completed
	// fsync. Both are written under mu and read without it.
	seq    atomic.Uint64
	synced atomic.Uint64
	// flushing marks a flush in flight. Its leader has released mu, so
	// frames may still be written, but the segment file must not be
	// swapped or closed and no second flush may start.
	flushing bool
	first    uint64 // first sequence number of the active segment
	sealed   []segmentInfo
	failed   error // sticky poison; nil while healthy
	closed   bool
	// watchers are live-tail subscriptions (see read.go); notified under
	// l.mu as records are acknowledged.
	watchers []*Watcher
	// pending holds the payloads of the FsyncAlways records written but
	// not yet durable, seq-len(pending)+1 … seq, for delivery to the
	// watchers once the horizon covers them. The slices are the callers'
	// own: each is blocked in Append until then, so nothing is copied.
	pending [][]byte
	// scratch is the frame encode buffer, reused across appends.
	scratch []byte

	// torn marks the window where bytes of a frame may be on disk but
	// the frame is incomplete; an unwind (panic or error) inside the
	// window poisons the log via the Append defer.
	torn bool

	appends    atomic.Int64
	appendErrs atomic.Int64
	fsyncs     atomic.Int64
	rotations  atomic.Int64
	trimmed    atomic.Int64

	fsyncLatency *obs.Histogram
	groupSize    *obs.Gauge
	groupMax     *obs.Gauge

	stopc    chan struct{}
	syncDone chan struct{}
}

// segmentName renders the file name of the segment whose first record
// has sequence number seq.
func segmentName(seq uint64) string {
	return fmt.Sprintf("%020d%s", seq, segmentSuffix)
}

// syncDir fsyncs a directory so a just-created, renamed or removed name
// in it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats snapshots the counters. It takes no lock: a metrics scrape never
// waits for an append or a flush.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:      l.appends.Load(),
		AppendErrors: l.appendErrs.Load(),
		Fsyncs:       l.fsyncs.Load(),
		Rotations:    l.rotations.Load(),
		Trimmed:      l.trimmed.Load(),
		LastSeq:      l.seq.Load(),
	}
}

// LastSeq returns the highest sequence number assigned so far (0 if the
// log is empty). Under FsyncAlways the newest of those records may still
// be waiting for their fsync; DurableSeq is the acknowledged prefix.
func (l *Log) LastSeq() uint64 { return l.seq.Load() }

// DurableSeq returns the highest sequence number that is as durable as
// the policy makes it, and therefore acknowledged: under FsyncAlways the
// durable horizon, under the other policies LastSeq. Watchers and
// ReadFrom never expose a record above it.
func (l *Log) DurableSeq() uint64 {
	if l.opts.Policy == FsyncAlways {
		return l.synced.Load()
	}
	return l.seq.Load()
}

// Err returns the sticky failure poisoning the log, or nil while it is
// healthy.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// fail poisons the log and wakes every waiter to see it. Caller holds
// l.mu.
func (l *Log) fail(cause error) {
	if l.failed == nil {
		l.failed = fmt.Errorf("%w: %w", ErrLogFailed, cause)
	}
	l.pending = nil
	l.flushed.Broadcast()
}

// stateErr reports why the log takes no more work: ErrClosed, the sticky
// poison, or nil while it is healthy. Caller holds l.mu.
func (l *Log) stateErr() error {
	if l.closed {
		return ErrClosed
	}
	return l.failed
}

// idle waits out a flush in flight, so the caller may start its own or
// swap the segment file; it fails when the log is closed or poisoned
// meanwhile. Caller holds l.mu.
func (l *Log) idle() error {
	for {
		if err := l.stateErr(); err != nil || !l.flushing {
			return err
		}
		l.flushed.Wait()
	}
}

// Append writes one record and returns its sequence number. Under
// FsyncAlways the record is durable when Append returns nil — that
// return is the acknowledgement the recovery guarantee is stated over —
// and concurrent appends share the fsync that covers them. After any
// failure the log is poisoned and every call fails with ErrLogFailed
// (see the package comment for why).
func (l *Log) Append(data []byte) (seq uint64, err error) {
	if len(data) == 0 {
		return 0, errors.New("wal: empty record")
	}
	if len(data) > MaxRecordSize {
		return 0, fmt.Errorf("wal: record %d bytes exceeds limit %d", len(data), MaxRecordSize)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// The torn flag survives both error returns and panics (an injected
	// Crash mid-write): either way bytes of an incomplete frame may be on
	// disk and the log must refuse to append past them.
	defer func() {
		if l.torn {
			l.torn = false
			l.fail(errors.New("torn append"))
		}
		if err != nil {
			l.appendErrs.Add(1)
		}
	}()
	if err := l.stateErr(); err != nil {
		return 0, err
	}
	faultinject.Hit(faultinject.SiteWALAppend)
	if ierr := faultinject.HitErr(faultinject.SiteWALAppend); ierr != nil {
		return 0, ierr // nothing written yet: injected failure, no poison
	}

	frameLen := int64(frameHeaderSize + len(data))
	if l.size > 0 && l.size+frameLen > l.opts.SegmentSize {
		// Waiting for the flush in flight lets other appenders in, and one
		// of them may have rotated already: look again afterwards.
		if err := l.idle(); err != nil {
			return 0, err
		}
		if l.size+frameLen > l.opts.SegmentSize {
			if err := l.rotate(); err != nil {
				l.fail(err)
				return 0, err
			}
		}
	}

	next := l.seq.Load() + 1
	frame := l.scratch
	if cap(frame) < int(frameLen) {
		frame = make([]byte, frameLen)
		if frameLen <= scratchKeep {
			l.scratch = frame
		}
	}
	frame = frame[:frameLen]
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(data)))
	binary.LittleEndian.PutUint64(frame[8:16], next)
	copy(frame[frameHeaderSize:], data)
	binary.LittleEndian.PutUint32(frame[0:4], crc32.Checksum(frame[4:], castagnoli))

	// Torn window: from the first byte written until the frame is
	// complete. With fault injection armed the frame goes down in two
	// halves with the short-write site between them, so an armed kill
	// leaves a genuinely torn frame for recovery to truncate; unarmed it
	// is one write call.
	l.torn = true
	if faultinject.Armed() || faultinject.ErrArmed() {
		half := len(frame) / 2
		if _, err := l.f.Write(frame[:half]); err != nil {
			return 0, err
		}
		faultinject.Hit(faultinject.SiteWALShortWrite)
		if ierr := faultinject.HitErr(faultinject.SiteWALShortWrite); ierr != nil {
			return 0, ierr
		}
		if _, err := l.f.Write(frame[half:]); err != nil {
			return 0, err
		}
	} else if _, err := l.f.Write(frame); err != nil {
		return 0, err
	}
	l.torn = false

	l.seq.Store(next)
	l.size += frameLen
	l.appends.Add(1)

	// Tail subscribers hear about the record only once it is as durable
	// as the policy makes it: a replica can never apply an update the
	// primary would not recover itself.
	if l.opts.Policy != FsyncAlways {
		l.notifyWatchers(next, data)
		return next, nil
	}
	l.pending = append(l.pending, data)
	if err := l.awaitDurable(next); err != nil {
		return 0, err
	}
	return next, nil
}

// awaitDurable returns nil once the durable horizon covers seq, leading a
// flush itself whenever none is in flight, and the log's failure if it is
// poisoned or closed first. A record the horizon already covers is
// acknowledged even if the log failed afterwards: it is on disk. Caller
// holds l.mu.
func (l *Log) awaitDurable(seq uint64) error {
	for l.synced.Load() < seq {
		if err := l.stateErr(); err != nil {
			return err
		}
		if l.flushing {
			l.flushed.Wait()
			continue
		}
		if err := l.flush(true); err != nil {
			return err
		}
	}
	return nil
}

// flush fsyncs the active segment and advances the durable horizon over
// every record written before it began; it is the only fsync of segment
// data while the log is open. Caller holds l.mu and has seen no flush in
// flight. With release set the mutex is dropped for the fsync, so
// appenders go on writing the next group; rotation keeps it, because it
// swaps the file next. A failed flush — or one a crash unwinds through —
// poisons the log: none of the records it would have covered is
// acknowledged.
func (l *Log) flush(release bool) (err error) {
	target, f := l.seq.Load(), l.f
	l.flushing = true
	if release {
		l.mu.Unlock()
	}
	done := false
	defer func() {
		if release {
			l.mu.Lock()
		}
		l.flushing = false
		if done {
			l.advance(target)
			l.flushed.Broadcast()
			return
		}
		if err == nil { // a panic (an injected Crash) is unwinding
			err = errors.New("flush interrupted")
		}
		l.fail(err)
	}()
	faultinject.Hit(faultinject.SiteWALFsync)
	if err = faultinject.HitErr(faultinject.SiteWALFsync); err != nil {
		return err
	}
	start := time.Now()
	if err = f.Sync(); err != nil {
		return err
	}
	l.fsyncLatency.Observe(time.Since(start))
	l.fsyncs.Add(1)
	done = true
	return nil
}

// advance moves the durable horizon up to target and hands the records
// it now covers to the tail watchers, in sequence order. Caller holds
// l.mu.
func (l *Log) advance(target uint64) {
	prev := l.synced.Load()
	if target <= prev {
		return
	}
	l.synced.Store(target)
	group := int64(target - prev)
	l.groupSize.Set(group)
	if group > l.groupMax.Value() {
		l.groupMax.Set(group)
	}
	// pending[0] carries sequence base; pending is empty (base = seq+1)
	// under the other policies and after a close or failure dropped it.
	base := l.seq.Load() + 1 - uint64(len(l.pending))
	if target < base {
		return
	}
	n := int(target - base + 1)
	for i, data := range l.pending[:n] {
		l.notifyWatchers(base+uint64(i), data)
	}
	rest := copy(l.pending, l.pending[n:])
	clear(l.pending[rest:])
	l.pending = l.pending[:rest]
}

// Sync forces the active segment to disk regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.idle(); err != nil {
		return err
	}
	return l.flush(true)
}

// rotate seals the active segment and starts a new one. Caller holds
// l.mu and has seen no flush in flight. A crash anywhere inside leaves
// either the sealed segment alone (recovery appends to it) or an empty
// new segment (recovery sees zero records in it) — both consistent.
func (l *Log) rotate() error {
	faultinject.Hit(faultinject.SiteWALRotate)
	if ierr := faultinject.HitErr(faultinject.SiteWALRotate); ierr != nil {
		return ierr
	}
	// Seal: the old segment's records must be durable before the log
	// moves on, whatever the append policy — TrimTo may delete WAL
	// history on the strength of a checkpoint while these bytes are still
	// only in the page cache otherwise. The seal is a flush like any
	// other: appenders waiting for the horizon are acknowledged by it.
	if err := l.flush(false); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	last := l.seq.Load()
	l.sealed = append(l.sealed, segmentInfo{
		path:  filepath.Join(l.opts.Dir, segmentName(l.first)),
		first: l.first,
		last:  last,
	})
	first := last + 1
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, segmentName(first)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(l.opts.Dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.first = first
	l.size = 0
	l.rotations.Add(1)
	return nil
}

// TrimTo deletes sealed segments whose every record has sequence number
// ≤ seq — called after a checkpoint covering seq has been made durable.
// The active segment is never deleted. Returns the number of segments
// removed. A crash mid-trim leaves a shorter (still contiguous from
// some sequence number) history; recovery handles it like any other
// prefix-trimmed log.
func (l *Log) TrimTo(seq uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	faultinject.Hit(faultinject.SiteWALTrim)
	if ierr := faultinject.HitErr(faultinject.SiteWALTrim); ierr != nil {
		return 0, ierr
	}
	removed := 0
	// Oldest-first, stopping at the first keeper: a crash between
	// removals can only shorten the prefix, never hole the middle.
	for len(l.sealed) > 0 && l.sealed[0].last <= seq {
		if err := os.Remove(l.sealed[0].path); err != nil && !os.IsNotExist(err) {
			return removed, err
		}
		l.sealed = l.sealed[1:]
		removed++
	}
	if removed > 0 {
		l.trimmed.Add(int64(removed))
		if err := syncDir(l.opts.Dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// stop marks the log closed — appenders waiting for the horizon return
// ErrClosed — stops the interval flusher and waits out a flush in
// flight, whose leader still uses the segment descriptor. It returns
// false when the log was closed already, and otherwise true with l.mu
// held.
func (l *Log) stop() bool {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return false
	}
	l.closed = true
	l.pending = nil
	l.flushed.Broadcast()
	l.mu.Unlock()
	if l.stopc != nil {
		close(l.stopc)
		<-l.syncDone
	}
	l.mu.Lock()
	for l.flushing {
		l.flushed.Wait()
	}
	l.closeWatchersLocked()
	return true
}

// Close flushes (best-effort when already poisoned) and closes the log.
func (l *Log) Close() error {
	if !l.stop() {
		return ErrClosed
	}
	defer l.mu.Unlock()
	var err error
	if l.failed == nil {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if l.lock != nil {
		// Closing the LOCK file releases the flock: the directory is
		// free for the next Open.
		if cerr := l.lock.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Kill releases the log's OS resources — the active segment descriptor
// and the directory lock — without flushing anything, exactly as the
// kernel reaps a dead process's descriptors. It exists for crash tests:
// an in-process "kill -9" must leave the files as the last write (and
// the fsync policy) left them, yet still free the directory lock so the
// next Open can recover. Never call it on a log you mean to keep.
func (l *Log) Kill() {
	if !l.stop() {
		return
	}
	defer l.mu.Unlock()
	_ = l.f.Close()
	if l.lock != nil {
		_ = l.lock.Close()
	}
}

// runIntervalSync is the FsyncInterval background flusher.
func (l *Log) runIntervalSync() {
	defer close(l.syncDone)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stopc:
			return
		case <-t.C:
			l.mu.Lock()
			if l.synced.Load() < l.seq.Load() && l.idle() == nil {
				_ = l.flush(true) // a failure has poisoned the log
			}
			l.mu.Unlock()
		}
	}
}
