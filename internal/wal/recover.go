package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// Record is one recovered WAL entry.
type Record struct {
	Seq  uint64
	Data []byte
}

// RecoveryInfo reports what recovery found and what it had to discard.
// Everything here is observable on /metrics so a truncated tail is an
// operator-visible incident, never a silent one.
type RecoveryInfo struct {
	// Segments is the number of segment files scanned.
	Segments int
	// Records is the number of valid records replayed.
	Records int
	// TornSegments counts segments whose tail failed validation and was
	// truncated (1 after a normal crash mid-append; more only after
	// corruption).
	TornSegments int
	// DroppedRecords counts records that parsed cleanly but were
	// discarded because they sat beyond a mid-log tear. Only a
	// ForceRecover open can make this nonzero: the default refuses
	// mid-log damage with ErrMidLogCorrupt instead of dropping.
	DroppedRecords int
	// DroppedBytes counts bytes discarded by truncation.
	DroppedBytes int64
	// Truncated reports whether any file was rewritten; a second
	// recovery of the same directory reports false — the convergence
	// property the chaos suite asserts.
	Truncated bool
	// FirstSeq and LastSeq bound the recovered sequence numbers (0,0
	// when the log was empty).
	FirstSeq, LastSeq uint64
}

// segmentScan is the outcome of validating one segment file.
type segmentScan struct {
	records  []Record
	validLen int64 // bytes of valid frames from the start of the file
	torn     bool  // bytes beyond validLen failed validation
	total    int64 // file size
}

// What decodeFrame can find wrong with the bytes it is given.
var (
	errFrameShort  = errors.New("frame runs past the end of the data")
	errFrameLength = errors.New("invalid frame length")
	errFrameSum    = errors.New("frame checksum mismatch")
)

// decodeFrame validates the frame at the head of data — the one place the
// on-disk format is read back: a whole header, a length inside the cap
// (never trusted past it), every byte the length claims present, and the
// CRC-32C over length, sequence number and payload. It returns the
// sequence number, the payload (a window into data: copy it to keep it)
// and the frame's size; errFrameShort is the classic torn tail, the other
// two mean the bytes are not a frame.
func decodeFrame(data []byte) (seq uint64, payload []byte, size int, err error) {
	if len(data) < frameHeaderSize {
		return 0, nil, 0, errFrameShort
	}
	sum := binary.LittleEndian.Uint32(data[0:4])
	length := binary.LittleEndian.Uint32(data[4:8])
	if length == 0 || length > MaxRecordSize {
		return 0, nil, 0, errFrameLength
	}
	size = frameHeaderSize + int(length)
	if size > len(data) {
		return 0, nil, 0, errFrameShort
	}
	if crc32.Checksum(data[4:size], castagnoli) != sum {
		return 0, nil, 0, errFrameSum
	}
	return binary.LittleEndian.Uint64(data[8:16]), data[frameHeaderSize:size], size, nil
}

// scanSegment validates path frame by frame. expectSeq is the sequence
// number the first record must carry (0 = accept any, for the first
// segment of a trimmed log); within the segment records must be
// contiguous. Scanning stops at the first invalid frame — anything
// decodeFrame rejects, sequence number 0 (they start at 1), or a sequence
// gap or repeat — and everything before it is returned as valid.
func scanSegment(path string, expectSeq uint64) (segmentScan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return segmentScan{}, err
	}
	s := segmentScan{total: int64(len(data))}
	for off := 0; off < len(data); {
		seq, payload, size, err := decodeFrame(data[off:])
		if err != nil || seq == 0 || expectSeq != 0 && seq != expectSeq {
			s.torn = true
			break
		}
		s.records = append(s.records, Record{Seq: seq, Data: bytes.Clone(payload)})
		expectSeq = seq + 1
		off += size
		s.validLen = int64(off)
	}
	return s, nil
}

// nameSeq extracts the first sequence number encoded in a segment file
// name (0 for a name listSegments would have rejected).
func nameSeq(name string) uint64 {
	n, _ := strconv.ParseUint(strings.TrimSuffix(name, segmentSuffix), 10, 64)
	return n
}

// listSegments returns the directory's segment files sorted by the
// first sequence number encoded in their names; files with unparsable
// names are ignored.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		if _, err := strconv.ParseUint(strings.TrimSuffix(name, segmentSuffix), 10, 64); err != nil {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names) // zero-padded decimal: lexicographic == numeric
	return names, nil
}

// lockDir takes the directory's exclusive advisory lock, failing fast
// with ErrLocked when another log — in this process or any other —
// already holds it. The kernel releases the flock when the holding
// process exits, so a crashed daemon never leaves a stale lock.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockFileName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s (flock: %v)", ErrLocked, dir, err)
	}
	return f, nil
}

// Open recovers the log directory and opens it for appending, holding
// the directory's exclusive lock until Close (or process death). Every
// valid record is passed to apply in sequence order (apply may be nil
// to skip replay); an apply error aborts Open. Recovery truncates a
// torn tail of the newest segment in place — expected crash debris —
// but refuses mid-log damage with ErrMidLogCorrupt unless
// Options.ForceRecover explicitly accepts dropping everything beyond
// it. The returned log appends after the last valid record, or after
// the active segment's name-encoded floor when the segment holds none.
func Open(opts Options, apply func(Record) error) (*Log, RecoveryInfo, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, RecoveryInfo{}, fmt.Errorf("wal: create dir: %w", err)
	}
	lock, err := lockDir(opts.Dir)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	l, info, err := openLocked(opts, apply)
	if err != nil {
		lock.Close()
		return nil, info, err
	}
	l.lock = lock
	return l, info, nil
}

// openLocked is Open's body once the directory lock is held.
func openLocked(opts Options, apply func(Record) error) (*Log, RecoveryInfo, error) {
	var info RecoveryInfo
	names, err := listSegments(opts.Dir)
	if err != nil {
		return nil, info, fmt.Errorf("wal: list segments: %w", err)
	}

	l := &Log{
		opts:         opts,
		fsyncLatency: opts.Metrics.Histogram("wal.fsync"),
		groupSize:    opts.Metrics.Gauge("wal.group_size"),
		groupMax:     opts.Metrics.Gauge("wal.group_size_max"),
	}
	l.flushed.L = &l.mu
	expect := uint64(0) // next sequence the chain of records demands
	tornAt := -1        // index of the first torn segment
	scans := make([]segmentScan, 0, len(names))
	for i, name := range names {
		if expect == 0 && tornAt < 0 {
			// No expectation from the chain yet (oldest segment of a
			// trimmed log, or everything before was empty): the name
			// encodes the sequence the segment's first record must carry.
			expect = nameSeq(name)
		}
		scan, err := scanSegment(filepath.Join(opts.Dir, name), expect)
		if err != nil {
			return nil, info, fmt.Errorf("wal: scan %s: %w", name, err)
		}
		scans = append(scans, scan)
		info.Segments++
		if tornAt >= 0 {
			// Past a forced-recovery torn point: records may parse but
			// their contiguity with the acknowledged history is gone —
			// scanned with no sequence expectation (expect stays 0 from
			// the tear on) purely to count what the drop discards.
			info.DroppedRecords += len(scan.records)
			info.DroppedBytes += scan.total
			continue
		}
		if scan.torn && i < len(names)-1 && !opts.ForceRecover {
			// Invalid frames with intact segments after them: a crash only
			// ever tears the newest segment (rotation fsyncs before moving
			// on), so this is real damage, and truncating here would drop
			// the acknowledged records in those later segments.
			return nil, info, fmt.Errorf(
				"%w: segment %s is damaged but %d later segment(s) exist; remove or repair it, or open with ForceRecover to truncate and drop everything after it",
				ErrMidLogCorrupt, name, len(names)-1-i)
		}
		for _, rec := range scan.records {
			if info.FirstSeq == 0 {
				info.FirstSeq = rec.Seq
			}
			info.LastSeq = rec.Seq
			if apply != nil {
				if err := apply(rec); err != nil {
					return nil, info, fmt.Errorf("wal: replay seq %d: %w", rec.Seq, err)
				}
			}
			info.Records++
		}
		expect = 0
		if scan.torn {
			tornAt = i
			info.TornSegments++
			info.DroppedBytes += scan.total - scan.validLen
		} else if n := len(scan.records); n > 0 {
			expect = scan.records[n-1].Seq + 1
		}
	}

	// Repair the directory: truncate the torn segment to its valid
	// prefix and delete everything after it.
	if tornAt >= 0 {
		info.Truncated = true
		path := filepath.Join(opts.Dir, names[tornAt])
		if err := os.Truncate(path, scans[tornAt].validLen); err != nil {
			return nil, info, fmt.Errorf("wal: truncate %s: %w", names[tornAt], err)
		}
		for _, name := range names[tornAt+1:] {
			if err := os.Remove(filepath.Join(opts.Dir, name)); err != nil {
				return nil, info, fmt.Errorf("wal: drop %s: %w", name, err)
			}
		}
		if err := syncDir(opts.Dir); err != nil {
			return nil, info, fmt.Errorf("wal: sync dir: %w", err)
		}
		names = names[:tornAt+1]
		scans = scans[:tornAt+1]
	}

	// Seal every segment but the last; reopen the last for appending.
	seq := info.LastSeq
	for i, name := range names {
		first := nameSeq(name)
		path := filepath.Join(opts.Dir, name)
		if i < len(names)-1 {
			last := first - 1
			if n := len(scans[i].records); n > 0 {
				last = scans[i].records[n-1].Seq
			}
			l.sealed = append(l.sealed, segmentInfo{path: path, first: first, last: last})
			continue
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, info, fmt.Errorf("wal: open active segment: %w", err)
		}
		l.f = f
		l.first = first
		l.size = scans[i].validLen
		if first > 0 && first-1 > seq {
			// The active segment may legitimately hold zero valid records
			// — a crash right after rotation, or a fully-torn first frame
			// truncated above — yet its name still encodes the sequence
			// its first record must carry. Seeding from replayed records
			// alone would restart numbering below a checkpoint barrier
			// after a trim, and the next boot's seq-filtered replay would
			// silently skip the new appends: the name is the durable
			// floor.
			seq = first - 1
		}
	}
	if l.f == nil {
		// Empty directory: create the first segment.
		path := filepath.Join(opts.Dir, segmentName(1))
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, info, fmt.Errorf("wal: create first segment: %w", err)
		}
		if err := syncDir(opts.Dir); err != nil {
			f.Close()
			return nil, info, fmt.Errorf("wal: sync dir: %w", err)
		}
		l.f = f
		l.first = 1
	}

	if l.size > 0 {
		// A process crash keeps the page cache, so the recovered tail may
		// never have reached the disk: fsync it before the horizon vouches
		// for it to watchers and replicas.
		if err := l.f.Sync(); err != nil {
			l.f.Close()
			return nil, info, fmt.Errorf("wal: sync recovered tail: %w", err)
		}
	}
	l.seq.Store(seq)
	l.synced.Store(seq)

	if opts.Policy == FsyncInterval {
		l.stopc = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.runIntervalSync()
	}
	return l, info, nil
}
