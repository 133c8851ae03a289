package wal

// read.go — seq-addressed reads and live-tail subscriptions over an open
// log. Both exist for replication (internal/repl): a primary serves its
// WAL history to replicas with ReadFrom and pushes freshly acknowledged
// records to them through Watch, so a replica can catch up from any
// sequence number the log still retains and then follow the tail with
// no gap in between (register the watcher first, then read — a record
// appended during the catch-up read is either in the read result or in
// the watcher channel, never in neither).

import (
	"bytes"
	"errors"
	"fmt"
	"os"
)

// DefaultReadBatchBytes bounds one ReadFrom result when the caller
// passes maxBytes <= 0.
const DefaultReadBatchBytes = 1 << 20

// FirstSeq returns the sequence number of the oldest record the log
// still retains, or 0 when the log holds no records at all. After a
// checkpoint trim the history starts past 1; a caller that needs
// records older than FirstSeq must obtain them from a snapshot instead.
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.sealed) > 0 {
		return l.sealed[0].first
	}
	if l.size > 0 {
		return l.first
	}
	return 0
}

// ReadFrom returns the acknowledged records (see DurableSeq) with
// sequence numbers strictly greater than after, in order, stopping once
// roughly maxBytes of payload have been collected (maxBytes <= 0 means
// DefaultReadBatchBytes; at least one record is always returned when any
// qualifies). The result may start
// past after+1 when a checkpoint has trimmed the intervening history —
// callers detect the gap by comparing the first record's sequence
// number against after+1 and fall back to a snapshot.
//
// ReadFrom re-reads the segment files, validating every frame's CRC on
// the way — a replication stream must never forward bytes the log
// cannot vouch for. It holds the log's mutex for the duration, so it is
// a control-path operation (replica catch-up), not a hot-path one.
func (l *Log) ReadFrom(after uint64, maxBytes int) ([]Record, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultReadBatchBytes
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	upto := l.DurableSeq()
	if upto <= after {
		return nil, nil // caught up: nothing newer is acknowledged
	}
	var out []Record
	total := 0
	for _, seg := range l.sealed {
		if seg.last <= after {
			continue
		}
		var done bool
		var err error
		out, total, done, err = readSegmentFrom(seg.path, -1, after, upto, maxBytes, out, total)
		if err != nil {
			return nil, err
		}
		if done {
			return out, nil
		}
	}
	if l.size > 0 {
		// The active segment is read only up to the bytes Append has
		// completed (l.size): with the mutex held no frame is in flight,
		// and a poisoned log's torn tail bytes sit beyond l.size. Complete
		// frames still waiting for their fsync sit above upto.
		var err error
		out, total, _, err = readSegmentFrom(
			segmentPath(l.opts.Dir, l.first), l.size, after, upto, maxBytes, out, total)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// segmentPath renders the file path of the segment whose first record
// has sequence number first.
func segmentPath(dir string, first uint64) string {
	return dir + string(os.PathSeparator) + segmentName(first)
}

// readSegmentFrom scans one segment file, appending records with
// sequence numbers in (after, upto] to out until total payload bytes
// reach maxBytes. limit bounds the bytes considered (-1 = whole file).
// done reports that the byte budget was hit with at least one record
// taken.
func readSegmentFrom(path string, limit int64, after, upto uint64, maxBytes int,
	out []Record, total int) ([]Record, int, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return out, total, false, fmt.Errorf("wal: read segment: %w", err)
	}
	if limit >= 0 && int64(len(data)) > limit {
		data = data[:limit]
	}
	for off := 0; off < len(data); {
		seq, payload, size, err := decodeFrame(data[off:])
		if errors.Is(err, errFrameShort) {
			break // torn tail: recovery's problem, not the reader's
		}
		if err != nil {
			return out, total, false, fmt.Errorf("wal: read %s: %w", path, err)
		}
		if seq > upto {
			break
		}
		if seq > after {
			out = append(out, Record{Seq: seq, Data: bytes.Clone(payload)})
			total += len(payload)
			if total >= maxBytes {
				return out, total, true, nil
			}
		}
		off += size
	}
	return out, total, false, nil
}

// Watcher is a live-tail subscription: every record acknowledged after
// Watch returns is sent to C, in order. The channel is bounded; a
// subscriber that falls behind loses records and the Lagged flag trips
// — the subscriber then re-reads the missed range with ReadFrom, which
// is why a lost notification is a latency event, never a correctness
// one.
type Watcher struct {
	l  *Log
	ch chan Record
	// lagged is set (under l.mu) when a send would have blocked.
	lagged bool
	closed bool
}

// C returns the subscription channel. It is closed by Watcher.Close and
// by Log.Close/Kill.
func (w *Watcher) C() <-chan Record { return w.ch }

// Lagged reports — and clears — whether the watcher dropped records
// because its channel was full. After a true return the subscriber must
// ReadFrom to recover the missed range.
func (w *Watcher) Lagged() bool {
	w.l.mu.Lock()
	defer w.l.mu.Unlock()
	lagged := w.lagged
	w.lagged = false
	return lagged
}

// Close ends the subscription and closes its channel.
func (w *Watcher) Close() {
	w.l.mu.Lock()
	defer w.l.mu.Unlock()
	w.closeLocked()
}

// closeLocked detaches and closes the watcher. Caller holds l.mu, which
// is what makes closing the channel safe: notifies also run under l.mu,
// so no send can race the close.
func (w *Watcher) closeLocked() {
	if w.closed {
		return
	}
	w.closed = true
	for i, ww := range w.l.watchers {
		if ww == w {
			w.l.watchers = append(w.l.watchers[:i], w.l.watchers[i+1:]...)
			break
		}
	}
	close(w.ch)
}

// Watch subscribes to the live tail: every record acknowledged from now
// on (under FsyncAlways that is after the fsync covering it) is delivered
// to the returned watcher's channel (buffered to buf records, minimum 1).
// Subscribe BEFORE reading history with ReadFrom and the two dovetail
// without a gap. Returns nil on a closed log.
func (l *Log) Watch(buf int) *Watcher {
	if buf < 1 {
		buf = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	w := &Watcher{l: l, ch: make(chan Record, buf)}
	l.watchers = append(l.watchers, w)
	return w
}

// notifyWatchers delivers one freshly acknowledged record to every
// subscriber. Caller holds l.mu. The payload is copied once, shared by
// all subscribers — Record data is read-only by contract.
func (l *Log) notifyWatchers(seq uint64, data []byte) {
	if len(l.watchers) == 0 {
		return
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	rec := Record{Seq: seq, Data: cp}
	for _, w := range l.watchers {
		select {
		case w.ch <- rec:
		default:
			w.lagged = true
		}
	}
}

// closeWatchersLocked ends every subscription; Close and Kill call it so
// a tail follower sees end-of-stream instead of blocking forever on a
// dead log. Caller holds l.mu.
func (l *Log) closeWatchersLocked() {
	for len(l.watchers) > 0 {
		l.watchers[0].closeLocked()
	}
}
