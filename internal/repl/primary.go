package repl

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/septic-db/septic/internal/wal"
	"github.com/septic-db/septic/internal/wire"
)

// Source is what a primary streams: the replication face of
// core.Persistence. The four methods compose into the no-gap protocol —
// ReplWatch BEFORE ReplReadFrom, so no record can land between the
// catch-up read and the tail subscription.
type Source interface {
	// ReplSnapshot captures a full-state snapshot and the WAL sequence
	// barrier it covers.
	ReplSnapshot() (barrier uint64, data []byte, err error)
	// ReplReadFrom reads records with sequence > after, up to ~maxBytes.
	// A result that does not start at after+1 means the prefix was
	// trimmed — the session falls back to a snapshot.
	ReplReadFrom(after uint64, maxBytes int) ([]wal.Record, error)
	// ReplWatch subscribes to the live tail.
	ReplWatch(buf int) *wal.Watcher
	// ReplLastSeq is the stream head.
	ReplLastSeq() uint64
}

// PrimaryOptions tunes a replication primary.
type PrimaryOptions struct {
	// HeartbeatInterval paces tail heartbeats (default 500ms).
	HeartbeatInterval time.Duration
	// BatchBytes bounds one catch-up read (default
	// wal.DefaultReadBatchBytes).
	BatchBytes int
	// SubscribeTimeout bounds the wait for the subscribe frame after the
	// handshake (default 10s).
	SubscribeTimeout time.Duration
	// WatchBuffer is the tail subscription's channel depth (default
	// 1024); a replica that falls further behind than this is sent back
	// through catch-up reads.
	WatchBuffer int
}

func (o *PrimaryOptions) fill() {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 500 * time.Millisecond
	}
	if o.BatchBytes <= 0 {
		o.BatchBytes = wal.DefaultReadBatchBytes
	}
	if o.SubscribeTimeout <= 0 {
		o.SubscribeTimeout = 10 * time.Second
	}
	if o.WatchBuffer <= 0 {
		o.WatchBuffer = 1024
	}
}

// PrimaryStats snapshots a primary's serving counters.
type PrimaryStats struct {
	// Sessions counts replication sessions accepted (lifetime).
	Sessions int64
	// SnapshotsSent counts full snapshot transfers.
	SnapshotsSent int64
	// RecordsSent counts records shipped in batches.
	RecordsSent int64
	// BytesSent counts frame payload bytes shipped.
	BytesSent int64
}

// Primary serves a Source's WAL as a replication stream. Hand its
// HandleConn to wire.WithReplHandler to share the query port, or give
// it a dedicated listener with Serve — both paths speak the same JSON
// HELLO first, so a replica cannot tell them apart.
type Primary struct {
	src  Source
	opts PrimaryOptions

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	sessions      atomic.Int64
	snapshotsSent atomic.Int64
	recordsSent   atomic.Int64
	bytesSent     atomic.Int64
}

// NewPrimary builds a replication primary over src.
func NewPrimary(src Source, opts PrimaryOptions) *Primary {
	opts.fill()
	return &Primary{src: src, opts: opts, conns: make(map[net.Conn]struct{})}
}

// Stats snapshots the serving counters.
func (p *Primary) Stats() PrimaryStats {
	return PrimaryStats{
		Sessions:      p.sessions.Load(),
		SnapshotsSent: p.snapshotsSent.Load(),
		RecordsSent:   p.recordsSent.Load(),
		BytesSent:     p.bytesSent.Load(),
	}
}

// Close terminates every active session. New sessions are refused.
func (p *Primary) Close() {
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
}

// track registers a session connection so Close can cut it; reports
// false when the primary is already closed.
func (p *Primary) track(conn net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.conns[conn] = struct{}{}
	return true
}

func (p *Primary) untrack(conn net.Conn) {
	p.mu.Lock()
	delete(p.conns, conn)
	p.mu.Unlock()
}

// Serve accepts replication sessions on a dedicated listener: each
// connection performs the JSON HELLO handshake (the same exchange the
// shared query port runs) and streams until the peer disconnects or the
// primary closes. It returns when ln fails, which Close arranges by
// closing ln's accepted conns — close the listener itself to stop
// accepting.
func (p *Primary) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Temporary() {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			return err
		}
		go func() {
			defer conn.Close()
			if err := p.handshake(conn); err != nil {
				return
			}
			p.HandleConn(conn)
		}()
	}
}

// handshake runs the server side of the JSON HELLO exchange on a
// dedicated replication listener, mirroring the shared port's refusal
// behaviour (the session's hello in internal/wire/server.go).
func (p *Primary) handshake(conn net.Conn) error {
	_ = conn.SetDeadline(time.Now().Add(p.opts.SubscribeTimeout))
	defer conn.SetDeadline(time.Time{})
	var req wire.Request
	if err := wire.ReadJSONFrame(conn, &req); err != nil {
		return err
	}
	var resp wire.Response
	switch {
	case req.Hello == nil || !req.Hello.Repl:
		resp.Error = "replication listener accepts only replication hellos"
		resp.Hello = &wire.HelloAck{Version: wire.HelloVersion}
	case req.Hello.Version < wire.HelloVersion:
		resp.Error = fmt.Sprintf("replication requires protocol version %d (hello declared %d)",
			wire.HelloVersion, req.Hello.Version)
		resp.Hello = &wire.HelloAck{Version: wire.HelloVersion}
	default:
		resp.Hello = &wire.HelloAck{Version: wire.HelloVersion, Repl: true}
	}
	if err := wire.WriteJSONFrame(conn, &resp); err != nil {
		return err
	}
	if resp.Error != "" {
		return errors.New(resp.Error)
	}
	return nil
}

// HandleConn serves one replication session on an accepted, handshaken
// connection. It blocks until the session ends and never closes conn —
// ownership stays with the caller (wire.Server's session, or Serve's
// per-connection goroutine).
func (p *Primary) HandleConn(conn net.Conn) {
	if !p.track(conn) {
		return
	}
	defer p.untrack(conn)
	p.sessions.Add(1)
	if err := p.serveSession(conn); err != nil && !isDisconnect(err) {
		// Best-effort: tell the replica why before the conn drops.
		_ = p.send(conn, appendError(nil, err.Error()))
	}
}

// send writes one frame payload, counting the bytes.
func (p *Primary) send(conn net.Conn, payload []byte) error {
	if err := writeFrame(conn, payload); err != nil {
		return err
	}
	p.bytesSent.Add(int64(len(payload)))
	return nil
}

// serveSession is the streaming state machine: subscribe → (snapshot if
// the resume position is unserviceable) → catch-up batches → live tail,
// falling back to catch-up whenever the tail subscription gaps or lags.
func (p *Primary) serveSession(conn net.Conn) error {
	// The subscribe frame is the only thing the replica ever sends after
	// the handshake.
	_ = conn.SetReadDeadline(time.Now().Add(p.opts.SubscribeTimeout))
	payload, err := readFrame(conn, nil)
	if err != nil {
		return fmt.Errorf("read subscribe: %w", err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	f, err := decodeFrame(payload)
	if err != nil {
		return err
	}
	if f.typ != frameSubscribe {
		return fmt.Errorf("expected subscribe frame, got 0x%02x", f.typ)
	}
	applied := f.after

	// Subscribe to the tail BEFORE the catch-up read: a record appended
	// between the two lands in the watcher buffer, so nothing can fall
	// through the seam.
	w := p.src.ReplWatch(p.opts.WatchBuffer)
	if w == nil {
		return fmt.Errorf("source log closed")
	}
	defer w.Close()

	// A session must notice the replica hanging up even while idle in
	// the tail select: a reader goroutine drains the conn (the replica
	// sends nothing after subscribe, so any read completion means EOF or
	// an error) and signals done.
	connDone := make(chan struct{})
	go func() {
		defer close(connDone)
		_, _ = io.Copy(io.Discard, conn)
	}()

	hb := time.NewTicker(p.opts.HeartbeatInterval)
	defer hb.Stop()

	var buf []byte
	for {
		// Catch-up phase: read the log until the replica is at the head.
		for {
			select {
			case <-connDone:
				return nil
			default:
			}
			recs, err := p.src.ReplReadFrom(applied, p.opts.BatchBytes)
			if err != nil {
				return fmt.Errorf("read wal: %w", err)
			}
			head := p.src.ReplLastSeq()
			needSnapshot := false
			if len(recs) == 0 {
				if applied == head {
					break // caught up
				}
				// Behind the head but nothing readable (trimmed), or ahead
				// of the head entirely (the replica followed a primary
				// whose history this one does not have): both are resolved
				// by a fresh snapshot — the primary's state is
				// authoritative.
				needSnapshot = true
			} else if recs[0].Seq != applied+1 {
				// The tail after `applied` was checkpointed away.
				needSnapshot = true
			}
			if needSnapshot {
				barrier, err := p.sendSnapshot(conn)
				if err != nil {
					return err
				}
				applied = barrier
				continue
			}
			if err := p.sendBatch(conn, &buf, recs); err != nil {
				return err
			}
			applied = recs[len(recs)-1].Seq
		}

		// Tail phase: relay the live watcher, coalescing what is already
		// buffered into one batch per wakeup.
	tail:
		for {
			select {
			case <-connDone:
				return nil
			case <-hb.C:
				if err := p.send(conn, appendHeartbeat(buf[:0], p.src.ReplLastSeq())); err != nil {
					return err
				}
			case rec, ok := <-w.C():
				if !ok {
					return fmt.Errorf("source log closed")
				}
				if w.Lagged() {
					break tail // buffer overflowed: records were dropped, re-read the log
				}
				if rec.Seq <= applied {
					continue // already shipped by a catch-up read
				}
				if rec.Seq != applied+1 {
					break tail // gap: missed while catching up, re-read
				}
				recs := []wal.Record{rec}
				size := len(rec.Data)
				gapped := false
			coalesce:
				for size < p.opts.BatchBytes {
					select {
					case more, ok := <-w.C():
						if !ok {
							break coalesce
						}
						last := recs[len(recs)-1].Seq
						if more.Seq <= last {
							continue
						}
						if more.Seq != last+1 {
							// Gap inside the drain: ship the contiguous run,
							// then fall back to catch-up — the consumed
							// record is still in the log.
							gapped = true
							break coalesce
						}
						recs = append(recs, more)
						size += len(more.Data)
					default:
						break coalesce
					}
				}
				if err := p.sendBatch(conn, &buf, recs); err != nil {
					return err
				}
				applied = recs[len(recs)-1].Seq
				if gapped || w.Lagged() {
					break tail
				}
			}
		}
	}
}

// sendSnapshot streams one full snapshot and returns its barrier.
func (p *Primary) sendSnapshot(conn net.Conn) (uint64, error) {
	barrier, data, err := p.src.ReplSnapshot()
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	if err := p.send(conn, appendSnapBegin(nil, barrier, len(data))); err != nil {
		return 0, err
	}
	for off := 0; off < len(data); off += snapChunkSize {
		end := off + snapChunkSize
		if end > len(data) {
			end = len(data)
		}
		if err := p.send(conn, appendSnapChunk(nil, data[off:end])); err != nil {
			return 0, err
		}
	}
	if err := p.send(conn, appendSnapEnd(nil, crc32.Checksum(data, castagnoli))); err != nil {
		return 0, err
	}
	p.snapshotsSent.Add(1)
	return barrier, nil
}

// sendBatch ships one record batch, reusing *buf for the encoding.
func (p *Primary) sendBatch(conn net.Conn, buf *[]byte, recs []wal.Record) error {
	rs := make([]record, len(recs))
	for i, r := range recs {
		rs[i] = record{seq: r.Seq, data: r.Data}
	}
	*buf = appendBatch((*buf)[:0], rs)
	if err := p.send(conn, *buf); err != nil {
		return err
	}
	p.recordsSent.Add(int64(len(recs)))
	return nil
}

// isDisconnect reports whether err is the peer going away (no point
// sending an error frame after it).
func isDisconnect(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}
