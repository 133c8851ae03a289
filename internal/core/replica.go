package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/septic-db/septic/internal/faultinject"
	"github.com/septic-db/septic/internal/obs"
)

// This file is the replica side of WAL-shipped model replication: a
// read-replica Septic boots from a primary's streamed snapshot, catches
// up by replaying WAL records, then follows the live tail — serving
// detection-mode reads the whole time while refusing local training
// writes. The transport lives in internal/repl; this file owns the
// apply path, because applying a replicated record is exactly the WAL
// replay the persistence layer already performs at boot (applyRecord /
// installSnapshot), just arriving over a socket instead of from disk.
// Only models travel: a replica keeps the mode and detectors it was
// started with, whatever the primary runs.
//
// Consistency model: a record is acknowledged on the PRIMARY once its
// local WAL append returns under the primary's fsync policy; replicas
// learn about it strictly afterwards (the WAL watcher fires only after
// a successful append). Replication is therefore asynchronous: an acked
// write is eventually applied on every connected replica, and at
// quiescence primary and replica stores are identical per domain — the
// invariant the convergence and chaos suites assert — but a read served
// by a replica mid-stream may be arbitrarily stale. Staleness is
// observable as repl.lag_seq.

// ErrReadOnly is returned for mutations refused on a replica: training
// writes, incremental learning, administrator store edits. They must go
// to the primary; the replica's stores are owned by the replication
// applier.
var ErrReadOnly = errors.New("septic: replica is read-only")

// ReplConnState is the replica's connection lifecycle, exported as the
// repl.state gauge.
type ReplConnState int64

// Connection states, in the order a healthy session moves through them.
const (
	// ReplDisconnected: no session (initial state, or between retries).
	ReplDisconnected ReplConnState = iota
	// ReplConnecting: dialing / handshaking.
	ReplConnecting
	// ReplSyncing: installing a snapshot or replaying catch-up batches.
	ReplSyncing
	// ReplStreaming: following the live tail.
	ReplStreaming
	// ReplPromoted: failover hook fired; this node is a primary now.
	ReplPromoted
)

// String names the state the way the status display does.
func (s ReplConnState) String() string {
	switch s {
	case ReplDisconnected:
		return "disconnected"
	case ReplConnecting:
		return "connecting"
	case ReplSyncing:
		return "syncing"
	case ReplStreaming:
		return "streaming"
	case ReplPromoted:
		return "promoted"
	default:
		return fmt.Sprintf("ReplConnState(%d)", int64(s))
	}
}

// ReplicaStats snapshots the apply-path counters; the same numbers are
// exported on /metrics as repl.*.
type ReplicaStats struct {
	// AppliedSeq is the last upstream sequence applied (or covered by an
	// installed snapshot).
	AppliedSeq uint64
	// SourceSeq is the newest sequence the primary has reported
	// (heartbeats and batches); AppliedSeq lags it.
	SourceSeq uint64
	// LagSeq = SourceSeq - AppliedSeq, clamped at zero.
	LagSeq uint64
	// AppliedRecords counts records applied (not snapshots).
	AppliedRecords int64
	// Snapshots counts snapshot installs; SnapshotBytes their total size.
	Snapshots     int64
	SnapshotBytes int64
	// DuplicateSeqs counts records skipped because their sequence was
	// already applied — the expected overlap after a resume.
	DuplicateSeqs int64
	// Skipped counts records that decoded but could not be routed
	// (unknown domain/op, fingerprint mismatch) — mirrored after
	// PersistenceStats.RecoveredSkipped.
	Skipped int64
	// ApplyErrors counts local durability appends that failed (the
	// record is still applied in memory; the durable resume floor just
	// does not advance past it).
	ApplyErrors int64
	// State is the connection lifecycle gauge.
	State ReplConnState
	// Promoted reports the failover hook has fired.
	Promoted bool
}

// ReplicaState is the apply side of a read replica, created by
// Septic.AttachReplicaSource. The transport (internal/repl.Replica)
// feeds it snapshots and records; everything it applies flows through
// the same replay paths boot recovery uses, so fingerprint verification,
// idempotent deduplication and verdict-cache invalidation (generation
// bumps) come for free. All methods are safe for concurrent use; applies
// are serialized by an internal mutex.
type ReplicaState struct {
	sep *Septic

	// mu serializes ApplySnapshot and ApplyRecord: the stream is ordered
	// and the applied counter must advance with the applies.
	mu sync.Mutex

	applied   atomic.Uint64
	sourceSeq atomic.Uint64
	state     atomic.Int64
	promoted  atomic.Bool

	appliedRecords atomic.Int64
	snapshots      atomic.Int64
	snapshotBytes  atomic.Int64
	duplicateSeqs  atomic.Int64
	skipped        atomic.Int64
	applyErrors    atomic.Int64
}

// AttachReplicaSource puts this Septic into replica mode: every
// protection domain's store (current and future) becomes read-only for
// local mutations, training-mode and incremental-learning writes return
// ErrReadOnly from the hook, and the returned ReplicaState accepts the
// replication stream. Attach AFTER registering domains and attaching
// persistence (if any — a replica with local persistence resumes from
// Persistence.ReplAppliedSeq instead of re-requesting the snapshot), and
// BEFORE serving traffic.
func (s *Septic) AttachReplicaSource() (*ReplicaState, error) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if s.replicaState != nil {
		return nil, fmt.Errorf("replica source already attached")
	}
	rs := &ReplicaState{sep: s}
	if s.persist != nil {
		rs.applied.Store(s.persist.ReplAppliedSeq())
	}
	s.replica.Store(true)
	for _, d := range s.Domains() {
		d.store.setReadOnly(true)
	}
	s.replicaState = rs
	if s.obs != nil {
		rs.registerGauges(s.obs.Metrics)
	}
	s.logger.Log(Event{Kind: EventModeChanged,
		Detail: fmt.Sprintf("replica mode: stores read-only, resuming after seq %d", rs.applied.Load())})
	return rs, nil
}

// ReplicaState returns the attached replica apply state, nil on a
// primary.
func (s *Septic) ReplicaState() *ReplicaState { return s.replicaState }

// IsReplica reports whether this Septic is in (unpromoted) replica mode.
func (s *Septic) IsReplica() bool { return s.replica.Load() }

// ApplySnapshot installs a primary's full-state snapshot: the payload is
// a checkpointFile (the primary's ReplSnapshot built it), decoded,
// verified and restored by the routine boot recovery uses — all domains
// or, on any error, none.
// barrier is the WAL sequence the snapshot covers; the applied position
// moves there — backward too, the primary's history is authoritative. On
// a replica with local persistence the installed state is checkpointed
// locally before the position advances: the snapshot's records are not
// in the local WAL, so a crash after acknowledging it must find the
// state in the local checkpoint or the restart would resume past a hole.
// A failed local checkpoint therefore fails the apply — the session dies
// and the next attempt re-requests the snapshot.
func (rs *ReplicaState) ApplySnapshot(barrier uint64, data []byte) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	faultinject.Hit(faultinject.SiteReplSnapshot)
	if rs.promoted.Load() {
		return fmt.Errorf("replica promoted, stream refused")
	}
	_, unknown, err := rs.sep.installSnapshot(data)
	if err != nil {
		return fmt.Errorf("replica: snapshot: %w", err)
	}
	rs.skipped.Add(int64(unknown))
	rs.snapshots.Add(1)
	rs.snapshotBytes.Add(int64(len(data)))
	if p := rs.sep.persist; p != nil {
		p.replSeq.Store(barrier)
		if err := p.Checkpoint(); err != nil {
			return fmt.Errorf("replica: persist snapshot: %w", err)
		}
	}
	rs.applied.Store(barrier)
	rs.observeSeq(barrier)
	rs.sep.logger.Log(Event{Kind: EventDurability,
		Detail: fmt.Sprintf("replication snapshot installed (%d bytes, barrier seq %d)", len(data), barrier)})
	return nil
}

// ApplyRecord applies one replicated WAL record. seq is the record's
// upstream sequence; a sequence at or below the applied position is
// skipped — the duplicate-delivery case a resume boundary produces (the
// replica re-subscribes after its last durable position, which may be
// behind what it already applied in memory) — making application
// idempotent end to end. Undecodable or unroutable records are counted
// and skipped but still advance the position — and, with local
// persistence, are journaled like the rest so the durable floor moves
// past them — exactly like boot replay: recovery must converge on the
// applicable subset.
//
// Apply order is memory first, then the best-effort local WAL append
// (tagged with RSeq for the durable resume floor). Memory-first keeps
// the local checkpoint barrier argument intact — any record in the
// local log is already visible to a snapshotting checkpointer — and a
// crash between the two only loses local caching: the upstream resends
// from the durable floor and the duplicate check absorbs the overlap.
func (rs *ReplicaState) ApplyRecord(seq uint64, data []byte) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	faultinject.Hit(faultinject.SiteReplApply)
	if rs.promoted.Load() {
		return fmt.Errorf("replica promoted, stream refused")
	}
	if seq <= rs.applied.Load() {
		rs.duplicateSeqs.Add(1)
		rs.observeSeq(seq)
		return nil
	}
	rec, ok := rs.sep.applyRecord(data)
	if ok {
		rs.appliedRecords.Add(1)
	} else {
		rs.skipped.Add(1)
	}
	if p := rs.sep.persist; p != nil {
		rec.RSeq = seq
		if err := p.append(rec.Dom, &rec); err != nil {
			// Counted (here and by the persistence layer); the memory
			// apply stands. The durable floor simply stays behind, so a
			// restart re-fetches this record — and the duplicate check
			// absorbs it.
			rs.applyErrors.Add(1)
		} else if seq > p.replSeq.Load() {
			// Applies are serialized by rs.mu; load-then-store is safe.
			p.replSeq.Store(seq)
		}
	}
	rs.applied.Store(seq)
	rs.observeSeq(seq)
	return nil
}

// AppliedSeq is the last upstream sequence applied or covered by a
// snapshot — what the transport resumes the subscription from.
func (rs *ReplicaState) AppliedSeq() uint64 { return rs.applied.Load() }

// ObserveSourceSeq records the newest sequence the primary reported
// (batch heads and heartbeats); the lag gauge measures against it.
func (rs *ReplicaState) ObserveSourceSeq(seq uint64) { rs.observeSeq(seq) }

func (rs *ReplicaState) observeSeq(seq uint64) {
	for {
		cur := rs.sourceSeq.Load()
		if seq <= cur || rs.sourceSeq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// SetConnState publishes the transport's lifecycle state (repl.state).
func (rs *ReplicaState) SetConnState(st ReplConnState) {
	if rs.promoted.Load() {
		return
	}
	rs.state.Store(int64(st))
}

// ConnState reads the transport lifecycle state.
func (rs *ReplicaState) ConnState() ReplConnState {
	return ReplConnState(rs.state.Load())
}

// Promote is the failover hook: it turns the replica into a primary by
// clearing replica mode and every store's read-only gate. Idempotent.
// The caller is responsible for stopping the replication transport; any
// straggling applies after promotion are refused, so a promoted node can
// never be half-overwritten by its former primary.
func (rs *ReplicaState) Promote() {
	if rs.promoted.Swap(true) {
		return
	}
	rs.state.Store(int64(ReplPromoted))
	s := rs.sep
	s.regMu.Lock()
	s.replica.Store(false)
	for _, d := range s.Domains() {
		d.store.setReadOnly(false)
	}
	s.regMu.Unlock()
	s.logger.Log(Event{Kind: EventModeChanged,
		Detail: fmt.Sprintf("replica promoted to primary at seq %d", rs.applied.Load())})
}

// Promoted reports whether the failover hook has fired.
func (rs *ReplicaState) Promoted() bool { return rs.promoted.Load() }

// Stats snapshots the apply-path counters.
func (rs *ReplicaState) Stats() ReplicaStats {
	applied := rs.applied.Load()
	source := rs.sourceSeq.Load()
	var lag uint64
	if source > applied {
		lag = source - applied
	}
	return ReplicaStats{
		AppliedSeq:     applied,
		SourceSeq:      source,
		LagSeq:         lag,
		AppliedRecords: rs.appliedRecords.Load(),
		Snapshots:      rs.snapshots.Load(),
		SnapshotBytes:  rs.snapshotBytes.Load(),
		DuplicateSeqs:  rs.duplicateSeqs.Load(),
		Skipped:        rs.skipped.Load(),
		ApplyErrors:    rs.applyErrors.Load(),
		State:          rs.ConnState(),
		Promoted:       rs.promoted.Load(),
	}
}

// registerGauges exports the apply-path counters as repl.* metrics.
func (rs *ReplicaState) registerGauges(m *obs.Registry) {
	m.GaugeFunc("repl.applied_seq", func() int64 { return int64(rs.applied.Load()) })
	m.GaugeFunc("repl.source_seq", func() int64 { return int64(rs.sourceSeq.Load()) })
	m.GaugeFunc("repl.lag_seq", func() int64 { return int64(rs.Stats().LagSeq) })
	m.GaugeFunc("repl.applied_total", rs.appliedRecords.Load)
	m.GaugeFunc("repl.snapshots", rs.snapshots.Load)
	m.GaugeFunc("repl.snapshot_bytes", rs.snapshotBytes.Load)
	m.GaugeFunc("repl.duplicate_seqs", rs.duplicateSeqs.Load)
	m.GaugeFunc("repl.skipped", rs.skipped.Load)
	m.GaugeFunc("repl.apply_errors", rs.applyErrors.Load)
	m.GaugeFunc("repl.state", rs.state.Load)
}
