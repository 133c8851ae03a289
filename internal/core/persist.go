package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/septic-db/septic/internal/faultinject"
	"github.com/septic-db/septic/internal/obs"
	"github.com/septic-db/septic/internal/qstruct"
	"github.com/septic-db/septic/internal/wal"
)

// This file is the durable model store: the seam between the in-memory
// protection domains and the internal/wal write-ahead log. Before it,
// models lived only in memory — a restart, crash, OOM-kill or power loss
// discarded everything learned since startup. With a Persistence
// attached:
//
//   - every Put/Delete/Approve on any domain's store partition appends a
//     record tagged with its protection domain to one shared WAL;
//   - boot replays the last checkpoint plus the WAL tail into each
//     domain's partition, truncating a torn tail and counting what it
//     had to drop;
//   - a background checkpointer periodically compacts the log into an
//     atomic snapshot (temp file + fsync + rename + directory fsync)
//     and trims the sealed segments the snapshot made redundant.
//
// Learned models are the only thing persisted. A domain's Config is not:
// every caller hands it to New / RegisterDomain at boot, so a recorded
// one could only override what the operator just asked for.
//
// Under wal.FsyncAlways, a training update whose Put returned true is
// covered by a completed fsync (one per commit group of concurrent
// updates) and survives any crash — the invariant the crash-chaos
// suite (crash_chaos_test.go) kills the process at random points to
// verify.

// WAL record operations.
const (
	opPut     = "put"
	opDelete  = "del"
	opApprove = "approve"
	// opLegacyConfig was written for every mode change before
	// configuration stopped being persisted; replay reads past it.
	opLegacyConfig = "cfg"
)

// walRecord is the JSON payload of one WAL frame: a single mutation,
// tagged with the protection domain it belongs to.
type walRecord struct {
	Op  string `json:"op"`
	Dom string `json:"dom"`
	ID  string `json:"id,omitempty"`
	// Model and Sum carry a put's learned model and its fingerprint;
	// replay re-verifies the fingerprint so a corrupted-but-CRC-valid
	// payload still cannot poison a store partition.
	Model *qstruct.Model `json:"model,omitempty"`
	Sum   uint64         `json:"sum,omitempty"`
	Inc   bool           `json:"inc,omitempty"`
	// RSeq is the upstream replication sequence number this record
	// carried when a replica applied it (0 on a primary's own records).
	// It is what lets a restarted replica resume the stream from its
	// last durably applied position instead of re-requesting the full
	// snapshot: recovery tracks the maximum RSeq replayed (see
	// Persistence.ReplAppliedSeq).
	RSeq uint64 `json:"rseq,omitempty"`
}

// checkpointVersion versions the checkpoint file layout.
const checkpointVersion = 1

// checkpointFileName is the snapshot's name inside the WAL directory.
const checkpointFileName = "checkpoint.json"

// checkpointFile is the snapshot of every domain, on disk and on the
// replication stream.
type checkpointFile struct {
	Version int    `json:"version"`
	WALSeq  uint64 `json:"wal_seq"`
	// ReplSeq is the upstream replication sequence the snapshot covers —
	// nonzero only on a replica with local durability (or in a snapshot
	// a primary streams to a replica, where it doubles as the barrier).
	ReplSeq uint64 `json:"repl_seq,omitempty"`
	// Domains maps protection-domain name → its store.
	Domains strictMap[checkpointDomain] `json:"domains"`
}

// checkpointDomain is one domain's snapshot. Files written before
// configuration stopped being persisted carry a "config" member beside
// the sets; it is read past.
type checkpointDomain struct {
	Sets strictMap[persistedSet] `json:"sets"`
}

// PersistenceOptions configures the durable model store.
type PersistenceOptions struct {
	// Dir holds the WAL segments and the checkpoint file.
	Dir string
	// Fsync is the append durability policy (default wal.FsyncAlways —
	// the policy the no-acknowledged-loss guarantee is stated under).
	Fsync wal.FsyncPolicy
	// FsyncInterval is the wal.FsyncInterval flush period.
	FsyncInterval time.Duration
	// SegmentSize is the WAL rotation threshold.
	SegmentSize int64
	// CheckpointInterval is the background compaction period; 0
	// disables the background checkpointer (Checkpoint can still be
	// called explicitly — septicd does at shutdown).
	CheckpointInterval time.Duration
	// ForceRecover lets boot proceed past mid-log WAL damage by
	// truncating it and dropping (and counting) every record beyond it.
	// Default false: attach fails with wal.ErrMidLogCorrupt so an
	// operator decides, instead of acknowledged models silently
	// vanishing.
	ForceRecover bool
}

// PersistenceStats snapshots the durability counters for introspection
// and tests; the same numbers are exported on /metrics as wal.*.
type PersistenceStats struct {
	// WAL mirrors the log's own counters.
	WAL wal.Stats
	// RecoveredRecords counts WAL records replayed at attach.
	RecoveredRecords int64
	// RecoveredSkipped counts records that could not be applied: an
	// unknown protection domain, an unknown op, a fingerprint mismatch.
	RecoveredSkipped int64
	// TornSegments and DroppedRecords surface what recovery truncated;
	// see wal.RecoveryInfo.
	TornSegments   int64
	DroppedRecords int64
	// RecoveryDuration is how long the attach replay took.
	RecoveryDuration time.Duration
	// Checkpoints counts completed snapshots; CheckpointFaults counts
	// failed or panicking attempts (contained, counted, retried next
	// interval).
	Checkpoints       int64
	CheckpointFaults  int64
	LastCheckpointSeq uint64
	// AppendErrors counts mutations whose WAL append failed.
	AppendErrors int64
}

// Persistence is the durable model store attached to one Septic: a
// shared WAL plus a checkpointer over every protection domain. Create
// it with Septic.AttachPersistence.
type Persistence struct {
	sep  *Septic
	opts PersistenceOptions
	log  *wal.Log

	// cpMu serializes checkpoints (the background ticker and explicit
	// calls).
	cpMu sync.Mutex

	recoveredRecords  atomic.Int64
	recoveredSkipped  atomic.Int64
	tornSegments      atomic.Int64
	droppedRecords    atomic.Int64
	recoveryNanos     atomic.Int64
	checkpoints       atomic.Int64
	checkpointFaults  atomic.Int64
	lastCheckpointSeq atomic.Uint64
	appendErrors      atomic.Int64
	// replSeq is the highest upstream replication sequence made locally
	// durable (checkpoint ReplSeq or a replayed record's RSeq); the
	// resume floor AttachReplicaSource seeds the applier with.
	replSeq atomic.Uint64

	stopc  chan struct{}
	cpDone chan struct{}
	closed atomic.Bool
}

// AttachPersistence opens (or creates) the durable model store in
// opts.Dir and wires it through every protection domain: the last
// checkpoint and the WAL tail are replayed into each domain's
// partition, every future mutation is appended to the WAL before it is
// acknowledged, and the background checkpointer starts. Attach AFTER
// registering domains (their partitions must exist to replay into;
// septicd does) and BEFORE serving traffic. Records for domains that no
// longer exist are counted as skipped, surfaced on /metrics, and
// dropped at the next checkpoint.
func (s *Septic) AttachPersistence(opts PersistenceOptions) (*Persistence, error) {
	if s.persist != nil {
		return nil, fmt.Errorf("persistence already attached")
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("persistence: empty directory")
	}
	p := &Persistence{sep: s, opts: opts}
	start := time.Now()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persistence: create dir: %w", err)
	}

	// Phase 1: the checkpoint, if one exists. Its WAL sequence is the
	// replay barrier (0 without one).
	var cpSeq uint64
	data, err := os.ReadFile(filepath.Join(opts.Dir, checkpointFileName))
	switch {
	case err == nil:
		cp, unknown, err := s.installSnapshot(data)
		if err != nil {
			return nil, fmt.Errorf("persistence: checkpoint: %w", err)
		}
		cpSeq = cp.WALSeq
		p.replSeq.Store(cp.ReplSeq)
		p.recoveredSkipped.Add(int64(unknown))
	case !os.IsNotExist(err):
		return nil, fmt.Errorf("persistence: read checkpoint: %w", err)
	}

	// Phase 2: the WAL tail. Records at or below the checkpoint barrier
	// are already covered by the snapshot; replay is idempotent anyway
	// (fingerprint dedup), but the filter keeps boot time proportional
	// to the uncheckpointed tail.
	var metrics *obs.Registry
	if s.obs != nil {
		metrics = s.obs.Metrics
	}
	log, info, err := wal.Open(wal.Options{
		Metrics:      metrics,
		Dir:          opts.Dir,
		Policy:       opts.Fsync,
		Interval:     opts.FsyncInterval,
		SegmentSize:  opts.SegmentSize,
		ForceRecover: opts.ForceRecover,
	}, func(rec wal.Record) error {
		if rec.Seq <= cpSeq {
			return nil
		}
		logged, ok := s.applyRecord(rec.Data)
		if logged.RSeq > p.replSeq.Load() {
			// Replay is single-threaded; the load-then-store is safe. Even
			// a record that could not be applied advances the resume floor:
			// it was skipped before the restart too.
			p.replSeq.Store(logged.RSeq)
		}
		if ok {
			p.recoveredRecords.Add(1)
		} else {
			p.recoveredSkipped.Add(1)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("persistence: open wal: %w", err)
	}
	p.log = log
	p.tornSegments.Store(int64(info.TornSegments))
	p.droppedRecords.Store(int64(info.DroppedRecords))
	p.lastCheckpointSeq.Store(cpSeq)
	p.recoveryNanos.Store(int64(time.Since(start)))

	// Phase 3: install the sinks — from here on every mutation is
	// logged — and publish the persistence so later RegisterDomain
	// calls bind their new domains too.
	for _, d := range s.Domains() {
		p.bind(d)
	}
	s.persist = p

	if s.obs != nil {
		p.registerGauges(s.obs.Metrics)
	}
	detail := fmt.Sprintf("durability attached: %d record(s) replayed, %d skipped",
		p.recoveredRecords.Load(), p.recoveredSkipped.Load())
	if info.Truncated {
		detail += fmt.Sprintf(" (torn tail truncated: %d segment(s), %d record(s) dropped)",
			info.TornSegments, info.DroppedRecords)
	}
	s.logger.Log(Event{Kind: EventDurability, Detail: detail})

	if opts.CheckpointInterval > 0 {
		p.stopc = make(chan struct{})
		p.cpDone = make(chan struct{})
		go p.runCheckpointer()
	}
	return p, nil
}

// Persistence returns the attached durable store, if any.
func (s *Septic) Persistence() *Persistence { return s.persist }

// encodeSnapshot serializes every domain's store as a checkpointFile
// covering the local log up to walSeq and the upstream stream up to
// replSeq. The caller reads its barrier BEFORE calling; see Checkpoint.
func (s *Septic) encodeSnapshot(walSeq, replSeq uint64) ([]byte, error) {
	cp := checkpointFile{
		Version: checkpointVersion,
		WALSeq:  walSeq,
		ReplSeq: replSeq,
		Domains: make(map[string]checkpointDomain),
	}
	for _, d := range s.Domains() {
		cp.Domains[d.name] = checkpointDomain{Sets: d.store.snapshotSets()}
	}
	return json.Marshal(&cp)
}

// installSnapshot decodes a checkpointFile, verifies it and replaces the
// stores of the domains it names — the checkpoint at boot, a primary's
// snapshot on a replica. All or nothing: every domain's fingerprints are
// checked before any store is touched. Domains this Septic does not have
// are left out and counted.
func (s *Septic) installSnapshot(data []byte) (*checkpointFile, int, error) {
	var cp checkpointFile
	unknown := 0
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, 0, fmt.Errorf("decode: %w", err)
	}
	if cp.Version != checkpointVersion {
		return nil, 0, fmt.Errorf("version %d unsupported (want %d)", cp.Version, checkpointVersion)
	}
	for name, dom := range cp.Domains {
		if _, ok := s.Domain(name); !ok {
			unknown++
			delete(cp.Domains, name)
		} else if err := verifySets(dom.Sets); err != nil {
			return nil, 0, fmt.Errorf("domain %q: %w", name, err)
		}
	}
	for name, dom := range cp.Domains {
		d, _ := s.Domain(name) // found above; domains are never removed
		d.store.restoreSets(dom.Sets)
	}
	return &cp, unknown, nil
}

// applyRecord replays one logged mutation into its domain: at boot off
// the local WAL, on a replica off the stream. ok is false for what cannot
// be applied — undecodable bytes (rec is then zero), an unknown domain or
// op, a put whose model does not match its fingerprint; callers count
// those and carry on, because replay must converge on whatever subset is
// applicable.
func (s *Septic) applyRecord(data []byte) (rec walRecord, ok bool) {
	if err := json.Unmarshal(data, &rec); err != nil {
		return walRecord{}, false
	}
	d, found := s.Domain(rec.Dom)
	if !found {
		return rec, false
	}
	switch rec.Op {
	case opPut:
		if rec.Model == nil || rec.Model.Fingerprint() != rec.Sum {
			return rec, false
		}
		d.store.put(rec.ID, *rec.Model, rec.Inc, true)
	case opDelete:
		d.store.remove(rec.ID, true)
	case opApprove:
		d.store.approve(rec.ID, true)
	case opLegacyConfig:
	default:
		return rec, false
	}
	return rec, true
}

// bind installs the durability sinks on one domain. Called at attach
// for existing domains and from RegisterDomain afterwards.
func (p *Persistence) bind(d *Domain) {
	d.store.setSink(func(rec *walRecord) error {
		return p.append(d.name, rec)
	})
}

// append tags, encodes and logs one mutation record. The error path is
// counted, logged and surfaced on /metrics — a durability failure must
// be loud — and returned so Put can refuse the unacknowledgeable
// mutation.
func (p *Persistence) append(domain string, rec *walRecord) error {
	rec.Dom = domain
	data, err := json.Marshal(rec)
	if err == nil {
		_, err = p.log.Append(data)
	}
	if err != nil {
		p.appendErrors.Add(1)
		p.sep.logger.Log(Event{Kind: EventDurability, Domain: domain,
			QueryID: rec.ID,
			Detail:  fmt.Sprintf("wal append failed (%s): %v", rec.Op, err)})
		return err
	}
	return nil
}

// Checkpoint compacts the log: snapshot every domain, publish the
// snapshot atomically, trim the sealed WAL segments it covers. The
// sequence barrier is read BEFORE the stores are snapshotted; because
// mutations append (under the shard lock) before they publish, and the
// snapshot acquires every shard lock, every record at or below the
// barrier is in the snapshot — so trimming up to the barrier can never
// drop an uncheckpointed record. Records landing during the snapshot
// may be included too; replaying them over the snapshot at boot is
// idempotent. The barrier is the last sequence WRITTEN, which under
// group commit may run ahead of the durable horizon: such a record's
// writer still holds its shard lock while it waits for the fsync, so the
// snapshot sees it published — or refused by a failed flush, in which
// case it was never acknowledged and the poisoned log takes no more.
func (p *Persistence) Checkpoint() error {
	p.cpMu.Lock()
	defer p.cpMu.Unlock()
	if p.closed.Load() {
		return fmt.Errorf("persistence closed")
	}
	faultinject.Hit(faultinject.SiteCheckpoint)
	if ierr := faultinject.HitErr(faultinject.SiteCheckpoint); ierr != nil {
		p.checkpointFaults.Add(1)
		return ierr
	}
	seq := p.log.LastSeq()
	data, err := p.sep.encodeSnapshot(seq, p.replSeq.Load())
	if err != nil {
		p.checkpointFaults.Add(1)
		return fmt.Errorf("persistence: encode checkpoint: %w", err)
	}
	if err := wal.WriteFileAtomic(filepath.Join(p.opts.Dir, checkpointFileName), data, 0o644); err != nil {
		p.checkpointFaults.Add(1)
		return fmt.Errorf("persistence: write checkpoint: %w", err)
	}
	p.checkpoints.Add(1)
	p.lastCheckpointSeq.Store(seq)
	if _, err := p.log.TrimTo(seq); err != nil {
		// The snapshot is durable; a failed trim only leaves redundant
		// segments for the next checkpoint to retry.
		p.checkpointFaults.Add(1)
		return fmt.Errorf("persistence: trim wal: %w", err)
	}
	p.sep.logger.Log(Event{Kind: EventDurability,
		Detail: fmt.Sprintf("checkpoint at wal seq %d", seq)})
	return nil
}

// runCheckpointer is the background compaction loop. Each attempt is
// contained: a failing or even panicking checkpoint (a full disk, an
// injected crash) is counted and retried next interval — it must never
// take down the serving process, and must never corrupt the previous
// snapshot (WriteFileAtomic guarantees that half).
func (p *Persistence) runCheckpointer() {
	defer close(p.cpDone)
	t := time.NewTicker(p.opts.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stopc:
			return
		case <-t.C:
			p.safeCheckpoint()
		}
	}
}

// safeCheckpoint runs one contained checkpoint attempt.
func (p *Persistence) safeCheckpoint() {
	defer func() {
		if r := recover(); r != nil {
			p.checkpointFaults.Add(1)
			p.sep.logger.Log(Event{Kind: EventDurability,
				Detail: fmt.Sprintf("checkpoint panic contained: %v", r)})
		}
	}()
	if err := p.Checkpoint(); err != nil {
		p.sep.logger.Log(Event{Kind: EventDurability,
			Detail: fmt.Sprintf("checkpoint failed: %v", err)})
	}
}

// Stats snapshots the durability counters.
func (p *Persistence) Stats() PersistenceStats {
	return PersistenceStats{
		WAL:               p.log.Stats(),
		RecoveredRecords:  p.recoveredRecords.Load(),
		RecoveredSkipped:  p.recoveredSkipped.Load(),
		TornSegments:      p.tornSegments.Load(),
		DroppedRecords:    p.droppedRecords.Load(),
		RecoveryDuration:  time.Duration(p.recoveryNanos.Load()),
		Checkpoints:       p.checkpoints.Load(),
		CheckpointFaults:  p.checkpointFaults.Load(),
		LastCheckpointSeq: p.lastCheckpointSeq.Load(),
		AppendErrors:      p.appendErrors.Load(),
	}
}

// Err surfaces the WAL's sticky failure, nil while durability is
// healthy.
func (p *Persistence) Err() error { return p.log.Err() }

// Close stops the checkpointer and closes the log. It does NOT take a
// final checkpoint — callers that want one (septicd's shutdown path
// does) call Checkpoint first, so tests can also exercise the
// crash-without-checkpoint path.
func (p *Persistence) Close() error {
	if p.closed.Swap(true) {
		return fmt.Errorf("persistence already closed")
	}
	if p.stopc != nil {
		close(p.stopc)
		<-p.cpDone
	}
	return p.log.Close()
}

// Kill simulates process death for crash tests: the checkpointer stops
// and the WAL's descriptors — including the directory lock — are
// released without flushing anything, exactly as the kernel reaps them
// when a process dies. The files are left as the last write and the
// fsync policy left them. See wal.(*Log).Kill.
func (p *Persistence) Kill() {
	if p.closed.Swap(true) {
		return
	}
	if p.stopc != nil {
		close(p.stopc)
		<-p.cpDone
	}
	p.log.Kill()
}

// ReplAppliedSeq is the replica resume floor: the highest upstream
// replication sequence this store has made locally durable, recovered at
// attach from the checkpoint's ReplSeq and the maximum RSeq replayed
// from the WAL tail. A restarted replica subscribes from here instead of
// re-requesting the full snapshot.
func (p *Persistence) ReplAppliedSeq() uint64 { return p.replSeq.Load() }

// ReplSnapshot captures an in-memory snapshot of every domain for
// streaming to a replica, without writing or trimming anything locally.
// The returned barrier is the WAL's durable horizon (not the last
// sequence written: a replica must never be told it holds a record the
// primary might not recover) read BEFORE the stores were snapshotted —
// the same barrier argument Checkpoint relies on: every
// record at or below it is reflected in the snapshot, so a replica that
// installs the snapshot and then follows the stream from the barrier
// misses nothing (records landing during the snapshot may be included
// AND replayed; replay is idempotent). The payload is a checkpointFile:
// the replica installs it with the routine boot uses (installSnapshot).
func (p *Persistence) ReplSnapshot() (uint64, []byte, error) {
	barrier := p.log.DurableSeq()
	data, err := p.sep.encodeSnapshot(barrier, barrier)
	if err != nil {
		return 0, nil, fmt.Errorf("persistence: encode snapshot: %w", err)
	}
	return barrier, data, nil
}

// ReplReadFrom reads WAL records with sequence > after for replication
// catch-up. See wal.(*Log).ReadFrom for the gap semantics (a trimmed
// prefix surfaces as a sequence jump the caller must detect).
func (p *Persistence) ReplReadFrom(after uint64, maxBytes int) ([]wal.Record, error) {
	return p.log.ReadFrom(after, maxBytes)
}

// ReplWatch subscribes to the live WAL tail. Subscribe BEFORE the
// catch-up read so no record can fall between the two.
func (p *Persistence) ReplWatch(buf int) *wal.Watcher { return p.log.Watch(buf) }

// ReplLastSeq is the newest acknowledged WAL sequence, the replication
// stream's head: what ReplReadFrom and ReplWatch have exposed or will.
func (p *Persistence) ReplLastSeq() uint64 { return p.log.DurableSeq() }

// registerGauges exports the durability counters as wal.* metrics; the
// log adds wal.fsync and wal.group_size* itself. wal.Stats takes no
// lock, so a scrape never queues behind an append.
func (p *Persistence) registerGauges(m *obs.Registry) {
	m.GaugeFunc("wal.appends", func() int64 { return p.log.Stats().Appends })
	m.GaugeFunc("wal.append_errors", p.appendErrors.Load)
	m.GaugeFunc("wal.fsyncs", func() int64 { return p.log.Stats().Fsyncs })
	m.GaugeFunc("wal.rotations", func() int64 { return p.log.Stats().Rotations })
	m.GaugeFunc("wal.trimmed_segments", func() int64 { return p.log.Stats().Trimmed })
	m.GaugeFunc("wal.last_seq", func() int64 { return int64(p.log.LastSeq()) })
	m.GaugeFunc("wal.recovered", p.recoveredRecords.Load)
	m.GaugeFunc("wal.recovered_skipped", p.recoveredSkipped.Load)
	m.GaugeFunc("wal.torn_segments", p.tornSegments.Load)
	m.GaugeFunc("wal.torn_dropped", p.droppedRecords.Load)
	m.GaugeFunc("wal.checkpoints", p.checkpoints.Load)
	m.GaugeFunc("wal.checkpoint_faults", p.checkpointFaults.Load)
	m.GaugeFunc("wal.last_checkpoint_seq", func() int64 { return int64(p.lastCheckpointSeq.Load()) })
	m.GaugeFunc("wal.recovery_ms", func() int64 {
		return p.recoveryNanos.Load() / int64(time.Millisecond)
	})
}
