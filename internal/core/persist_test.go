package core

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/septic-db/septic/internal/faultinject"
	"github.com/septic-db/septic/internal/obs"
	"github.com/septic-db/septic/internal/wal"
)

// newPersisted builds a Septic with one registered domain ("shop") and
// durability attached in dir, mirroring the septicd boot order: domains
// first, attach second.
func newPersisted(t *testing.T, dir string, opts PersistenceOptions) (*Septic, *Persistence) {
	t.Helper()
	s := New(DefaultConfig())
	if _, err := s.RegisterDomain("shop", DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	opts.Dir = dir
	p, err := s.AttachPersistence(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1, p1 := newPersisted(t, dir, PersistenceOptions{Fsync: wal.FsyncAlways})

	m1 := modelFor(t, "SELECT a FROM t WHERE b = 1")
	m2 := modelFor(t, "SELECT name FROM users WHERE id = 2")
	if !s1.Store().Put("q1", m1, false) {
		t.Fatal("put q1")
	}
	shop, _ := s1.Domain("shop")
	if !shop.Store().Put("q2", m2, true) {
		t.Fatal("put q2")
	}
	s1.Store().Put("gone", m2, false)
	s1.Store().Delete("gone")
	shop.Store().Approve("q2")
	shop.SetMode(ModeDetection)
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: no checkpoint was taken, so everything comes back from
	// the WAL alone.
	s2, p2 := newPersisted(t, dir, PersistenceOptions{Fsync: wal.FsyncAlways})
	defer p2.Close()
	if _, ok := s2.Store().Get("q1"); !ok {
		t.Fatal("q1 lost across restart")
	}
	if _, ok := s2.Store().Get("gone"); ok {
		t.Fatal("deleted identifier resurrected")
	}
	shop2, _ := s2.Domain("shop")
	if _, ok := shop2.Store().Get("q2"); !ok {
		t.Fatal("q2 lost across restart")
	}
	if pending := shop2.Store().PendingReview(); len(pending) != 0 {
		t.Fatalf("approval lost: pending = %v", pending)
	}
	// The mode is this boot's, not the last run's: only models persist.
	if shop2.Mode() != DefaultConfig().Mode {
		t.Fatalf("mode = %s, want the %s the domain was registered with", shop2.Mode(), DefaultConfig().Mode)
	}
	// Default-domain state never leaks into the registered domain and
	// vice versa.
	if _, ok := s2.Store().Get("q2"); ok {
		t.Fatal("q2 leaked into the default domain")
	}
	// put q1, put q2, put gone, delete gone, approve q2 — and nothing for
	// the mode change.
	if st := p2.Stats(); st.RecoveredRecords != 5 || st.RecoveredSkipped != 0 {
		t.Fatalf("stats = %+v, want 5 records replayed and none skipped", st)
	}
}

func TestPersistenceCheckpointTrimsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	// A tiny segment size forces rotations so the checkpoint has sealed
	// segments to trim.
	s1, p1 := newPersisted(t, dir, PersistenceOptions{
		Fsync: wal.FsyncAlways, SegmentSize: 256,
	})
	queries := []string{
		"SELECT a FROM t1 WHERE x = 1",
		"SELECT b FROM t2 WHERE y = 2",
		"SELECT c FROM t3 WHERE z = 3",
		"SELECT d FROM t4 WHERE w = 4",
	}
	for i, q := range queries {
		if !s1.Store().Put(q, modelFor(t, q), false) {
			t.Fatalf("put %d", i)
		}
	}
	if err := p1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := p1.Stats()
	if st.Checkpoints != 1 || st.LastCheckpointSeq == 0 {
		t.Fatalf("checkpoint stats = %+v", st)
	}
	if st.WAL.Trimmed == 0 {
		t.Fatal("checkpoint trimmed no sealed segments")
	}
	// One more mutation after the checkpoint: recovery must stitch
	// checkpoint + WAL tail together.
	post := "SELECT e FROM t5 WHERE v = 5"
	if !s1.Store().Put(post, modelFor(t, post), false) {
		t.Fatal("post-checkpoint put")
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, p2 := newPersisted(t, dir, PersistenceOptions{Fsync: wal.FsyncAlways})
	defer p2.Close()
	for _, q := range append(queries, post) {
		if _, ok := s2.Store().Get(q); !ok {
			t.Fatalf("%q lost across checkpointed restart", q)
		}
	}
	if n := s2.Store().Len(); n != len(queries)+1 {
		t.Fatalf("store has %d identifiers, want %d", n, len(queries)+1)
	}
}

func TestPersistenceReplayIsIdempotentOverCheckpoint(t *testing.T) {
	// Records the checkpoint already covers may also sit in the WAL tail
	// (the barrier is read before the snapshot, so later records can be
	// included in both). Replay over the snapshot must not duplicate
	// models.
	dir := t.TempDir()
	s1, p1 := newPersisted(t, dir, PersistenceOptions{Fsync: wal.FsyncAlways})
	q := "SELECT a FROM t WHERE b = 1"
	s1.Store().Put(q, modelFor(t, q), false)
	if err := p1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, p2 := newPersisted(t, dir, PersistenceOptions{Fsync: wal.FsyncAlways})
	defer p2.Close()
	if n := s2.Store().ModelCount(); n != 1 {
		t.Fatalf("model count = %d, want 1 (replay not idempotent)", n)
	}
}

func TestPersistenceSkipsUnknownDomain(t *testing.T) {
	dir := t.TempDir()
	s1, p1 := newPersisted(t, dir, PersistenceOptions{Fsync: wal.FsyncAlways})
	shop, _ := s1.Domain("shop")
	shop.Store().Put("orphan", modelFor(t, "SELECT 1"), false)
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart WITHOUT registering "shop": its records must be skipped
	// and counted, never applied to the default domain or fatal.
	s2 := New(DefaultConfig())
	p2, err := s2.AttachPersistence(PersistenceOptions{Dir: dir, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if _, ok := s2.Store().Get("orphan"); ok {
		t.Fatal("unknown-domain record applied to the default domain")
	}
	if st := p2.Stats(); st.RecoveredSkipped == 0 {
		t.Fatalf("skipped records not counted: %+v", st)
	}
}

func TestPersistencePutRefusedWhenAppendFails(t *testing.T) {
	dir := t.TempDir()
	s, p := newPersisted(t, dir, PersistenceOptions{Fsync: wal.FsyncAlways})
	defer p.Close()
	faultinject.ArmErr(faultinject.FailPoint(faultinject.SiteWALAppend, 1))
	defer faultinject.DisarmErr()
	if s.Store().Put("q", modelFor(t, "SELECT 1"), false) {
		t.Fatal("Put acknowledged a model whose WAL append failed")
	}
	if _, ok := s.Store().Get("q"); ok {
		t.Fatal("refused Put still published the model in memory")
	}
	if st := p.Stats(); st.AppendErrors != 1 {
		t.Fatalf("append errors = %d, want 1", st.AppendErrors)
	}
	// The failure fired before any byte was written, so the log is NOT
	// poisoned: the next Put simply succeeds. The retry being free is
	// the point of refusing the first one.
	if !s.Store().Put("q2", modelFor(t, "SELECT 2"), false) {
		t.Fatal("Put refused after a clean pre-write failure")
	}
	if p.Err() != nil {
		t.Fatalf("log poisoned by a pre-write refusal: %v", p.Err())
	}
}

func TestPersistenceTornAppendPoisonsAndRefuses(t *testing.T) {
	dir := t.TempDir()
	s, p := newPersisted(t, dir, PersistenceOptions{Fsync: wal.FsyncAlways})
	defer p.Close()
	// A failure mid-frame leaves torn bytes on disk: the log poisons
	// itself and every later mutation is refused (for puts) or proceeds
	// memory-only (deletes/approvals), so no acknowledged record can sit
	// beyond a tear where recovery would silently drop it.
	faultinject.ArmErr(faultinject.FailPoint(faultinject.SiteWALShortWrite, 1))
	if s.Store().Put("torn", modelFor(t, "SELECT 1"), false) {
		t.Fatal("Put acknowledged through a torn append")
	}
	faultinject.DisarmErr()
	if s.Store().Put("next", modelFor(t, "SELECT 2"), false) {
		t.Fatal("Put acknowledged on a poisoned log")
	}
	if !errors.Is(p.Err(), wal.ErrLogFailed) {
		t.Fatalf("log not poisoned: %v", p.Err())
	}
	if st := p.Stats(); st.AppendErrors != 2 {
		t.Fatalf("append errors = %d, want 2", st.AppendErrors)
	}
}

func TestPersistenceCheckpointFaultIsContainedAndCounted(t *testing.T) {
	dir := t.TempDir()
	s, p := newPersisted(t, dir, PersistenceOptions{Fsync: wal.FsyncAlways})
	defer p.Close()
	q := "SELECT a FROM t WHERE b = 1"
	s.Store().Put(q, modelFor(t, q), false)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, checkpointFileName))
	if err != nil {
		t.Fatal(err)
	}

	// A checkpoint that dies before the rename must leave the previous
	// snapshot byte-identical.
	faultinject.ArmErr(faultinject.FailPoint(faultinject.SiteAtomicRename, 1))
	if err := p.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded through an injected rename failure")
	}
	faultinject.DisarmErr()
	after, err := os.ReadFile(filepath.Join(dir, checkpointFileName))
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(good) {
		t.Fatal("failed checkpoint corrupted the previous snapshot")
	}
	if st := p.Stats(); st.CheckpointFaults != 1 {
		t.Fatalf("checkpoint faults = %d, want 1", st.CheckpointFaults)
	}
	// The next attempt succeeds.
	if err := p.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after contained fault: %v", err)
	}
}

func TestPersistenceBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	s, p := newPersisted(t, dir, PersistenceOptions{
		Fsync: wal.FsyncAlways, CheckpointInterval: 5 * time.Millisecond,
	})
	q := "SELECT a FROM t WHERE b = 1"
	s.Store().Put(q, modelFor(t, q), false)
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background checkpointer never ran")
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointFileName)); err != nil {
		t.Fatalf("no checkpoint file: %v", err)
	}
}

func TestPersistenceLateRegisteredDomainIsBound(t *testing.T) {
	dir := t.TempDir()
	s := New(DefaultConfig())
	p, err := s.AttachPersistence(PersistenceOptions{Dir: dir, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	// Registered AFTER attach: the domain must still be durable.
	late, err := s.RegisterDomain("late", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	late.Store().Put("lq", modelFor(t, "SELECT 9"), false)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := New(DefaultConfig())
	if _, err := s2.RegisterDomain("late", DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	p2, err := s2.AttachPersistence(PersistenceOptions{Dir: dir, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	d2, _ := s2.Domain("late")
	if _, ok := d2.Store().Get("lq"); !ok {
		t.Fatal("late-registered domain's model lost")
	}
}

func TestPersistenceDoubleAttachRejected(t *testing.T) {
	s := New(DefaultConfig())
	p, err := s.AttachPersistence(PersistenceOptions{Dir: t.TempDir(), Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := s.AttachPersistence(PersistenceOptions{Dir: t.TempDir()}); err == nil {
		t.Fatal("second attach must be rejected")
	}
	if s.Persistence() != p {
		t.Fatal("Persistence() accessor broken")
	}
}

func TestPersistenceRejectsCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, checkpointFileName), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(DefaultConfig())
	if _, err := s.AttachPersistence(PersistenceOptions{Dir: dir, Fsync: wal.FsyncNever}); err == nil {
		t.Fatal("corrupt checkpoint must fail attach loudly, not boot empty")
	}
}

// TestPersistenceGauges checks the wal.* metrics surface: every gauge is
// registered on the observer hub, the attach event is published, and the
// counters move with real traffic.
func TestPersistenceGauges(t *testing.T) {
	dir := t.TempDir()
	hub := obs.NewHub()
	s := New(DefaultConfig(), WithObserver(hub))
	p, err := s.AttachPersistence(PersistenceOptions{Dir: dir, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !s.Store().Put("q1", modelFor(t, "SELECT a FROM t WHERE b = 1"), false) {
		t.Fatal("put")
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	snap := hub.Metrics.Snapshot()
	for _, name := range []string{
		"wal.appends", "wal.append_errors", "wal.fsyncs", "wal.rotations",
		"wal.trimmed_segments", "wal.last_seq", "wal.recovered",
		"wal.recovered_skipped", "wal.torn_segments", "wal.torn_dropped",
		"wal.checkpoints", "wal.checkpoint_faults", "wal.last_checkpoint_seq",
		"wal.recovery_ms",
	} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Fatalf("gauge %s not registered", name)
		}
	}
	if snap.Gauges["wal.appends"] != 1 || snap.Gauges["wal.fsyncs"] != 1 {
		t.Fatalf("appends/fsyncs gauges: %d/%d, want 1/1",
			snap.Gauges["wal.appends"], snap.Gauges["wal.fsyncs"])
	}
	if snap.Gauges["wal.checkpoints"] != 1 || snap.Gauges["wal.last_checkpoint_seq"] != 1 {
		t.Fatalf("checkpoint gauges: %+v", snap.Gauges)
	}
	// The flush leader's own numbers: one fsync, which made one record
	// durable.
	if h := snap.Histograms["wal.fsync"]; h.Count != 1 || h.SumNS <= 0 {
		t.Fatalf("wal.fsync histogram: count %d sum %dns, want one timed fsync", h.Count, h.SumNS)
	}
	if snap.Gauges["wal.group_size"] != 1 || snap.Gauges["wal.group_size_max"] != 1 {
		t.Fatalf("group size gauges: %d (max %d), want 1 (1)",
			snap.Gauges["wal.group_size"], snap.Gauges["wal.group_size_max"])
	}
	if evs := s.Logger().Recent("wal", 0); len(evs) == 0 {
		t.Fatal("no wal attach event published")
	}
}

// TestPersistenceSkipsCorruptRecords feeds the recovery path records the
// current code would never write — broken JSON, an unknown op, a model
// whose stored fingerprint does not match its content, a put without a
// model — and requires each to be skipped (counted, never fatal) while a
// good record in the same log still lands.
func TestPersistenceSkipsCorruptRecords(t *testing.T) {
	dir := t.TempDir()

	// Forge the log directly, bypassing the Persistence layer.
	log, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.FsyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := modelFor(t, "SELECT a FROM t WHERE b = 1")
	appendRec := func(rec walRecord) {
		t.Helper()
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := log.Append(data); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := log.Append([]byte("{not json")); err != nil {
		t.Fatal(err)
	}
	appendRec(walRecord{Op: "compact", Dom: DefaultDomain})                           // unknown op
	appendRec(walRecord{Op: opPut, Dom: DefaultDomain, ID: "bad", Model: &m, Sum: 1}) // fingerprint lie
	appendRec(walRecord{Op: opPut, Dom: DefaultDomain, ID: "nil"})                    // put without model
	appendRec(walRecord{Op: opPut, Dom: DefaultDomain, ID: "good", Model: &m, Sum: m.Fingerprint()})
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	s, p := newPersisted(t, dir, PersistenceOptions{Fsync: wal.FsyncNever})
	defer p.Close()
	st := p.Stats()
	if st.RecoveredSkipped != 4 {
		t.Fatalf("RecoveredSkipped = %d, want 4", st.RecoveredSkipped)
	}
	if st.RecoveredRecords != 1 {
		t.Fatalf("RecoveredRecords = %d, want 1", st.RecoveredRecords)
	}
	if _, ok := s.Store().Get("good"); !ok {
		t.Fatal("good record did not survive its corrupt neighbours")
	}
	for _, id := range []string{"bad", "nil"} {
		if _, ok := s.Store().Get(id); ok {
			t.Fatalf("corrupt record %q was applied", id)
		}
	}
}

// TestPersistenceAttachRejectsUnusableDir: the WAL directory colliding
// with an existing file is a boot error, not a silent no-durability run.
func TestPersistenceAttachRejectsUnusableDir(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "occupied")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(DefaultConfig())
	if _, err := s.AttachPersistence(PersistenceOptions{Dir: path}); err == nil {
		t.Fatal("attach over a regular file succeeded")
	}
}

func TestPersistenceDoubleCloseRejected(t *testing.T) {
	_, p := newPersisted(t, t.TempDir(), PersistenceOptions{Fsync: wal.FsyncNever})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err == nil {
		t.Fatal("second close succeeded")
	}
}

// TestPersistenceSafeCheckpointContainsPanicAndError drives the
// background checkpointer's containment wrapper directly: an injected
// panic at the checkpoint site is swallowed and counted, an injected
// error is logged, and a clean run afterwards still checkpoints.
func TestPersistenceSafeCheckpointContainsPanicAndError(t *testing.T) {
	_, p := newPersisted(t, t.TempDir(), PersistenceOptions{Fsync: wal.FsyncNever})
	defer p.Close()

	faultinject.Arm(faultinject.KillPoint(faultinject.SiteCheckpoint, 1))
	p.safeCheckpoint() // must not panic out
	faultinject.Disarm()
	if got := p.Stats().CheckpointFaults; got != 1 {
		t.Fatalf("CheckpointFaults = %d after contained panic, want 1", got)
	}

	faultinject.ArmErr(faultinject.FailPoint(faultinject.SiteCheckpoint, 1))
	p.safeCheckpoint()
	faultinject.DisarmErr()
	if got := p.Stats().Checkpoints; got != 0 {
		t.Fatalf("failed checkpoint was counted: %d", got)
	}

	p.safeCheckpoint()
	if got := p.Stats().Checkpoints; got != 1 {
		t.Fatalf("clean checkpoint after faults: Checkpoints = %d, want 1", got)
	}
}

// What the releases that still persisted configuration wrote, byte for
// byte (taken from a directory one of them produced): a checkpoint with a
// "config" beside each domain's sets, and "cfg" records in the log. Both
// record the domains in TRAINING mode (1).
const (
	legacyCheckpoint = `{"version":1,"wal_seq":2,"domains":{"default":{"config":{"mode":1,"sqli":true,"stored":true,"incremental":true,"fail_open":false},"sets":{}},"shop":{"config":{"mode":1,"sqli":true,"stored":true,"incremental":true,"fail_open":false},"sets":{"shop:q1":{"models":[{"nodes":[{"cat":2,"data":"t"},{"cat":1,"data":"a"},{"cat":4,"data":"b"},{"cat":22,"data":"⊥"},{"cat":5,"data":"="}]}],"sums":[10641995891163404906],"hits":0}}}}}`
	legacyCfgShop    = `{"op":"cfg","dom":"shop","cfg":{"mode":1,"sqli":true,"stored":true,"incremental":true,"fail_open":false}}`
	legacyPutQ1      = `{"op":"put","dom":"shop","id":"shop:q1","model":{"nodes":[{"cat":2,"data":"t"},{"cat":1,"data":"a"},{"cat":4,"data":"b"},{"cat":22,"data":"⊥"},{"cat":5,"data":"="}]},"sum":10641995891163404906}`
	legacyPutQ2      = `{"op":"put","dom":"shop","id":"shop:q2","model":{"nodes":[{"cat":2,"data":"t"},{"cat":1,"data":"a"}]},"sum":4564267318190145035,"inc":true}`
	legacyCfgDefault = `{"op":"cfg","dom":"default","cfg":{"mode":1,"sqli":true,"stored":true,"incremental":true,"fail_open":false}}`
)

// TestPersistenceReadsPastLegacyConfig: a directory an older release left
// behind boots — the models come back, the recorded configuration is
// read past (it is not damage, so nothing is counted as skipped) and the
// domains run in the mode this boot gave them.
func TestPersistenceReadsPastLegacyConfig(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, checkpointFileName), []byte(legacyCheckpoint), 0o644); err != nil {
		t.Fatal(err)
	}
	log, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.FsyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Sequences 1 and 2 are under the checkpoint's barrier; 3 and 4 are
	// the tail recovery replays.
	for _, rec := range []string{legacyCfgShop, legacyPutQ1, legacyPutQ2, legacyCfgDefault} {
		if _, err := log.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	s, p := newPersisted(t, dir, PersistenceOptions{Fsync: wal.FsyncNever})
	defer p.Close()
	shop, _ := s.Domain("shop")
	if got := shop.Store().IDs(); len(got) != 2 || got[0] != "shop:q1" || got[1] != "shop:q2" {
		t.Fatalf("recovered identifiers %v, want shop:q1 and shop:q2", got)
	}
	if st := p.Stats(); st.RecoveredSkipped != 0 || st.RecoveredRecords != 2 {
		t.Fatalf("replayed %d, skipped %d; want the 2 tail records and nothing skipped", st.RecoveredRecords, st.RecoveredSkipped)
	}
	for _, d := range s.Domains() {
		if d.Mode() != DefaultConfig().Mode {
			t.Errorf("domain %s runs in %s, the mode an old run recorded; want %s", d.Name(), d.Mode(), DefaultConfig().Mode)
		}
	}
}

// malformedSnapshots is TestStoreLoadRejectsMalformedFiles' table in
// checkpoint form: what a plain json.Unmarshal forgives and the one
// decoder must not, whether the bytes come from the disk or off the
// replication stream.
func malformedSnapshots() map[string][2]string { // name → {snapshot, error substring}
	set := `{"models":[{"nodes":[{"cat":2,"data":"t"},{"cat":1,"data":"a"}]}],"sums":[4564267318190145035]}`
	wrap := func(sets string) string {
		return `{"version":1,"wal_seq":0,"domains":{"shop":{"sets":{` + sets + `}}}}`
	}
	return map[string][2]string{
		"duplicate identifier": {wrap(`"q1":` + set + `,"q1":` + set), `duplicate member "q1"`},
		"duplicate domain":     {`{"version":1,"domains":{"shop":{"sets":{}},"shop":{"sets":{}}}}`, `duplicate member "shop"`},
		"oversized record":     {wrap(`"q1":{"models":[],"pad":"` + strings.Repeat("x", maxPersistedSetBytes) + `"}`), "exceeds"},
		"truncated sums":       {wrap(`"q1":{"models":[{"nodes":[{"cat":2,"data":"t"}]}],"sums":[]}`), "0 fingerprint(s) for 1 model(s)"},
		"forged sum":           {wrap(`"q1":{"models":[{"nodes":[{"cat":2,"data":"t"}]}],"sums":[7]}`), "fingerprint mismatch"},
		"sets not an object":   {`{"version":1,"domains":{"shop":{"sets":[1]}}}`, "not a JSON object"},
		"not an object":        {`[1, 2, 3]`, "cannot unmarshal array"},
		"truncated":            {`{"version":1,"domains":{"shop":{"sets":{"q1":{"mod`, ""},
	}
}

func TestPersistenceRejectsMalformedCheckpoints(t *testing.T) {
	for name, tc := range malformedSnapshots() {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, checkpointFileName), []byte(tc[0]), 0o644); err != nil {
			t.Fatal(err)
		}
		s := New(DefaultConfig())
		if _, err := s.RegisterDomain("shop", DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		p, err := s.AttachPersistence(PersistenceOptions{Dir: dir, Fsync: wal.FsyncNever})
		if err == nil {
			p.Close()
			t.Errorf("%s: attach accepted the checkpoint", name)
		} else if !strings.Contains(err.Error(), tc[1]) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc[1])
		}
	}
}
