package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/septic-db/septic/internal/faultinject"
	"github.com/septic-db/septic/internal/obs"
)

// Unit tests for the replica apply path in isolation — the transport is
// exercised end to end by internal/repl; here the records and snapshots
// are hand-fed so every branch (dedup, skip, refusal, local durability)
// is reachable deterministically.

// replRecord encodes one replicated WAL record the way the primary's
// log stores it.
func replRecord(t *testing.T, rec walRecord) []byte {
	t.Helper()
	data, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func putRecord(t *testing.T, dom, id, query string) []byte {
	t.Helper()
	m := modelFor(t, query)
	return replRecord(t, walRecord{Op: opPut, Dom: dom, ID: id, Model: &m, Sum: m.Fingerprint()})
}

func newReplica(t *testing.T) (*Septic, *ReplicaState) {
	t.Helper()
	sep := New(DefaultConfig())
	if _, err := sep.RegisterDomain("shop", DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	rs, err := sep.AttachReplicaSource()
	if err != nil {
		t.Fatal(err)
	}
	return sep, rs
}

func TestReplicaApplyRecordOps(t *testing.T) {
	sep, rs := newReplica(t)
	if !sep.IsReplica() || sep.ReplicaState() != rs {
		t.Fatal("replica mode not reflected on the Septic")
	}
	if _, err := sep.AttachReplicaSource(); err == nil {
		t.Fatal("second AttachReplicaSource accepted")
	}
	shop, _ := sep.Domain("shop")

	// put → model lands in the domain store.
	if err := rs.ApplyRecord(1, putRecord(t, "shop", "q1", "SELECT a FROM t WHERE b = 1")); err != nil {
		t.Fatal(err)
	}
	if shop.Store().ModelCount() != 1 {
		t.Fatalf("model count %d after put, want 1", shop.Store().ModelCount())
	}
	// approve, an older primary's config record, then delete — each routed
	// through the replay path. The config record says TRAINING; a replica
	// keeps the configuration it was started with, but moves past the
	// record without calling it damage.
	if err := rs.ApplyRecord(2, replRecord(t, walRecord{Op: opApprove, Dom: "shop", ID: "q1"})); err != nil {
		t.Fatal(err)
	}
	if err := rs.ApplyRecord(3, []byte(legacyCfgShop)); err != nil {
		t.Fatal(err)
	}
	if got := shop.Config(); got != DefaultConfig() {
		t.Fatalf("a replicated config record changed the replica's: %+v, want %+v", got, DefaultConfig())
	}
	if st := rs.Stats(); st.AppliedSeq != 3 || st.Skipped != 0 {
		t.Fatalf("after the config record: applied seq %d, %d skipped; want 3 and 0", st.AppliedSeq, st.Skipped)
	}
	if err := rs.ApplyRecord(4, replRecord(t, walRecord{Op: opDelete, Dom: "shop", ID: "q1"})); err != nil {
		t.Fatal(err)
	}
	if shop.Store().ModelCount() != 0 {
		t.Fatalf("model count %d after delete, want 0", shop.Store().ModelCount())
	}

	// Unroutable and undecodable records are counted, skipped, and still
	// advance the position — replay must converge on the applicable subset.
	if err := rs.ApplyRecord(5, putRecord(t, "nosuchdomain", "q2", "SELECT a FROM t WHERE b = 2")); err != nil {
		t.Fatal(err)
	}
	if err := rs.ApplyRecord(6, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	// A forged model (fingerprint mismatch) must not poison the store.
	m := modelFor(t, "SELECT a FROM t WHERE b = 3")
	forged := replRecord(t, walRecord{Op: opPut, Dom: "shop", ID: "q3", Model: &m, Sum: m.Fingerprint() + 1})
	if err := rs.ApplyRecord(7, forged); err != nil {
		t.Fatal(err)
	}
	if shop.Store().ModelCount() != 0 {
		t.Fatal("forged put reached the store")
	}
	// Redelivery at or below the applied position is the resume overlap:
	// absorbed, not reapplied.
	if err := rs.ApplyRecord(7, forged); err != nil {
		t.Fatal(err)
	}
	if err := rs.ApplyRecord(1, putRecord(t, "shop", "q1", "SELECT a FROM t WHERE b = 1")); err != nil {
		t.Fatal(err)
	}
	if shop.Store().ModelCount() != 0 {
		t.Fatal("duplicate put reapplied")
	}

	st := rs.Stats()
	if st.AppliedSeq != 7 || st.AppliedRecords != 4 || st.Skipped != 3 || st.DuplicateSeqs != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestReplicaApplySnapshot(t *testing.T) {
	// A real primary builds the snapshot; the replica installs it.
	primary := New(DefaultConfig())
	pshop, err := primary.RegisterDomain("shop", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ponly, err := primary.RegisterDomain("primary-only", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pp, err := primary.AttachPersistence(PersistenceOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Close()
	pshop.Store().Put("q1", modelFor(t, "SELECT a FROM t WHERE b = 1"), false)
	ponly.Store().Put("q2", modelFor(t, "SELECT a FROM t WHERE b = 2"), false)
	barrier, snap, err := pp.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if barrier != pp.ReplLastSeq() {
		t.Fatalf("barrier %d != last seq %d", barrier, pp.ReplLastSeq())
	}

	rsep, rs := newReplica(t)
	// Pre-existing local state is replaced wholesale by the snapshot.
	rs.ApplyRecord(99, putRecord(t, "shop", "stale", "SELECT a FROM t WHERE b = 9"))
	if err := rs.ApplySnapshot(barrier, snap); err != nil {
		t.Fatal(err)
	}
	shop, _ := rsep.Domain("shop")
	if shop.Store().ModelCount() != 1 {
		t.Fatalf("snapshot installed %d models, want 1", shop.Store().ModelCount())
	}
	if _, ok := shop.Store().Get("stale"); ok {
		t.Fatal("stale pre-snapshot model survived the install")
	}
	// The barrier is authoritative even when it moves the position
	// BACKWARD from a bogus earlier apply.
	if rs.AppliedSeq() != barrier {
		t.Fatalf("applied %d after snapshot, want barrier %d", rs.AppliedSeq(), barrier)
	}
	st := rs.Stats()
	if st.Snapshots != 1 || st.SnapshotBytes != int64(len(snap)) {
		t.Fatalf("snapshot counters %+v", st)
	}
	if st.Skipped == 0 {
		t.Fatal("snapshot domain unknown to the replica was not counted as skipped")
	}

	// Rejection branches: garbage, wrong version, forged fingerprints.
	if err := rs.ApplySnapshot(barrier, []byte("{oops")); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	bad, _ := json.Marshal(&checkpointFile{Version: checkpointVersion + 1, Domains: map[string]checkpointDomain{}})
	if err := rs.ApplySnapshot(barrier, bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong-version snapshot: %v", err)
	}
	var cp checkpointFile
	if err := json.Unmarshal(snap, &cp); err != nil {
		t.Fatal(err)
	}
	for _, dom := range cp.Domains {
		for id, set := range dom.Sets {
			for i := range set.Sums {
				set.Sums[i]++
			}
			dom.Sets[id] = set
		}
	}
	forged, _ := json.Marshal(&cp)
	if err := rs.ApplySnapshot(barrier, forged); err == nil {
		t.Fatal("snapshot with forged fingerprints accepted")
	}
}

// TestReplicaLocalDurabilityResume is the restart contract: a replica
// with local persistence checkpoints installed snapshots and journals
// applied records, so a rebooted incarnation resumes after its durable
// position instead of starting over.
func TestReplicaLocalDurabilityResume(t *testing.T) {
	primary := New(DefaultConfig())
	pshop, err := primary.RegisterDomain("shop", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pp, err := primary.AttachPersistence(PersistenceOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Close()
	pshop.Store().Put("q1", modelFor(t, "SELECT a FROM t WHERE b = 1"), false)
	barrier, snap, err := pp.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	boot := func() (*Septic, *ReplicaState, *Persistence) {
		sep := New(DefaultConfig())
		if _, err := sep.RegisterDomain("shop", DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		p, err := sep.AttachPersistence(PersistenceOptions{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := sep.AttachReplicaSource()
		if err != nil {
			t.Fatal(err)
		}
		return sep, rs, p
	}

	_, rs, p := boot()
	if err := rs.ApplySnapshot(barrier, snap); err != nil {
		t.Fatal(err)
	}
	next := barrier + 1
	if err := rs.ApplyRecord(next, putRecord(t, "shop", "q2", "SELECT a FROM t WHERE b = 2")); err != nil {
		t.Fatal(err)
	}
	// A record that cannot be decoded is journaled like the rest: the
	// durable position moves past it too, and a restart does not ask the
	// primary for it again.
	next++
	if err := rs.ApplyRecord(next, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	if p.ReplAppliedSeq() != next {
		t.Fatalf("durable position %d, want %d", p.ReplAppliedSeq(), next)
	}
	p.Kill() // crash: nothing flushed beyond what the WAL already has

	sep2, rs2, p2 := boot()
	defer p2.Close()
	if got := rs2.AppliedSeq(); got != next {
		t.Fatalf("rebooted replica resumes after %d, want %d", got, next)
	}
	shop, _ := sep2.Domain("shop")
	if shop.Store().ModelCount() != 2 {
		t.Fatalf("rebooted replica has %d models, want 2", shop.Store().ModelCount())
	}
}

// TestReplicaApplyErrorOnDeadPersistence: a failed local append is
// counted, the memory apply stands, and the durable floor stays behind
// so a restart re-fetches the record.
func TestReplicaApplyErrorOnDeadPersistence(t *testing.T) {
	sep := New(DefaultConfig())
	if _, err := sep.RegisterDomain("shop", DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	p, err := sep.AttachPersistence(PersistenceOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sep.AttachReplicaSource()
	if err != nil {
		t.Fatal(err)
	}
	p.Kill()
	if err := rs.ApplyRecord(1, putRecord(t, "shop", "q1", "SELECT a FROM t WHERE b = 1")); err != nil {
		t.Fatal(err)
	}
	shop, _ := sep.Domain("shop")
	if shop.Store().ModelCount() != 1 {
		t.Fatal("memory apply lost with the dead persistence")
	}
	st := rs.Stats()
	if st.ApplyErrors != 1 || st.AppliedSeq != 1 {
		t.Fatalf("stats %+v, want ApplyErrors 1 at seq 1", st)
	}
}

func TestReplicaReadOnlyAndPromote(t *testing.T) {
	hub := obs.NewHub()
	sep := New(DefaultConfig(),
		WithObserver(hub))
	if _, err := sep.RegisterDomain("shop", DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	rs, err := sep.AttachReplicaSource()
	if err != nil {
		t.Fatal(err)
	}
	shop, _ := sep.Domain("shop")
	if !shop.Store().ReadOnly() {
		t.Fatal("replica store accepts local writes")
	}
	if shop.Store().Put("q1", modelFor(t, "SELECT a FROM t WHERE b = 1"), false) {
		t.Fatal("read-only store accepted a local put")
	}

	rs.ApplyRecord(1, putRecord(t, "shop", "q1", "SELECT a FROM t WHERE b = 1"))
	rs.SetConnState(ReplStreaming)
	rs.ObserveSourceSeq(5)
	rs.ObserveSourceSeq(3) // source head is monotonic
	st := rs.Stats()
	if st.SourceSeq != 5 || st.LagSeq != 4 || st.State != ReplStreaming {
		t.Fatalf("stats %+v", st)
	}
	// The repl.* gauges are registered on attach and track the counters.
	g := hub.Metrics.Snapshot().Gauges
	if g["repl.applied_seq"] != 1 || g["repl.lag_seq"] != 4 || g["repl.state"] != int64(ReplStreaming) {
		t.Fatalf("gauges %v", g)
	}

	rs.Promote()
	rs.Promote() // idempotent
	if sep.IsReplica() || !rs.Promoted() || rs.ConnState() != ReplPromoted {
		t.Fatal("promotion did not take")
	}
	if !shop.Store().Put("q2", modelFor(t, "SELECT a FROM t WHERE b = 2"), false) {
		t.Fatal("promoted store still read-only")
	}
	// Straggling stream traffic after promotion is refused, and the
	// transport can no longer move the state gauge off "promoted".
	if err := rs.ApplyRecord(2, putRecord(t, "shop", "q3", "SELECT a FROM t WHERE b = 3")); err == nil {
		t.Fatal("post-promotion record applied")
	}
	if err := rs.ApplySnapshot(9, nil); err == nil {
		t.Fatal("post-promotion snapshot applied")
	}
	rs.SetConnState(ReplDisconnected)
	if rs.ConnState() != ReplPromoted {
		t.Fatal("SetConnState overrode promotion")
	}
}

func TestReplConnStateString(t *testing.T) {
	want := map[ReplConnState]string{
		ReplDisconnected:  "disconnected",
		ReplConnecting:    "connecting",
		ReplSyncing:       "syncing",
		ReplStreaming:     "streaming",
		ReplPromoted:      "promoted",
		ReplConnState(42): "ReplConnState(42)",
		ReplConnState(-1): "ReplConnState(-1)",
	}
	for st, name := range want {
		if st.String() != name {
			t.Errorf("%d.String() = %q, want %q", int64(st), st.String(), name)
		}
	}
}

// TestReplWatchAndLastSeq covers the primary-side feed: the watcher
// fires for appends made after subscription, and ReplLastSeq tracks the
// head the replicas chase.
func TestReplWatchAndLastSeq(t *testing.T) {
	sep := New(DefaultConfig())
	shop, err := sep.RegisterDomain("shop", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := sep.AttachPersistence(PersistenceOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	w := p.ReplWatch(4)
	if w == nil {
		t.Fatal("no watcher from a live log")
	}
	defer w.Close()
	before := p.ReplLastSeq()
	shop.Store().Put("q1", modelFor(t, "SELECT a FROM t WHERE b = 1"), false)
	if p.ReplLastSeq() != before+1 {
		t.Fatalf("head %d after one put, want %d", p.ReplLastSeq(), before+1)
	}
	rec, ok := <-w.C()
	if !ok || rec.Seq != before+1 {
		t.Fatalf("watcher delivered seq %d (ok=%t), want %d", rec.Seq, ok, before+1)
	}
	recs, err := p.ReplReadFrom(before, 0)
	if err != nil || len(recs) != 1 || recs[0].Seq != before+1 {
		t.Fatalf("ReplReadFrom(%d): %d recs, err %v", before, len(recs), err)
	}
}

// TestChaosReplHeadStopsAtDurableHorizon parks a Put's flush leader
// inside the fsync: its record is written (the WAL's LastSeq has moved)
// but not durable, so the replication surface — head, catch-up read,
// tail watcher — must not show it until the fsync completes. A replica
// that applied it could hold a record the primary loses in a crash and
// re-issues, different, under the same sequence number.
func TestChaosReplHeadStopsAtDurableHorizon(t *testing.T) {
	sep := New(DefaultConfig())
	p, err := sep.AttachPersistence(PersistenceOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	w := p.ReplWatch(4)
	defer w.Close()

	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	faultinject.Arm(func(site string) {
		if site == faultinject.SiteWALFsync {
			once.Do(func() {
				close(entered)
				<-release
			})
		}
	})
	defer faultinject.Disarm()
	model := modelFor(t, "SELECT a FROM t WHERE b = 1")
	put := make(chan bool, 1)
	go func() { put <- sep.Store().Put("q1", model, false) }()
	<-entered

	if got := p.Stats().WAL.LastSeq; got != 1 {
		t.Fatalf("wal last seq %d, want the written record 1", got)
	}
	if head := p.ReplLastSeq(); head != 0 {
		t.Fatalf("replication head %d while seq 1 awaits its fsync", head)
	}
	if recs, err := p.ReplReadFrom(0, 0); err != nil || len(recs) != 0 {
		t.Fatalf("catch-up read exposed %d unsynced record(s), err %v", len(recs), err)
	}
	select {
	case rec := <-w.C():
		t.Fatalf("watcher delivered seq %d before its fsync", rec.Seq)
	default:
	}

	close(release)
	if !<-put {
		t.Fatal("put refused")
	}
	if rec := <-w.C(); rec.Seq != 1 {
		t.Fatalf("watcher delivered seq %d, want 1", rec.Seq)
	}
	barrier, _, err := p.ReplSnapshot()
	if err != nil || barrier != 1 || p.ReplLastSeq() != 1 {
		t.Fatalf("after the fsync: barrier %d, head %d, err %v; want 1, 1, nil", barrier, p.ReplLastSeq(), err)
	}
}

// TestReplicaSnapshotLeavesConfigAlone: a detection replica that installs
// a snapshot taken from a training primary — in today's form, and in the
// older form that recorded the primary's configuration — holds the
// primary's models and still runs in detection mode.
func TestReplicaSnapshotLeavesConfigAlone(t *testing.T) {
	training := DefaultConfig()
	training.Mode = ModeTraining
	primary := New(training)
	pshop, err := primary.RegisterDomain("shop", training)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := primary.AttachPersistence(PersistenceOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Close()
	pshop.Store().Put("shop:q1", modelFor(t, "SELECT a FROM t WHERE b = 1"), false)
	barrier, snap, err := pp.ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	for name, data := range map[string][]byte{"current": snap, "legacy": []byte(legacyCheckpoint)} {
		detection := DefaultConfig()
		detection.Mode = ModeDetection
		sep := New(detection)
		shop, err := sep.RegisterDomain("shop", detection)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := sep.AttachReplicaSource()
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.ApplySnapshot(barrier, data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := shop.Store().Get("shop:q1"); !ok {
			t.Errorf("%s: the snapshot's model did not arrive", name)
		}
		for _, d := range sep.Domains() {
			if d.Config() != detection {
				t.Errorf("%s: domain %s runs %+v after the install, want the replica's own %+v", name, d.Name(), d.Config(), detection)
			}
		}
		if st := rs.Stats(); st.Skipped != 0 {
			t.Errorf("%s: %d skipped, want 0", name, st.Skipped)
		}
	}
}

// TestReplicaSnapshotIsAllOrNothing: one domain with a forged fingerprint
// refuses the whole snapshot, before any of the sound domains beside it
// has been replaced.
func TestReplicaSnapshotIsAllOrNothing(t *testing.T) {
	primary := New(DefaultConfig())
	replica := New(DefaultConfig())
	names := []string{"d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7"}
	for _, name := range names {
		pd, err := primary.RegisterDomain(name, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		pd.Store().Put(name+":new", modelFor(t, "SELECT a FROM t WHERE b = 1"), false)
		rd, err := replica.RegisterDomain(name, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		rd.Store().Put(name+":old", modelFor(t, "SELECT a FROM t"), false)
	}
	good, err := primary.encodeSnapshot(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := replica.AttachReplicaSource()
	if err != nil {
		t.Fatal(err)
	}
	dump := func() (out [][]DumpEntry) {
		for _, d := range replica.Domains() {
			out = append(out, d.Store().Dump())
		}
		return out
	}
	before := dump()

	var cp checkpointFile
	if err := json.Unmarshal(good, &cp); err != nil {
		t.Fatal(err)
	}
	cp.Domains["d7"].Sets["d7:new"].Sums[0]++
	forged, _ := json.Marshal(&cp)
	// Map order decides which domains come before the forged one; a few
	// rounds make "none of the seven was restored first" no accident.
	for round := 0; round < 4; round++ {
		if err := rs.ApplySnapshot(1, forged); err == nil || !strings.Contains(err.Error(), `domain "d7"`) {
			t.Fatalf("forged snapshot: %v, want domain d7's fingerprint refused", err)
		}
		if after := dump(); !reflect.DeepEqual(after, before) {
			t.Fatalf("a refused snapshot replaced stores:\n%v\nwant them as before:\n%v", after, before)
		}
	}
	if err := rs.ApplySnapshot(1, good); err != nil {
		t.Fatal(err)
	}
	if d0, _ := replica.Domain("d0"); len(d0.Store().IDs()) != 1 || d0.Store().IDs()[0] != "d0:new" {
		t.Fatalf("the sound snapshot did not install: d0 holds %v", d0.Store().IDs())
	}
}

func TestReplicaRejectsMalformedSnapshots(t *testing.T) {
	_, rs := newReplica(t)
	for name, tc := range malformedSnapshots() {
		if err := rs.ApplySnapshot(1, []byte(tc[0])); err == nil {
			t.Errorf("%s: snapshot accepted", name)
		} else if !strings.Contains(err.Error(), tc[1]) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc[1])
		}
	}
	if st := rs.Stats(); st.Snapshots != 0 || st.AppliedSeq != 0 {
		t.Fatalf("refused snapshots moved the replica: %+v", st)
	}
}
