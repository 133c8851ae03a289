package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/qstruct"
	"github.com/septic-db/septic/internal/sqlparser"
	"github.com/septic-db/septic/internal/wal"
	"github.com/septic-db/septic/internal/wire"
)

// snapshotGoroutines records the goroutine count for a leak check at
// test end (the wire suite's pattern): after primaries and replicas
// shut down the count must return to (near) the snapshot.
func snapshotGoroutines(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= base+2 {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d live, snapshot was %d\n%s",
			runtime.NumGoroutine(), base, buf[:n])
	})
}

// testDomains are the protection domains both sides register.
var testDomains = []string{"shop", "crm"}

// modelFor parses q and builds its query structure model.
func modelFor(t *testing.T, q string) qstruct.Model {
	t.Helper()
	stmt, err := sqlparser.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return qstruct.ModelOf(qstruct.BuildStack(stmt))
}

// newPrimary builds a training-mode Septic with persistence in dir and
// the test domains registered.
func newPrimary(t *testing.T, dir string) (*core.Septic, *core.Persistence) {
	t.Helper()
	s := core.New(core.DefaultConfig())
	for _, name := range testDomains {
		if _, err := s.RegisterDomain(name, core.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	}
	p, err := s.AttachPersistence(core.PersistenceOptions{
		Dir: dir, Fsync: wal.FsyncNever, SegmentSize: 4096,
	})
	if err != nil {
		t.Fatalf("primary persistence: %v", err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return s, p
}

// servePrimary exposes src as a replication primary on a loopback query
// port, the one door a replica attaches through.
func servePrimary(t *testing.T, src Source, opts PrimaryOptions) (string, *Primary) {
	t.Helper()
	if opts.HeartbeatInterval == 0 {
		opts.HeartbeatInterval = 20 * time.Millisecond
	}
	p := NewPrimary(src, opts)
	t.Cleanup(p.Close)
	return startWireServer(t, wire.WithReplHandler(p.HandleConn)), p
}

// newReplicaSeptic builds a detection-mode Septic in replica mode with
// the test domains registered; dir != "" attaches local persistence
// first (the resume-from-disk configuration).
func newReplicaSeptic(t *testing.T, dir string) (*core.Septic, *core.ReplicaState) {
	t.Helper()
	s, rs, _ := newReplicaSepticPersist(t, dir)
	return s, rs
}

// newReplicaSepticPersist is newReplicaSeptic exposing the persistence
// handle (nil without a dir) so restart tests can Kill it.
func newReplicaSepticPersist(t *testing.T, dir string) (*core.Septic, *core.ReplicaState, *core.Persistence) {
	t.Helper()
	s := core.New(core.Config{
		Mode: core.ModeDetection, DetectSQLI: true, DetectStored: true,
		IncrementalLearning: true,
	})
	for _, name := range testDomains {
		if _, err := s.RegisterDomain(name, core.Config{Mode: core.ModeDetection}); err != nil {
			t.Fatal(err)
		}
	}
	var p *core.Persistence
	if dir != "" {
		var err error
		p, err = s.AttachPersistence(core.PersistenceOptions{
			Dir: dir, Fsync: wal.FsyncNever,
		})
		if err != nil {
			t.Fatalf("replica persistence: %v", err)
		}
		t.Cleanup(func() { p.Kill() })
	}
	rs, err := s.AttachReplicaSource()
	if err != nil {
		t.Fatal(err)
	}
	return s, rs, p
}

// fastReplicaOptions keeps test reconnects snappy.
func fastReplicaOptions() ReplicaOptions {
	return ReplicaOptions{
		DialTimeout:      time.Second,
		HandshakeTimeout: time.Second,
		ReadTimeout:      2 * time.Second,
		BackoffBase:      2 * time.Millisecond,
		BackoffCap:       50 * time.Millisecond,
	}
}

// startReplica connects rs to addr and registers cleanup.
func startReplica(t *testing.T, addr string, rs *core.ReplicaState) *Replica {
	t.Helper()
	r := NewReplica(addr, rs, fastReplicaOptions())
	r.Start()
	t.Cleanup(r.Close)
	return r
}

// waitApplied blocks until the replica's applied position reaches
// target (the primary's head at the call).
func waitApplied(t *testing.T, rs *core.ReplicaState, target uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if rs.AppliedSeq() >= target {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("replica stuck at seq %d, want %d (state %v)",
		rs.AppliedSeq(), target, rs.ConnState())
}

// dumpJSON renders one store's dump with Hits normalized to zero:
// detection reads on the replica bump usage counters, which are
// node-local observations, not replicated state.
func dumpJSON(t *testing.T, s *core.Store) string {
	t.Helper()
	dump := s.Dump()
	for i := range dump {
		dump[i].Hits = 0
	}
	data, err := json.Marshal(dump)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// assertStoresIdentical compares every domain's store dump between
// primary and replica, byte for byte (hits normalized).
func assertStoresIdentical(t *testing.T, primary, replica *core.Septic) {
	t.Helper()
	for _, d := range primary.Domains() {
		rd, ok := replica.Domain(d.Name())
		if !ok {
			t.Fatalf("replica lacks domain %q", d.Name())
		}
		want := dumpJSON(t, d.Store())
		got := dumpJSON(t, rd.Store())
		if got != want {
			t.Errorf("domain %q diverged:\nprimary: %s\nreplica: %s", d.Name(), want, got)
		}
	}
}

// primaryMutator drives seeded randomized mutations against a primary:
// puts, deletes, approvals and config changes across every domain —
// the write mix the conformance suite replays.
type primaryMutator struct {
	t      *testing.T
	sep    *core.Septic
	rng    *rand.Rand
	models []qstruct.Model
	live   []string // "domain/id" of ids currently present
	nextID int
}

func newPrimaryMutator(t *testing.T, sep *core.Septic, seed int64) *primaryMutator {
	return &primaryMutator{
		t:   t,
		sep: sep,
		rng: rand.New(rand.NewSource(seed)),
		models: []qstruct.Model{
			modelFor(t, "SELECT a FROM t WHERE b = 1"),
			modelFor(t, "SELECT name, price FROM products WHERE cat = 'x' AND stock > 2"),
			modelFor(t, "INSERT INTO logs (msg, level) VALUES ('hello', 3)"),
			modelFor(t, "UPDATE users SET pass = 'x' WHERE name = 'ann'"),
		},
	}
}

func (m *primaryMutator) domains() []string {
	return append([]string{core.DefaultDomain}, testDomains...)
}

// step performs one random mutation; every acked put/delete/approve is
// reflected in live so the caller knows the expected end state count.
func (m *primaryMutator) step() {
	dom := m.domains()[m.rng.Intn(3)]
	d, ok := m.sep.Domain(dom)
	if !ok {
		m.t.Fatalf("domain %q missing", dom)
	}
	switch r := m.rng.Intn(10); {
	case r < 5: // put a fresh id
		id := fmt.Sprintf("q%06d", m.nextID)
		m.nextID++
		if d.Store().Put(id, m.models[m.rng.Intn(len(m.models))], m.rng.Intn(2) == 0) {
			m.live = append(m.live, dom+"/"+id)
		}
	case r < 6 && len(m.live) > 0: // second model variant for a live id
		key := m.live[m.rng.Intn(len(m.live))]
		kd, id := splitKey(key)
		dd, _ := m.sep.Domain(kd)
		dd.Store().Put(id, m.models[m.rng.Intn(len(m.models))], false)
	case r < 7 && len(m.live) > 0: // delete a live id
		i := m.rng.Intn(len(m.live))
		kd, id := splitKey(m.live[i])
		dd, _ := m.sep.Domain(kd)
		dd.Store().Delete(id)
		m.live = append(m.live[:i], m.live[i+1:]...)
	case r < 8 && len(m.live) > 0: // approve a live id
		key := m.live[m.rng.Intn(len(m.live))]
		kd, id := splitKey(key)
		dd, _ := m.sep.Domain(kd)
		dd.Store().Approve(id)
	default: // config change
		modes := []core.Mode{core.ModeTraining, core.ModeDetection, core.ModePrevention}
		d.SetConfig(core.Config{
			Mode:       modes[m.rng.Intn(3)],
			DetectSQLI: true, DetectStored: m.rng.Intn(2) == 0,
			IncrementalLearning: true,
		})
	}
}

func splitKey(key string) (dom, id string) {
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			return key[:i], key[i+1:]
		}
	}
	return core.DefaultDomain, key
}

// TestReplConvergence is the deterministic conformance suite: seeded
// randomized train/approve/delete/config sequences across three
// domains, replicated live, with byte-identical store dumps required at
// quiescence. The checkpointed variants force the primary to trim its
// WAL mid-run, so the replica exercises the snapshot path too.
func TestReplConvergence(t *testing.T) {
	cases := []struct {
		name        string
		seed        int64
		ops         int
		connectLate bool // mutate first, connect after (catch-up path)
		checkpoint  bool // trim the primary mid-run (snapshot path)
	}{
		{name: "live_tail", seed: 1, ops: 120},
		{name: "live_tail_alt_seed", seed: 0xBEEF, ops: 200},
		{name: "catch_up", seed: 2, ops: 150, connectLate: true},
		{name: "catch_up_snapshot", seed: 3, ops: 150, connectLate: true, checkpoint: true},
		{name: "live_with_checkpoints", seed: 4, ops: 200, checkpoint: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snapshotGoroutines(t)
			sep, persist := newPrimary(t, t.TempDir())
			addr, _ := servePrimary(t, persist, PrimaryOptions{})
			rsep, rs := newReplicaSeptic(t, "")

			mut := newPrimaryMutator(t, sep, tc.seed)
			if !tc.connectLate {
				startReplica(t, addr, rs)
			}
			for i := 0; i < tc.ops; i++ {
				mut.step()
				if tc.checkpoint && i == tc.ops/2 {
					if err := persist.Checkpoint(); err != nil {
						t.Fatalf("checkpoint: %v", err)
					}
				}
			}
			if tc.connectLate {
				startReplica(t, addr, rs)
			}

			waitApplied(t, rs, persist.ReplLastSeq())
			assertStoresIdentical(t, sep, rsep)
			st := rs.Stats()
			if st.LagSeq != 0 {
				t.Fatalf("lag %d at quiescence, want 0", st.LagSeq)
			}
			if tc.name == "catch_up_snapshot" && st.Snapshots == 0 {
				t.Fatal("trimmed catch-up never took the snapshot path")
			}
			if st.Skipped != 0 {
				t.Fatalf("%d records skipped on a domain-matched replica", st.Skipped)
			}
		})
	}
}

// TestReplConvergenceContinuous interleaves mutations WITH the live
// stream (no quiesce between ops) and layers a second replica on the
// same primary: both must converge to the identical dump.
func TestReplConvergenceContinuous(t *testing.T) {
	snapshotGoroutines(t)
	sep, persist := newPrimary(t, t.TempDir())
	addr, primary := servePrimary(t, persist, PrimaryOptions{})

	rsep1, rs1 := newReplicaSeptic(t, "")
	rsep2, rs2 := newReplicaSeptic(t, "")
	startReplica(t, addr, rs1)
	startReplica(t, addr, rs2)

	mut := newPrimaryMutator(t, sep, 77)
	for i := 0; i < 400; i++ {
		mut.step()
	}
	head := persist.ReplLastSeq()
	waitApplied(t, rs1, head)
	waitApplied(t, rs2, head)
	assertStoresIdentical(t, sep, rsep1)
	assertStoresIdentical(t, sep, rsep2)
	if got := primary.Stats().Sessions; got < 2 {
		t.Fatalf("primary served %d sessions, want >= 2", got)
	}
}

// TestReplResumeMidSegment is the duplicate-seq regression (a replica
// may see a record twice across a resume boundary): a persistent
// replica applies part of the stream, "restarts" (fresh Septic over the
// same directory), resumes mid-segment and must converge without
// re-requesting the snapshot and without double-applying anything.
func TestReplResumeMidSegment(t *testing.T) {
	snapshotGoroutines(t)
	sep, persist := newPrimary(t, t.TempDir())
	addr, _ := servePrimary(t, persist, PrimaryOptions{})

	rdir := t.TempDir()
	_, rs, rpersist := newReplicaSepticPersist(t, rdir)
	r := NewReplica(addr, rs, fastReplicaOptions())
	r.Start()

	mut := newPrimaryMutator(t, sep, 9)
	for i := 0; i < 80; i++ {
		mut.step()
	}
	waitApplied(t, rs, persist.ReplLastSeq())
	r.Close()
	applied := rs.AppliedSeq()
	if applied == 0 {
		t.Fatal("nothing applied before the restart")
	}
	// The first incarnation "dies": descriptors reaped, nothing flushed.
	rpersist.Kill()

	// More primary writes while the replica is down.
	for i := 0; i < 60; i++ {
		mut.step()
	}

	// Restart: a fresh Septic over the same local WAL must resume at the
	// persisted position — not at zero, not from a snapshot.
	rsep2, rs2 := newReplicaSeptic(t, rdir)
	if got := rs2.AppliedSeq(); got == 0 || got > applied {
		t.Fatalf("restart resumes at %d, want in (0, %d]", got, applied)
	}
	startReplica(t, addr, rs2)
	waitApplied(t, rs2, persist.ReplLastSeq())
	assertStoresIdentical(t, sep, rsep2)
	st := rs2.Stats()
	if st.Snapshots != 0 {
		t.Fatalf("mid-segment resume took %d snapshot(s); the primary still has the tail", st.Snapshots)
	}
	if st.LagSeq != 0 {
		t.Fatalf("lag %d after resume, want 0", st.LagSeq)
	}
}

// TestReplDuplicateRecordIdempotent hits the apply path directly: the
// same sequence delivered twice (and an older one delivered late) must
// be absorbed by the duplicate check, not double-applied.
func TestReplDuplicateRecordIdempotent(t *testing.T) {
	sep, persist := newPrimary(t, t.TempDir())
	d, _ := sep.Domain("shop")
	d.Store().Put("dup1", modelFor(t, "SELECT a FROM t WHERE b = 1"), false)
	d.Store().Put("dup2", modelFor(t, "SELECT c FROM u WHERE d = 2"), false)
	recs, err := persist.ReplReadFrom(0, 0)
	if err != nil || len(recs) != 2 {
		t.Fatalf("ReplReadFrom: %d records, err %v", len(recs), err)
	}

	rsep, rs := newReplicaSeptic(t, "")
	for _, rec := range recs {
		if err := rs.ApplyRecord(rec.Seq, rec.Data); err != nil {
			t.Fatalf("apply %d: %v", rec.Seq, err)
		}
	}
	before := dumpJSON(t, mustDomain(t, rsep, "shop").Store())

	// Redeliver both, newest first — the resume-overlap shape.
	for i := len(recs) - 1; i >= 0; i-- {
		if err := rs.ApplyRecord(recs[i].Seq, recs[i].Data); err != nil {
			t.Fatalf("reapply %d: %v", recs[i].Seq, err)
		}
	}
	if got := rs.Stats().DuplicateSeqs; got != 2 {
		t.Fatalf("DuplicateSeqs = %d, want 2", got)
	}
	if after := dumpJSON(t, mustDomain(t, rsep, "shop").Store()); after != before {
		t.Fatalf("duplicate delivery changed the store:\nbefore: %s\nafter:  %s", before, after)
	}
}

func mustDomain(t *testing.T, s *core.Septic, name string) *core.Domain {
	t.Helper()
	d, ok := s.Domain(name)
	if !ok {
		t.Fatalf("domain %q missing", name)
	}
	return d
}

// TestReplicaRejectsLocalWrites: a replica's stores refuse local
// mutations and the query hook refuses training writes with the typed
// ErrReadOnly — training must go to the primary.
func TestReplicaRejectsLocalWrites(t *testing.T) {
	rsep, rs := newReplicaSeptic(t, "")
	d := mustDomain(t, rsep, "shop")
	if d.Store().Put("x", modelFor(t, "SELECT a FROM t WHERE b = 1"), false) {
		t.Fatal("replica store accepted a local Put")
	}
	if d.Store().Approve("x") {
		t.Fatal("replica store accepted a local Approve")
	}
	if !d.Store().ReadOnly() {
		t.Fatal("replica store not read-only")
	}

	// A late-registered domain is read-only too.
	late, err := rsep.RegisterDomain("late", core.Config{Mode: core.ModeDetection})
	if err != nil {
		t.Fatal(err)
	}
	if !late.Store().ReadOnly() {
		t.Fatal("domain registered after attach is writable")
	}

	// The hook path: training mode on a replica returns the typed error.
	rsep.SetConfig(core.Config{Mode: core.ModeTraining})
	hctx := hookCtx(t, "SELECT a FROM t WHERE b = 1")
	if err := rsep.BeforeExecute(hctx); !isReadOnly(err) {
		t.Fatalf("training on a replica: %v, want ErrReadOnly", err)
	}
	_ = rs
}

// TestReplicaPromote: the failover hook lifts the read-only gates, the
// stream is refused from then on, and the hook is idempotent.
func TestReplicaPromote(t *testing.T) {
	sep, persist := newPrimary(t, t.TempDir())
	d, _ := sep.Domain("shop")
	d.Store().Put("p1", modelFor(t, "SELECT a FROM t WHERE b = 1"), false)
	recs, _ := persist.ReplReadFrom(0, 0)

	rsep, rs := newReplicaSeptic(t, "")
	if err := rs.ApplyRecord(recs[0].Seq, recs[0].Data); err != nil {
		t.Fatal(err)
	}

	rs.Promote()
	rs.Promote() // idempotent
	if !rs.Promoted() || rsep.IsReplica() {
		t.Fatal("promotion did not clear replica mode")
	}
	rd := mustDomain(t, rsep, "shop")
	if rd.Store().ReadOnly() {
		t.Fatal("store still read-only after promotion")
	}
	if !rd.Store().Put("local", modelFor(t, "SELECT c FROM u WHERE d = 2"), false) {
		t.Fatal("promoted node refused a local write")
	}
	// Straggling stream records are refused: the former primary can no
	// longer overwrite the promoted node.
	if err := rs.ApplyRecord(recs[0].Seq+10, recs[0].Data); err == nil {
		t.Fatal("promoted replica accepted a stream record")
	}
	if rs.ConnState() != core.ReplPromoted {
		t.Fatalf("state %v after promote", rs.ConnState())
	}
}

func hookCtx(t *testing.T, q string) *engine.HookContext {
	t.Helper()
	stmt, err := sqlparser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return &engine.HookContext{Raw: q, Decoded: q, Stmt: stmt, Comments: stmt.StatementComments()}
}

func isReadOnly(err error) bool {
	return errors.Is(err, core.ErrReadOnly)
}
