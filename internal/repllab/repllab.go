package repllab

import (
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"github.com/septic-db/septic/internal/benchlab"
	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/repl"
	"github.com/septic-db/septic/internal/sqlparser"
	"github.com/septic-db/septic/internal/wal"
)

// The replication lane measures read-replica freshness: a primary keeps
// training (a continuous stream of WAL records) while a replica follows
// the stream over loopback TCP and serves the Address Book workload in
// detection mode the whole time. The reported numbers are the
// replication lag (newest primary sequence minus last applied sequence)
// sampled over the run, and the time from the primary quiescing to the
// replica converging to lag 0.

// ReplSample is one lag observation.
type ReplSample struct {
	Elapsed    time.Duration
	PrimarySeq uint64
	AppliedSeq uint64
	Lag        uint64
}

// ReplResult is one replication-lane run.
type ReplResult struct {
	// Updates is how many training updates the primary produced during
	// the measured window; TrainDuration how long producing them took.
	Updates       int
	TrainDuration time.Duration
	// CatchUp is the time from the last primary update to the replica
	// reaching lag 0; Converged reports it happened within the deadline.
	CatchUp   time.Duration
	Converged bool
	// Samples are the lag observations over the run.
	Samples []ReplSample
	// Replica-side serving counters: Address Book workload requests
	// answered (in detection mode, from the streamed models) while the
	// stream was applying.
	ReplicaRequests int64
	ReplicaErrors   int64
	// Apply-path counters at the end of the run.
	AppliedRecords int64
	Snapshots      int64
	SnapshotBytes  int64
	// Model counts on both sides after convergence — equal when the
	// stream delivered everything.
	PrimaryModels int
	ReplicaModels int
}

// RunRepl runs the replication lane: `updates` distinct training
// updates on the primary while the replica replays the Address Book
// workload `loops` times. dir hosts the primary's WAL.
func RunRepl(dir string, updates, loops int) (*ReplResult, error) {
	spec := benchlab.PaperSpecs()[0] // Address Book

	// Primary: training mode over a WAL — the replication source.
	guard := core.New(core.Config{Mode: core.ModeTraining})
	persist, err := guard.AttachPersistence(core.PersistenceOptions{
		Dir: dir + "/primary", Fsync: wal.FsyncNever,
	})
	if err != nil {
		return nil, err
	}
	defer persist.Close()
	db := engine.New(engine.WithQueryHook(guard))
	for _, q := range spec.Schema {
		if _, err := db.Exec(q); err != nil {
			return nil, fmt.Errorf("schema: %w", err)
		}
	}
	app := spec.Build(db)
	for _, req := range spec.Training {
		if resp := app.Serve(req.Clone()); resp.Status != 200 {
			return nil, fmt.Errorf("training %s: %v", req, resp.Err)
		}
	}

	primary := repl.NewPrimary(persist, repl.PrimaryOptions{
		HeartbeatInterval: 20 * time.Millisecond,
	})
	defer primary.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	go func() { _ = primary.Serve(ln) }()

	// Replica: detection mode, fed by the stream, serving the workload.
	rguard := core.New(core.Config{
		Mode: core.ModeDetection, DetectSQLI: true, DetectStored: true,
		IncrementalLearning: true,
	})
	rs, err := rguard.AttachReplicaSource()
	if err != nil {
		return nil, err
	}
	rdb := engine.New(engine.WithQueryHook(rguard))
	for _, q := range spec.Schema {
		if _, err := rdb.Exec(q); err != nil {
			return nil, fmt.Errorf("replica schema: %w", err)
		}
	}
	rapp := spec.Build(rdb)
	// Populate the replica's application data (its database is its own;
	// only the MODELS replicate). SEPTIC learns nothing here — the
	// stores are read-only.
	for _, req := range spec.Training {
		rapp.Serve(req.Clone())
	}
	replica := repl.NewReplica(ln.Addr().String(), rs, repl.ReplicaOptions{
		ReadTimeout: 2 * time.Second, BackoffBase: 5 * time.Millisecond,
	})
	replica.Start()
	defer replica.Close()

	// Pre-parse the training updates outside the measured window.
	ctxs := make([]*engine.HookContext, updates)
	for i := range ctxs {
		q := fmt.Sprintf("/* r%06d */ SELECT a FROM t WHERE b = %d", i, i)
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			return nil, err
		}
		ctxs[i] = &engine.HookContext{
			Raw: q, Decoded: q, Stmt: stmt, Comments: stmt.StatementComments(),
		}
	}

	res := &ReplResult{Updates: updates}

	// Replica-side serving loop: detection reads against the streamed
	// models while the stream applies.
	var served, serveErrs atomic.Int64
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		for l := 0; l < loops; l++ {
			for _, req := range spec.Workload {
				resp := rapp.Serve(req.Clone())
				served.Add(1)
				if resp.Status != 200 {
					serveErrs.Add(1)
				}
			}
		}
	}()

	// Lag sampler.
	samplerStop := make(chan struct{})
	samplerDone := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(samplerDone)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-samplerStop:
				return
			case <-t.C:
				st := rs.Stats()
				head := persist.ReplLastSeq()
				var lag uint64
				if head > st.AppliedSeq {
					lag = head - st.AppliedSeq
				}
				res.Samples = append(res.Samples, ReplSample{
					Elapsed:    time.Since(start),
					PrimarySeq: head,
					AppliedSeq: st.AppliedSeq,
					Lag:        lag,
				})
			}
		}
	}()

	// The measured window: the primary trains continuously.
	for _, hctx := range ctxs {
		if err := guard.BeforeExecute(hctx); err != nil {
			return nil, fmt.Errorf("train: %w", err)
		}
	}
	res.TrainDuration = time.Since(start)

	// Quiesce: wait for the replica to drain the stream.
	quiesce := time.Now()
	head := persist.ReplLastSeq()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if rs.AppliedSeq() >= head {
			res.Converged = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	res.CatchUp = time.Since(quiesce)
	close(samplerStop)
	<-samplerDone
	<-serveDone

	st := rs.Stats()
	res.AppliedRecords = st.AppliedRecords
	res.Snapshots = st.Snapshots
	res.SnapshotBytes = st.SnapshotBytes
	res.ReplicaRequests = served.Load()
	res.ReplicaErrors = serveErrs.Load()
	res.PrimaryModels = guard.Store().ModelCount()
	res.ReplicaModels = rguard.Store().ModelCount()
	return res, nil
}

// FormatRepl renders the lag table and summary for EXPERIMENTS.md.
func FormatRepl(r *ReplResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %12s %12s %8s\n", "t", "primary seq", "applied seq", "lag")
	// Thin the samples to ~12 rows so the table stays readable.
	step := len(r.Samples)/12 + 1
	for i := 0; i < len(r.Samples); i += step {
		s := r.Samples[i]
		fmt.Fprintf(&b, "%10s %12d %12d %8d\n",
			s.Elapsed.Round(time.Millisecond), s.PrimarySeq, s.AppliedSeq, s.Lag)
	}
	if n := len(r.Samples); n > 0 && (n-1)%step != 0 {
		s := r.Samples[n-1]
		fmt.Fprintf(&b, "%10s %12d %12d %8d\n",
			s.Elapsed.Round(time.Millisecond), s.PrimarySeq, s.AppliedSeq, s.Lag)
	}
	fmt.Fprintf(&b, "\n%d training updates in %v; catch-up to lag 0 in %v (converged=%t)\n",
		r.Updates, r.TrainDuration.Round(time.Millisecond),
		r.CatchUp.Round(time.Millisecond), r.Converged)
	fmt.Fprintf(&b, "replica served %d Address Book requests (%d errors) while applying %d record(s), %d snapshot(s) (%d bytes)\n",
		r.ReplicaRequests, r.ReplicaErrors, r.AppliedRecords, r.Snapshots, r.SnapshotBytes)
	fmt.Fprintf(&b, "models: primary %d, replica %d\n", r.PrimaryModels, r.ReplicaModels)
	return b.String()
}
