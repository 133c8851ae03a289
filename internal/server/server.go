package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"

	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/obs"
	"github.com/septic-db/septic/internal/overload"
	"github.com/septic-db/septic/internal/repl"
	"github.com/septic-db/septic/internal/wire"
)

// Stack is one running deployment.
type Stack struct {
	DB    *engine.DB
	Guard *core.Septic // its Persistence() and ReplicaState() are nil when off
	Wire  *wire.Server

	// Bound addresses; ObsAddr is empty when observability is off.
	Addr, ObsAddr string

	// What Start found: on a replica, the sequence the stream resumes
	// after.
	ResumeSeq uint64

	// What Shutdown did: whether the drain deadline passed and sessions
	// were force-closed, and why the replication stream ended (nil after
	// a clean close).
	DrainTimedOut bool
	ReplicaErr    error

	cfg     Config
	audit   *os.File
	adm     *overload.Admission
	primary *repl.Primary
	replica *repl.Replica // set once started
	obsSrv  *http.Server
	obsDone sync.WaitGroup // the obs accept loop
}

// Start boots the deployment cfg describes, or nothing: on any error
// everything already opened is released again.
func Start(cfg Config) (*Stack, error) { return start(cfg, net.Listen) }

// start is Start with the listener constructor a parameter, so a test
// can hand the stack a listener that fails.
func start(cfg Config, listen func(network, addr string) (net.Listener, error)) (_ *Stack, err error) {
	mode, policy, err := cfg.parse()
	if err != nil {
		return nil, err
	}
	st := &Stack{cfg: cfg}
	defer func() {
		if err != nil {
			_ = st.release()
		}
	}()

	var logOpts []core.LoggerOption
	if !cfg.Quiet {
		logOpts = append(logOpts, core.WithStream(os.Stdout))
	}
	if cfg.Audit != "" {
		st.audit, err = os.OpenFile(cfg.Audit, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("open audit log: %w", err)
		}
		logOpts = append(logOpts, core.WithJSONStream(st.audit))
	}
	var hub *obs.Hub // nil = observability off, at zero cost
	if cfg.ObsAddr != "" {
		hub = obs.NewHub()
	}
	if cfg.ShedTarget > 0 {
		capacity := cfg.MaxConcurrent
		if capacity <= 0 {
			capacity = 4 * runtime.GOMAXPROCS(0)
		}
		st.adm = overload.NewAdmission(overload.AdmissionOptions{Target: cfg.ShedTarget, Capacity: capacity})
	}

	guard := core.New(core.Config{
		Mode:                mode,
		DetectSQLI:          cfg.SQLI,
		DetectStored:        cfg.Stored,
		IncrementalLearning: true,
		FailOpen:            cfg.FailOpen,
	}, core.WithLogger(core.NewLogger(logOpts...)), core.WithObserver(hub))
	st.Guard = guard

	// Domains first: persistence replays into their partitions.
	for _, name := range cfg.domainNames() {
		spec := cfg.Domains[name]
		dmode, _ := parseMode(spec.Mode) // cfg.parse vetted it
		d, err := guard.RegisterDomain(name, core.Config{
			Mode:                dmode,
			DetectSQLI:          orTrue(spec.SQLI),
			DetectStored:        orTrue(spec.Stored),
			IncrementalLearning: orTrue(spec.Incremental),
			FailOpen:            spec.FailOpen,
		})
		if err != nil {
			return nil, err
		}
		if ctl := spec.overloadControls(); ctl != nil {
			d.SetOverload(ctl)
		}
	}

	// Persistence before any listener: no query may mutate a store that
	// has no sink. With a WAL the server is also a replication primary:
	// a replica attaches through the main port's HELLO.
	var replHandler func(net.Conn)
	if cfg.WALDir != "" {
		persist, err := guard.AttachPersistence(core.PersistenceOptions{
			Dir:                cfg.WALDir,
			Fsync:              policy,
			CheckpointInterval: cfg.CheckpointInterval,
			ForceRecover:       cfg.WALForceRecover,
		})
		if err != nil {
			return nil, err
		}
		st.primary = repl.NewPrimary(persist, repl.PrimaryOptions{})
		replHandler = st.primary.HandleConn
	}

	// Seeds after recovery, which decides whether they are read at all.
	if err := st.seed(); err != nil {
		return nil, err
	}

	// The replica source after persistence (the resume position comes
	// from the local WAL) and before any listener (a replica must never
	// accept a training write).
	var replica *repl.Replica
	if cfg.ReplicateFrom != "" {
		rs, err := guard.AttachReplicaSource()
		if err != nil {
			return nil, err
		}
		st.ResumeSeq = rs.AppliedSeq()
		replica = repl.NewReplica(cfg.ReplicateFrom, rs, repl.ReplicaOptions{})
	}

	// A session is bound to, and charged against, the domain its HELLO
	// names; an application the registry does not know lands on the
	// default domain, like its queries.
	domainOf := func(app string) *core.Domain {
		if d, ok := guard.Domain(app); ok {
			return d
		}
		return guard.DefaultDomain()
	}
	st.DB = engine.New(engine.WithObs(hub), engine.WithQueryHook(guard))
	st.Wire = wire.NewServer(st.DB,
		wire.WithMaxConns(cfg.MaxConns),
		wire.WithQueryTimeout(cfg.QueryTimeout),
		wire.WithIdleTimeout(cfg.IdleTimeout),
		wire.WithPipelineWorkers(cfg.PipelineWorkers),
		wire.WithMaxInFlight(cfg.MaxInFlight),
		wire.WithAdmission(st.adm),
		wire.WithServerObs(hub),
		wire.WithReplHandler(replHandler),
		wire.WithDomainResolver(func(app string) string { return domainOf(app).Name() }),
		wire.WithOverloadControls(func(app string) *overload.Controls { return domainOf(app).Overload() }),
	)
	ln, err := listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", cfg.Addr, err)
	}
	if err := st.Wire.Serve(ln); err != nil {
		_ = ln.Close()
		return nil, err
	}
	st.Addr = ln.Addr().String()

	if hub != nil {
		obsLn, err := listen("tcp", cfg.ObsAddr)
		if err != nil {
			return nil, fmt.Errorf("obs listen %s: %w", cfg.ObsAddr, err)
		}
		st.ObsAddr = obsLn.Addr().String()
		st.obsSrv = &http.Server{Handler: obs.Handler(hub, st.qmDump, st.events, obs.WithHealth(st.ready))}
		st.obsDone.Add(1)
		go func() {
			defer st.obsDone.Done()
			// Serve ends when release closes the server; any other end is
			// the operator's to see.
			if err := st.obsSrv.Serve(obsLn); !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "septicd: obs server: %v\n", err)
			}
		}()
	}
	// Last, because nothing after it can fail: a started replica is
	// stopped by Shutdown, not by the unwinding above.
	if replica != nil {
		replica.Start()
		st.replica = replica
	}
	return st, nil
}

// orTrue resolves an omitted boolean to true.
func orTrue(b *bool) bool { return b == nil || *b }

// seed reads Config.Models and each domains-file "store" into the domain
// it names, if recovery left that domain empty: the WAL directory is
// where models live, a seed file only starts it off and is never written.
// Store.Load goes around the WAL, so with one attached a single
// checkpoint makes what was read durable; a crash before it leaves the
// stores empty and the next boot reads the files again. A seed that
// cannot be read is a boot error: it was named, so it is expected.
func (st *Stack) seed() error {
	read := false
	for _, d := range st.Guard.Domains() {
		path := st.cfg.Domains[d.Name()].Store
		if d == st.Guard.DefaultDomain() {
			path = st.cfg.Models
		}
		if path == "" {
			continue
		}
		if n := d.Store().Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "septicd: domain %s: %s not read, the WAL directory already holds %d query models\n", d.Name(), path, n)
			continue
		}
		if err := d.Store().Load(path); err != nil {
			return fmt.Errorf("seed domain %s: %w", d.Name(), err)
		}
		read = true
	}
	if persist := st.Guard.Persistence(); read && persist != nil {
		if err := persist.Checkpoint(); err != nil {
			return fmt.Errorf("seed checkpoint: %w", err)
		}
	}
	return nil
}

// qmDump renders one domain's store for /qm.
func (st *Stack) qmDump(domain string) any {
	if domain == "" {
		domain = core.DefaultDomain
	}
	d, ok := st.Guard.Domain(domain)
	if !ok {
		return nil
	}
	return d.Store().Dump()
}

// events serves /events from the guard's register.
func (st *Stack) events(kind string, n int) any {
	return st.Guard.Logger().Recent(kind, n)
}

// ready is /healthz: 503 while the server drains or the admission
// controller is persistently shedding, steering load balancers away
// before clients see shed responses. A nil controller never sheds.
func (st *Stack) ready() (bool, map[string]any) {
	draining, shedding := st.Wire.Draining(), st.adm.Shedding()
	return !draining && !shedding, map[string]any{
		"draining":    draining,
		"shedding":    shedding,
		"queue_depth": st.adm.Depth(),
		"sheds":       st.Wire.Sheds(),
	}
}

// Shutdown stops the deployment: the replication streams end, sessions
// drain for at most Config.DrainTimeout (then are force-closed), the WAL
// is compacted by a final checkpoint so the next boot replays an empty
// tail, and everything closes. Without a WAL nothing is written: what was
// learned goes with the process. Every step runs whatever the earlier
// ones returned; the result joins what failed. A passed drain deadline is
// reported in DrainTimedOut, not as an error.
func (st *Stack) Shutdown(ctx context.Context) error {
	var errs []error
	if st.replica != nil {
		st.replica.Close()
		st.ReplicaErr = st.replica.Err()
	}
	if st.primary != nil {
		st.primary.Close()
	}
	ctx, cancel := context.WithTimeout(ctx, st.cfg.DrainTimeout)
	defer cancel()
	if err := st.Wire.Shutdown(ctx); errors.Is(err, context.DeadlineExceeded) {
		st.DrainTimedOut = true
	} else if err != nil {
		errs = append(errs, fmt.Errorf("drain: %w", err))
	}

	if persist := st.Guard.Persistence(); persist != nil {
		if err := persist.Checkpoint(); err != nil {
			errs = append(errs, fmt.Errorf("shutdown checkpoint: %w", err))
		}
	}
	return errors.Join(append(errs, st.release())...)
}

// release closes what Start opened, newest first; fields a failed boot
// never reached are nil and skipped. After Shutdown's drain the wire and
// primary closes are no-ops.
func (st *Stack) release() error {
	var errs []error
	if st.obsSrv != nil {
		errs = append(errs, st.obsSrv.Close())
	}
	st.obsDone.Wait()
	if st.Wire != nil {
		errs = append(errs, st.Wire.Close())
	}
	if st.primary != nil {
		st.primary.Close()
	}
	if st.Guard != nil && st.Guard.Persistence() != nil {
		if err := st.Guard.Persistence().Close(); err != nil {
			errs = append(errs, fmt.Errorf("wal close: %w", err))
		}
	}
	if st.audit != nil {
		errs = append(errs, st.audit.Close())
	}
	return errors.Join(errs...)
}
