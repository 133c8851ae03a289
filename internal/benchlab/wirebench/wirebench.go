// Package wirebench measures the wire protocol the way benchlab
// measures the engine: it deploys one of the paper's applications,
// records the exact SQL trace the application issues while serving its
// benign workload once, then replays that trace over a real loopback
// wire session — synchronously over v1 JSON frames, or pipelined over
// v2 binary frames with a bounded in-flight window — and reports
// queries per second.
//
// The package exists so the sync-versus-pipelined comparison runs the
// *same* benign replay mix as the latency study (same app, same SEPTIC
// configuration, same statements in the same order) instead of a
// synthetic query loop: the only variable between the measured series
// is the protocol.
//
// It lives in a subpackage because benchlab itself cannot import
// internal/wire — the wire package's chaos tests deploy benchlab apps,
// so the reverse import would be a cycle.
package wirebench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/septic-db/septic/internal/benchlab"
	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/wire"
)

// Query is one recorded SQL statement with its bound arguments.
type Query struct {
	SQL  string
	Args []engine.Value
}

// recorder wraps the engine as the application's executor and, while
// armed, captures every statement the application issues.
type recorder struct {
	db        *engine.DB
	recording bool
	trace     []Query
}

func (r *recorder) Exec(q string) (*engine.Result, error) {
	if r.recording {
		r.trace = append(r.trace, Query{SQL: q})
	}
	return r.db.Exec(q)
}

func (r *recorder) ExecArgs(q string, args ...engine.Value) (*engine.Result, error) {
	if r.recording {
		r.trace = append(r.trace, Query{SQL: q, Args: append([]engine.Value(nil), args...)})
	}
	return r.db.ExecArgs(q, args...)
}

// Params sets the replay shape.
type Params struct {
	// Clients is the number of concurrent wire connections (default 1).
	Clients int
	// Depth is the pipeline window per client. Depth ≤ 1 replays
	// synchronously over the legacy v1 JSON protocol — the baseline the
	// pipelined series is compared against. Depth > 1 negotiates v2 and
	// keeps up to Depth requests in flight per connection.
	Depth int
	// Loops is how many times each client replays the recorded trace.
	Loops int
	// Workers is the server's per-connection worker pool (0 = default).
	Workers int
	// MaxInFlight is the server's per-connection admission bound
	// (0 = default).
	MaxInFlight int
}

// Result is one measured replay series.
type Result struct {
	Config   benchlab.SepticConfig
	Depth    int
	Clients  int
	Protocol int // negotiated protocol version (1 or 2)
	TraceLen int // statements per replay loop
	Queries  int64
	Errors   int64
	Elapsed  time.Duration
}

// PerSecond returns replay throughput in queries per second.
func (r *Result) PerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Queries) / r.Elapsed.Seconds()
}

// Bench is one deployed wire-replay fixture: application schema applied,
// SEPTIC trained and switched to the measured configuration, the benign
// workload trace recorded, a wire server listening on loopback and the
// replay clients dialed and negotiated. Replay can then be invoked
// repeatedly (benchmarks call it once per timed iteration).
type Bench struct {
	cfg     benchlab.SepticConfig
	depth   int
	trace   []Query
	srv     *wire.Server
	clients []*wire.Client
}

// New deploys the fixture. Close releases it.
func New(spec benchlab.AppSpec, cfg benchlab.SepticConfig, p Params) (*Bench, error) {
	if p.Clients < 1 {
		p.Clients = 1
	}
	if p.Depth < 1 {
		p.Depth = 1
	}

	// Deployment mirrors benchlab's: raw engine for the baseline,
	// training-mode guard hooked into the engine otherwise.
	var guard *core.Septic
	var engineOpts []engine.Option
	if cfg != benchlab.ConfigBaseline {
		guard = core.New(core.Config{Mode: core.ModeTraining})
		engineOpts = append(engineOpts, engine.WithQueryHook(guard))
	}
	db := engine.New(engineOpts...)
	for _, q := range spec.Schema {
		if _, err := db.Exec(q); err != nil {
			return nil, fmt.Errorf("schema: %w", err)
		}
	}
	rec := &recorder{db: db}
	app := spec.Build(rec)
	for _, req := range spec.Training {
		if resp := app.Serve(req.Clone()); resp.Status != 200 {
			return nil, fmt.Errorf("training %s: %v", req, resp.Err)
		}
	}
	if guard != nil {
		guard.SetConfig(cfg.CoreConfig())
	}

	// One workload pass through the application records the benign SQL
	// trace — the exact statements, in order, with bound arguments —
	// that the replay loops push over the wire.
	rec.recording = true
	for _, req := range spec.Workload {
		if resp := app.Serve(req.Clone()); resp.Status >= 500 {
			return nil, fmt.Errorf("workload %s: %v", req, resp.Err)
		}
	}
	rec.recording = false
	if len(rec.trace) == 0 {
		return nil, fmt.Errorf("workload of %s recorded no statements", spec.Name)
	}

	// septicd's flag defaults: the deadlines and the query timeout sit on
	// the request path, so a replay against a bare NewServer(db) measures
	// a server nobody ships. Workers and MaxInFlight of 0 are the
	// server's defaults.
	srv := wire.NewServer(db,
		wire.WithMaxConns(256),
		wire.WithQueryTimeout(30*time.Second),
		wire.WithIdleTimeout(5*time.Minute),
		wire.WithPipelineWorkers(p.Workers),
		wire.WithMaxInFlight(p.MaxInFlight),
	)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}

	b := &Bench{cfg: cfg, depth: p.Depth, trace: rec.trace, srv: srv}
	var dialOpts []wire.ClientOption
	if p.Depth > 1 {
		dialOpts = append(dialOpts, wire.WithPipeline(p.Depth))
	}
	for i := 0; i < p.Clients; i++ {
		c, err := wire.Dial(addr, dialOpts...)
		if err != nil {
			b.Close()
			return nil, fmt.Errorf("dial client %d: %w", i, err)
		}
		b.clients = append(b.clients, c)
	}
	return b, nil
}

// TraceLen returns the number of statements in one replay loop.
func (b *Bench) TraceLen() int { return len(b.trace) }

// Protocol returns the negotiated protocol version of the fixture's
// clients.
func (b *Bench) Protocol() int { return b.clients[0].ProtocolVersion() }

// Close shuts the clients and the server down.
func (b *Bench) Close() error {
	for _, c := range b.clients {
		_ = c.Close()
	}
	return b.srv.Close()
}

// Replay replays the recorded trace loops times on every client
// concurrently and returns the timed result. Statement errors are
// counted, not fatal — the trace is benign, so a non-zero count means
// the deployment is misbehaving and callers should fail on it.
func (b *Bench) Replay(loops int) *Result {
	if loops < 1 {
		loops = 1
	}
	var errs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range b.clients {
		wg.Add(1)
		go func(c *wire.Client) {
			defer wg.Done()
			if b.depth > 1 {
				errs.Add(b.replayPipelined(c, loops))
			} else {
				errs.Add(b.replaySync(c, loops))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return &Result{
		Config:   b.cfg,
		Depth:    b.depth,
		Clients:  len(b.clients),
		Protocol: b.Protocol(),
		TraceLen: len(b.trace),
		Queries:  int64(loops) * int64(len(b.trace)) * int64(len(b.clients)),
		Errors:   errs.Load(),
		Elapsed:  elapsed,
	}
}

// replaySync issues one statement at a time, waiting for each result —
// the v1 request/response baseline.
func (b *Bench) replaySync(c *wire.Client, loops int) (errs int64) {
	for l := 0; l < loops; l++ {
		for _, q := range b.trace {
			if _, err := c.ExecArgs(q.SQL, q.Args...); err != nil {
				errs++
			}
		}
	}
	return errs
}

// replayPipelined keeps up to depth statements in flight through a ring
// of futures: slot i is waited on just before it is reused, so the
// window stays full without unbounded future accumulation.
func (b *Bench) replayPipelined(c *wire.Client, loops int) (errs int64) {
	ring := make([]*wire.Future, b.depth)
	n := 0
	for l := 0; l < loops; l++ {
		for _, q := range b.trace {
			slot := n % b.depth
			if ring[slot] != nil {
				if _, err := ring[slot].Wait(); err != nil {
					errs++
				}
			}
			ring[slot] = c.Submit(q.SQL, q.Args...)
			n++
		}
	}
	for _, f := range ring {
		if f != nil {
			if _, err := f.Wait(); err != nil {
				errs++
			}
		}
	}
	return errs
}

// Run is the one-shot form: deploy, replay p.Loops times, close.
func Run(spec benchlab.AppSpec, cfg benchlab.SepticConfig, p Params) (*Result, error) {
	b, err := New(spec, cfg, p)
	if err != nil {
		return nil, err
	}
	defer b.Close()
	return b.Replay(p.Loops), nil
}
