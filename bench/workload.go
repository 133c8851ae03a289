package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"github.com/septic-db/septic/internal/attacks"
	"github.com/septic-db/septic/internal/benchlab"
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/webapp"
	"github.com/septic-db/septic/internal/webapp/apps"
)

// outcome is what a statement did: the number of rows it returned or
// wrote, or one of the two negative values.
type outcome int32

const (
	blocked outcome = -1 // dropped by the guard
	failed  outcome = -2 // any other error
)

func outcomeOf(res *engine.Result, err error) outcome {
	switch {
	case err == nil:
		return outcome(int64(len(res.Rows)) + res.Affected)
	case errors.Is(err, engine.ErrQueryBlocked): // wire.ErrServerBlocked wraps it
		return blocked
	default:
		return failed
	}
}

// op is one generated statement with the outcome the reference
// deployment produced for it.
type op struct {
	sql  string
	args []engine.Value
	want outcome
}

// source feeds one client: a recorded trace replayed in a cycle, or
// (train_wal) statements generated as they are sent.
type source struct {
	ops []op
	pos int

	gen    func(n int) op // non-nil: the n-th statement of this client
	issued int
	cur    op
}

func (s *source) next() *op {
	if s.gen != nil {
		s.cur = s.gen(s.issued)
		s.issued++
		return &s.cur
	}
	o := &s.ops[s.pos]
	if s.pos++; s.pos == len(s.ops) {
		s.pos = 0
	}
	return o
}

// cycle is the number of statements after which the source repeats, 0
// for a generated stream.
func (s *source) cycle() int { return len(s.ops) }

// atCycleStart reports whether the next statement starts a cycle.
func (s *source) atCycleStart() bool { return s.pos == 0 }

type transport int

// The values are the wire protocol versions, see protocol.
const (
	embedded    transport = iota // in-process, db.ExecAppContext
	v1Sync                       // JSON frames, one request at a time
	v2Pipelined                  // binary frames, window of pipelineWindow
)

func (t transport) String() string {
	return [...]string{"embedded", "v1-json-sync", "v2-pipelined"}[t]
}

// protocol is the wire protocol version the transport speaks, 0 for none.
func (t transport) protocol() int { return int(t) }

const (
	numClients     = 2 // fixed, so numbers compare across hosts
	pipelineWindow = 16
)

// workload is one traffic mix. build records the statements on the
// reference deployment ref and returns one source per client; sut is
// the deployment that will be measured, for workloads that must bring
// it to a steady state first.
type workload struct {
	name, why string
	transport transport
	// cold marks workloads whose every statement misses the parse and
	// verdict caches, so the engine parses and the guard builds the
	// query structure inside each execution.
	cold bool
	// attacks marks workloads whose trace holds injection attempts; a run
	// in which none was blocked did not measure what it says.
	attacks bool
	// training keeps the guard in training mode with a write-ahead log
	// attached (fsync=always, checkpoint every 5 s).
	training bool
	// writes marks workloads whose trace changes tables; their clients
	// stop only at the end of a trace cycle, where every table is back
	// at its loaded size.
	writes bool
	build  func(rng *rand.Rand, ref, sut *stack, embedTrace int) ([]*source, error)
}

var workloads = []*workload{
	{
		name:      "wire_hit",
		why:       "cached point reads over v2 pipelined frames: internal/wire does most of the work, so wire changes show and parser/detector/WAL changes must not",
		transport: v2Pipelined,
		build:     buildWireHit,
	},
	{
		name:      "embed_miss",
		why:       "never-repeating point reads plus 2% attacks in-process: cold parse, QS build and detection dominate, so sqlparser/qstruct/core changes show and wire changes must not",
		transport: embedded,
		cold:      true,
		attacks:   true,
		build:     buildEmbedMiss,
	},
	{
		name:      "app_replay",
		why:       "BenchLab replay of all four apps (scans, sorts, aggregates, writes) over v1 JSON sync in four domains: engine and JSON codec dominate, as a page request waits for them",
		transport: v1Sync,
		writes:    true,
		build:     buildAppReplay,
	},
	{
		name:      "train_wal",
		why:       "training with fsync=always WAL, a fresh identifier per statement over v2 pipelined frames: one Store.Put and one fsynced append per op, so group commit shows here only",
		transport: v2Pipelined,
		cold:      true,
		training:  true,
		build:     buildTrainWAL,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// pointPages are the two primary-key pages wire_hit and embed_miss
// drive, with the identifier of the statement kept from each (the
// profile page's follow-up query over stored data is dropped).
var pointPages = []struct{ app, path, keep string }{
	{"ab", "/contact", "/* ab:view */"},
	{"waspmon", "/user/profile", "/* waspmon:profile */"},
}

// pointRecorder drives the point pages on the reference deployment.
type pointRecorder struct {
	rec  *recorder
	apps map[string]*webapp.App
}

func newPointRecorder(ref *stack) *pointRecorder {
	rec := &recorder{db: ref.db}
	return &pointRecorder{rec: rec, apps: map[string]*webapp.App{
		"ab":      apps.NewAddressBook(rec),
		"waspmon": apps.NewWaspMon(rec),
	}}
}

// point serves one point page for id and returns the kept statement.
func (p *pointRecorder) point(page int, id int) (op, error) {
	pg := pointPages[page]
	p.rec.ops = p.rec.ops[:0]
	resp := p.apps[pg.app].Serve(webapp.Request{Path: pg.path, Params: map[string]string{"id": strconv.Itoa(id)}})
	if resp.Status != 200 {
		return op{}, fmt.Errorf("%s?id=%d: status %d: %v", pg.path, id, resp.Status, resp.Err)
	}
	for _, o := range p.rec.ops {
		if strings.HasPrefix(o.sql, pg.keep) {
			if o.want < 0 {
				return op{}, fmt.Errorf("benign statement not served by the reference guard: %s", o.sql)
			}
			return o, nil
		}
	}
	return op{}, fmt.Errorf("%s issued no %s statement", pg.path, pg.keep)
}

// split gives every client the same cyclic trace at evenly spaced
// starting points.
func split(ops []op) []*source {
	out := make([]*source, numClients)
	for c := range out {
		out[c] = &source{ops: ops, pos: c * len(ops) / numClients}
	}
	return out
}

const wireHitPool, wireHitTrace = 64, 4096

func buildWireHit(rng *rand.Rand, ref, _ *stack, _ int) ([]*source, error) {
	p := newPointRecorder(ref)
	pool := rng.Perm(tableRows)[:wireHitPool]
	ops := make([]op, wireHitTrace)
	for i := range ops {
		o, err := p.point(rng.Intn(len(pointPages)), 1+pool[rng.Intn(len(pool))])
		if err != nil {
			return nil, err
		}
		ops[i] = o
	}
	return split(ops), nil
}

// embed_miss draws embedMissTrace statements without repetition from a
// 2^20 id space: with 4096-entry caches the reuse distance is 32 or more
// times their capacity, so the hit ratio is 0. (The smoke test passes a
// shorter trace to build.)
const (
	embedMissTrace   = 1 << 18
	embedMissIDSpace = 1 << 20
	attackShare      = 0.02
)

func buildEmbedMiss(rng *rand.Rand, ref, _ *stack, n int) ([]*source, error) {
	p := newPointRecorder(ref)
	first, stride := rng.Intn(embedMissIDSpace), 2*rng.Intn(embedMissIDSpace/2)+1
	ops := make([]op, n)
	attackAt := make([]int, 0, n/32)
	for i := range ops {
		if rng.Float64() < attackShare {
			attackAt = append(attackAt, i)
			continue
		}
		o, err := p.point(rng.Intn(len(pointPages)), 1+(first+i*stride)%embedMissIDSpace)
		if err != nil {
			return nil, err
		}
		ops[i] = o
	}
	// Attacks are recorded last: arming a second-order case stores a row
	// on the reference deployment that the measured one never gets.
	pool, err := attackPool(rng, ref)
	if err != nil {
		return nil, err
	}
	for _, i := range attackAt {
		ops[i] = pool[rng.Intn(len(pool))]
	}
	return split(ops), nil
}

// attackPool returns the distinct statements the reference guard
// blocked while serving every SQLI case of the labelled corpus and
// generated payloads in the string and numeric contexts of the apps'
// pages. A labelled case that is not blocked fails the set-up.
func attackPool(rng *rand.Rand, ref *stack) ([]op, error) {
	rec := &recorder{db: ref.db}
	wasp, ab := apps.NewWaspMon(rec), apps.NewAddressBook(rec)
	seen := make(map[string]bool)
	var pool []op
	serve := func(app *webapp.App, req webapp.Request) (blockedAny bool) {
		start := len(rec.ops)
		app.Serve(req.Clone())
		for _, o := range rec.ops[start:] {
			if o.want == blocked {
				blockedAny = true
				if !seen[o.sql] {
					seen[o.sql] = true
					pool = append(pool, o)
				}
			}
		}
		return blockedAny
	}
	for _, c := range attacks.Corpus() {
		if c.Kind != attacks.KindSQLI {
			continue
		}
		trigger := c.Request.Clone()
		for _, req := range c.Setup {
			wasp.Serve(req.Clone())
		}
		if len(c.Setup) > 0 && trigger.Path == "/user/profile" {
			// The corpus names the id the planted user gets in an empty
			// WaspMon; with the tables loaded it is the newest row.
			planted, err := scalar(ref.db, "SELECT MAX(id) FROM wm_users")
			if err != nil {
				return nil, err
			}
			trigger.Params["id"] = strconv.FormatInt(planted, 10)
		}
		if !serve(wasp, trigger) {
			return nil, fmt.Errorf("labelled attack %s was not blocked by the reference guard", c.Name)
		}
	}
	gen := rng.Int63()
	for _, payload := range attacks.GenerateStringContext(gen, 64) {
		serve(wasp, webapp.Request{Path: "/device/view", Params: map[string]string{"name": payload}})
	}
	for _, payload := range attacks.GenerateNumericContext(gen, 64) {
		serve(ab, webapp.Request{Path: "/contact", Params: map[string]string{"id": payload}})
		serve(wasp, webapp.Request{Path: "/reading/history", Params: map[string]string{"device": payload, "limit": "10"}})
	}
	return pool, nil
}

// replayCopies is how many times each app's recorded workload appears
// in one cycle of an app_replay trace.
const replayCopies = 8

// replayGroups assigns the applications to the two connections. Their
// tables are disjoint, so each connection's statements see a state only
// its own trace changes and the reference outcomes hold under any
// interleaving of the two.
var replayGroups = [numClients][]string{{"ab", "cms"}, {"rb", "waspmon"}}

func buildAppReplay(rng *rand.Rand, ref, sut *stack, _ int) ([]*source, error) {
	byPrefix := make(map[string]benchlab.AppSpec)
	for _, s := range specs() {
		byPrefix[s.Prefix] = s
	}
	out := make([]*source, numClients)
	for c, group := range replayGroups {
		rec := &recorder{db: ref.db}
		type request struct {
			app *webapp.App
			req webapp.Request
		}
		var reqs []request
		for _, prefix := range group {
			spec := byPrefix[prefix]
			app := spec.Build(rec)
			for i := 0; i < replayCopies; i++ {
				for _, req := range spec.Workload {
					reqs = append(reqs, request{app, req})
				}
			}
		}
		rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		// Cycle 1, through the pages: fixes the statement texts.
		for _, r := range reqs {
			if resp := r.app.Serve(r.req.Clone()); resp.Status >= 500 || resp.Blocked {
				return nil, fmt.Errorf("%s %s: status %d: %v", r.app.Name, r.req, resp.Status, resp.Err)
			}
		}
		for _, prefix := range group {
			for _, gc := range ref.gc[prefix] {
				if _, err := rec.Exec(gc); err != nil {
					return nil, err
				}
			}
		}
		ops := rec.ops
		// Cycle 2 fixes the outcomes: one-off effects of cycle 1 (a
		// deleted article, a changed password) are in place from here on.
		for i := range ops {
			ops[i].want = outcomeOf(ref.db.ExecArgs(ops[i].sql, ops[i].args...))
		}
		// The measured deployment runs its own cycle 1, then both must
		// repeat the recorded outcomes: the trace is steady and the
		// measured deployment agrees with the reference.
		for i := range ops {
			_, _ = sut.db.ExecArgs(ops[i].sql, ops[i].args...) // outcomes settle in the next cycle
		}
		for _, db := range []*engine.DB{ref.db, sut.db} {
			for i := range ops {
				got := outcomeOf(db.ExecArgs(ops[i].sql, ops[i].args...))
				if got < 0 || got != ops[i].want {
					return nil, fmt.Errorf("app_replay trace is not steady: %s gave %d, expected %d", ops[i].sql, got, ops[i].want)
				}
			}
		}
		out[c] = &source{ops: ops}
	}
	return out, nil
}

func buildTrainWAL(rng *rand.Rand, ref, _ *stack, _ int) ([]*source, error) {
	p := newPointRecorder(ref)
	want := make([]outcome, tableRows+1)
	for id := 1; id <= tableRows; id++ {
		o, err := p.point(0, id)
		if err != nil {
			return nil, err
		}
		want[id] = o.want
	}
	out := make([]*source, numClients)
	for c := range out {
		c, order, buf := c, rng.Perm(tableRows), make([]byte, 0, 128)
		out[c] = &source{gen: func(n int) op {
			id := 1 + order[n%tableRows]
			buf = appendTrainSQL(buf[:0], c+numClients*n, id)
			return op{sql: string(buf), want: want[id]}
		}}
	}
	return out, nil
}

// appendTrainSQL writes the address book's point read under a fresh
// identifier, so the training-mode guard stores one new model for it.
func appendTrainSQL(b []byte, ident, id int) []byte {
	b = append(b, "/* ab:t"...)
	b = strconv.AppendInt(b, int64(ident), 10)
	b = append(b, " */ SELECT name, phone, email, address FROM contacts WHERE id = "...)
	return strconv.AppendInt(b, int64(id), 10)
}
