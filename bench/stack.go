package main

import (
	"fmt"
	"strings"
	"time"

	"github.com/septic-db/septic/internal/benchlab"
	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/webapp"
	"github.com/septic-db/septic/internal/wire"
)

// tableRows is the fixed size every main table is topped up to after
// the applications' own schema seeds and training requests have run.
const tableRows = 200

// appTables lists, per application prefix, the tables the benchmark
// loads and the column tuple it inserts for row i. Values are plain
// words and numbers, so loading teaches the guard nothing unusual.
var appTables = map[string][]struct {
	name, cols string
	row        func(i int) string
}{
	"ab": {{"contacts", "name, phone, email, address, grp", func(i int) string {
		return fmt.Sprintf("('%s %s', '91%07d', 'c%d@example.com', '%s', '%s')",
			pick(firstNames, i), pick(lastNames, i/7), i, i, pick(cities, i/3), pick(groups, i))
	}}},
	"waspmon": {
		{"wm_users", "username, email, notes", func(i int) string {
			return fmt.Sprintf("('user%d', 'u%d@example.com', '%s shift')", i, i, pick(groups, i))
		}},
		{"readings", "device_id, ts, watts", func(i int) string {
			return fmt.Sprintf("(%d, %d, %d.5)", 1+i%3, 1000+10*i, 500+(i*37)%9000)
		}},
	},
	"rb": {{"refs", "author, title, year, journal, cites", func(i int) string {
		return fmt.Sprintf("('%s', 'On %s and %s %d', %d, '%s', %d)",
			pick(lastNames, i), pick(topics, i), pick(topics, i/5+1), i, 1990+i%30, pick(journals, i), (i*13)%500)
	}}},
	"cms": {
		{"articles", "title, body, author_id", func(i int) string {
			return fmt.Sprintf("('%s notes %d', 'Text about %s and %s.', %d)",
				pick(topics, i), i, pick(topics, i/3), pick(cities, i), 1+i%3)
		}},
		{"cms_comments", "article_id, author, body", func(i int) string {
			return fmt.Sprintf("(%d, '%s', 'comment %d on %s')", 1+i%tableRows, pick(firstNames, i), i, pick(topics, i))
		}},
	},
}

var (
	firstNames = []string{"Ana", "Bruno", "Carla", "Diogo", "Eva", "Filipe", "Gina", "Hugo", "Ines", "Joao", "Katia"}
	lastNames  = []string{"Silva", "Costa", "Dias", "Nunes", "Reis", "Pinto", "Alves", "Rocha", "Melo"}
	cities     = []string{"Lisboa", "Porto", "Faro", "Braga", "Aveiro", "Evora", "Viseu"}
	groups     = []string{"family", "work", "friends", "day", "night"}
	topics     = []string{"energy", "security", "injection", "welcome", "SQL", "attack", "tips", "parsing", "taint", "sensors", "power"}
	journals   = []string{"CODASPY", "ASE", "ACNS", "POPL", "DSN", "CCS", "TR"}
)

func pick(words []string, i int) string { return words[i%len(words)] }

// specs returns the paper's four applications in a fixed order.
func specs() []benchlab.AppSpec {
	return append(benchlab.PaperSpecs(), benchlab.WaspMonSpec())
}

// preventionYY is the paper's "YY" configuration: prevention mode with
// SQLI and stored-injection detection on.
var preventionYY = core.DefaultConfig()

// stack is one deployment assembled the way cmd/septicd does it: an
// engine with the guard at its pre-execution hook and one protection
// domain per application, routed by identifier prefix.
type stack struct {
	db    *engine.DB
	guard *core.Septic
	// gc holds, per application prefix, the statements that delete every
	// row added after set-up; a replay cycle ends with them so tables
	// return to their loaded size. They carry the application's prefix,
	// are trained like its pages and are the only SQL the benchmark
	// writes itself besides the table loads and train_wal's statements.
	gc map[string][]string
}

// deploy applies the schemas, drives each application's own training
// requests, tops the main tables up to tableRows and leaves every
// domain in training mode. cached=false builds the reference
// deployment the oracle runs on: parse and verdict caches disabled.
func deploy(cached bool) (*stack, error) {
	var coreOpts []core.SepticOption
	var engineOpts []engine.Option
	if !cached {
		coreOpts = append(coreOpts, core.WithVerdictCacheCapacity(0))
		engineOpts = append(engineOpts, engine.WithParseCacheCapacity(0))
	}
	guard := core.New(core.Config{Mode: core.ModeTraining}, coreOpts...)
	db := engine.New(append(engineOpts, engine.WithQueryHook(guard))...)
	st := &stack{db: db, guard: guard, gc: make(map[string][]string)}
	for _, spec := range specs() {
		if _, err := guard.RegisterDomain(spec.Prefix, core.Config{Mode: core.ModeTraining, IncrementalLearning: true}); err != nil {
			return nil, err
		}
		for _, q := range spec.Schema {
			if _, err := db.Exec(q); err != nil {
				return nil, fmt.Errorf("%s schema: %w", spec.Name, err)
			}
		}
		app := spec.Build(db)
		for _, req := range spec.Training {
			if resp := app.Serve(req.Clone()); resp.Status != 200 {
				return nil, fmt.Errorf("%s training %s: %v", spec.Name, req, resp.Err)
			}
		}
		for _, t := range appTables[spec.Prefix] {
			have, err := scalar(db, "SELECT COUNT(*) FROM "+t.name)
			if err != nil {
				return nil, err
			}
			var rows []string
			for i := int(have); i < tableRows; i++ {
				rows = append(rows, t.row(i))
			}
			if len(rows) > 0 {
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO %s (%s) VALUES %s", t.name, t.cols, strings.Join(rows, ", "))); err != nil {
					return nil, fmt.Errorf("load %s: %w", t.name, err)
				}
			}
			maxID, err := scalar(db, "SELECT MAX(id) FROM "+t.name)
			if err != nil {
				return nil, err
			}
			gc := fmt.Sprintf("/* %s:bench-gc-%s */ DELETE FROM %s WHERE id > %d", spec.Prefix, t.name, t.name, maxID)
			if _, err := db.Exec(gc); err != nil {
				return nil, fmt.Errorf("train %s: %w", gc, err)
			}
			st.gc[spec.Prefix] = append(st.gc[spec.Prefix], gc)
		}
	}
	return st, nil
}

// protect ends training: every application domain and the default
// domain switch to prevention with both detections on.
func (st *stack) protect() {
	for _, d := range st.guard.Domains() {
		d.SetConfig(preventionYY)
	}
}

// tableCounts returns the row count of every loaded table.
func (st *stack) tableCounts() (map[string]int64, error) {
	out := make(map[string]int64)
	for _, tables := range appTables {
		for _, t := range tables {
			n, err := scalar(st.db, "SELECT COUNT(*) FROM "+t.name)
			if err != nil {
				return nil, err
			}
			out[t.name] = n
		}
	}
	return out, nil
}

func scalar(db *engine.DB, q string) (int64, error) {
	res, err := db.Exec(q)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", q, err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, fmt.Errorf("%s: want one value, got %d rows", q, len(res.Rows))
	}
	return res.Rows[0][0].AsInt(), nil
}

// serve starts a wire server over the stack on an ephemeral loopback
// port with septicd's default limits; overload control, observability
// and replication stay off, as they are by default in the daemon.
func (st *stack) serve() (*wire.Server, string, error) {
	srv := wire.NewServer(st.db,
		wire.WithMaxConns(256),
		wire.WithQueryTimeout(30*time.Second),
		wire.WithIdleTimeout(5*time.Minute),
		wire.WithPipelineWorkers(wire.DefaultPipelineWorkers),
		wire.WithMaxInFlight(wire.DefaultMaxInFlight),
		wire.WithDomainResolver(func(app string) string {
			if d, ok := st.guard.Domain(app); ok {
				return d.Name()
			}
			return core.DefaultDomain
		}),
	)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return srv, addr, nil
}

// recorder is the executor handed to an application while its pages are
// driven on the reference deployment: it runs each statement and keeps
// the text with the outcome, which becomes the oracle's expectation.
type recorder struct {
	db  *engine.DB
	ops []op
}

func (r *recorder) Exec(q string) (*engine.Result, error) { return r.ExecArgs(q) }

func (r *recorder) ExecArgs(q string, args ...engine.Value) (*engine.Result, error) {
	res, err := r.db.ExecArgs(q, args...)
	o := op{sql: q, args: append([]engine.Value(nil), args...)}
	o.want = outcomeOf(res, err)
	r.ops = append(r.ops, o)
	return res, err
}

var _ webapp.Executor = (*recorder)(nil)
