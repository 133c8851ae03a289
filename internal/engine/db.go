package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/septic-db/septic/internal/faultinject"
	"github.com/septic-db/septic/internal/obs"
	"github.com/septic-db/septic/internal/sqlparser"
	"github.com/septic-db/septic/internal/txtcache"
)

// HookContext is what the engine hands to the registered QueryHook for
// each statement, after parsing and validation and before execution. It
// corresponds to the "Q received, parsed & validated by the DBMS" input
// of Fig. 1.
//
// The pointer is valid only until BeforeExecute returns: the engine
// reuses the struct for a later statement. A hook that wants to keep
// what it saw copies the struct; the field values themselves are never
// overwritten and may be kept.
type HookContext struct {
	// Raw is the query text exactly as received from the client.
	Raw string
	// Decoded is the query text after charset decoding — what the parser
	// actually consumed. Raw != Decoded signals confusable folding.
	Decoded string
	// Stmt is the validated statement. It may be shared with the engine's
	// parse cache and with other sessions executing the same query text:
	// hooks must treat it as read-only.
	Stmt sqlparser.Statement
	// Comments are the comment bodies found in the query, in order. The
	// first one may carry the application-supplied external identifier.
	Comments []string
	// App is the session-declared application name, empty when the
	// session never declared one. The wire server binds it per
	// connection (HELLO handshake) and threads it through
	// ExecAppContext; hooks use it to route the query to its protection
	// domain, with priority over any comment-borne prefix.
	App string
	// Args are the values this execution binds to Stmt's placeholders:
	// the Placeholder with Index i stands for Args[i], and there are
	// exactly Stmt.NumParams() of them. They are the caller's arguments,
	// or — when Stmt is the template of the text's shape (see parseMiss) —
	// the values of the text's own literals, read off it for this
	// execution. Nil for a statement whose Stmt holds its literals itself.
	// Read-only, like Stmt, and valid only as long as the HookContext is.
	Args []Value
	// Memo is the hook's slot in the engine's memory of this text: what a
	// hook leaves there it finds again at the next execution of the same
	// text, for as long as the engine keeps the Stmt it was computed from,
	// and no longer. Nil when there is nothing to hang it on — the parse
	// cache is off or refused the text at first sight — and when the
	// execution binds Args, because then the text is not the whole
	// statement. Unlike the HookContext the slot may be kept and written
	// after BeforeExecute returns. Every session executing the text shares
	// it: publish immutable values and replace them, never modify one.
	Memo *Memo
}

// Memo is the slot a parse-cache entry keeps for the hook; see
// HookContext.Memo. The engine never reads it.
type Memo = atomic.Pointer[any]

// QueryHook observes validated queries immediately before execution.
// Returning an error that wraps ErrQueryBlocked makes the engine drop
// the query; any other error also aborts execution but is reported as an
// engine failure rather than a security block. SEPTIC implements this
// interface.
type QueryHook interface {
	BeforeExecute(ctx *HookContext) error
}

// Stats counts engine activity; read with DB.Stats.
type Stats struct {
	Executed int64
	Blocked  int64
	Failed   int64
}

// Option configures a DB at construction time.
type Option func(*DB)

// WithQueryHook installs the security hook (SEPTIC). Passing nil leaves
// the engine unprotected, like a stock MySQL.
func WithQueryHook(h QueryHook) Option {
	return func(db *DB) { db.hook.Store(&h) }
}

// WithClock injects the time source used by NOW(); defaults to time.Now.
// Benchmarks and tests inject a fixed clock for determinism.
func WithClock(clock func() time.Time) Option {
	return func(db *DB) { db.clock = clock }
}

// DefaultParseCacheCapacity bounds the statement cache when the
// deployment does not choose its own size. An application's set of
// distinct statement texts is small; 4096 entries hold it with headroom.
const DefaultParseCacheCapacity = 4096

// WithParseCacheCapacity bounds the parsed-statement cache to n entries;
// n = 0 disables statement caching (every Exec re-parses).
func WithParseCacheCapacity(n int) Option {
	return func(db *DB) { db.parseCap = n }
}

// WithObs installs an observability hub: per-stage latency histograms
// (parse split by parse-cache hit/miss, validate, hook, execute, total)
// and engine/parse-cache counters exported as gauge funcs. The default —
// no hub — keeps the pipeline on its zero-instrumentation path behind a
// single nil check.
func WithObs(h *obs.Hub) Option {
	return func(db *DB) { db.obsHub = h }
}

// DB is an in-memory database instance. It is safe for concurrent use by
// multiple goroutines ("client diversity": many sessions, one server).
//
// Locking is two-level (see lockplan.go): the catalog RWMutex guards the
// tables map — DDL exclusively, everything else shared — and each Table
// has its own RWMutex, so writes to one table never block reads of
// another. The hook and the activity counters are atomic: the hot path
// takes no engine-level write lock.
type DB struct {
	catalog sync.RWMutex
	tables  map[string]*Table
	// gen counts catalog changes. CREATE TABLE and DROP TABLE bump it
	// under the catalog write lock; a select plan built under generation
	// g is used only while, under the catalog read lock, gen is still g.
	gen uint64

	// hook holds the installed QueryHook (possibly a nil interface);
	// a nil pointer means WithQueryHook was never called.
	hook  atomic.Pointer[QueryHook]
	clock func() time.Time

	// parsed caches parse results by raw query text, so a repeated
	// statement skips lexing and parsing entirely. Cached ASTs are
	// shared and nothing writes to one: the hook and the executors read
	// an execution's arguments beside it (see exec). shapes, of the same
	// capacity, holds templates by shape key for the texts parsed refuses
	// (parseMiss); unshareable counts those with no shape to share.
	parsed, shapes *txtcache.Cache[*parsedQuery]
	parseCap       int
	unshareable    atomic.Int64

	executed atomic.Int64
	blocked  atomic.Int64
	failed   atomic.Int64

	// obsHub enables instrumentation; stage (resolved once in New) holds
	// the histogram handles so exec never touches the registry map. Both
	// are nil when observability is off — exec checks db.stage once.
	obsHub *obs.Hub
	stage  *stageHists
}

// stageHists are the pipeline's latency histograms: one per stage, the
// parse stage split by the way the text got its AST (a cacheHit skips
// lex+parse, a shapeHit scans and reads the values, a cacheMiss parses),
// plus the whole-pipeline total.
type stageHists struct {
	parse    [3]*obs.Histogram
	validate *obs.Histogram
	hook     *obs.Histogram
	execute  *obs.Histogram
	total    *obs.Histogram
}

// parsedQuery is one memoized parse: the statement, the decoded text the
// parser consumed, and the extracted comments. All three are immutable
// after insertion. Two fields are set later, each published whole and
// replaced, never modified: plan, the plan of a SELECT, UPDATE or DELETE,
// by the first execution and again when the catalog generation has moved
// on (plan.go); memo by the hook (HookContext.Memo). Both are derived
// from stmt and leave the cache with it.
//
// An entry of the shape cache is the same thing for every text of one
// shape: tmpl is set, stmt is tmpl.Stmt, the comments are the shape's, and
// decoded and memo stay empty — the text and the verdict are each
// execution's own. A shape that has no template is held as noTemplate.
type parsedQuery struct {
	stmt     sqlparser.Statement
	decoded  string
	comments []string
	plan     atomic.Pointer[plan]
	memo     Memo
	tmpl     *sqlparser.Template
}

// The ways a text gets its AST: the index of its parse-stage histogram.
const (
	cacheHit = iota
	cacheMiss
	shapeHit
)

// New creates an empty database.
func New(opts ...Option) *DB {
	db := &DB{
		tables:   make(map[string]*Table),
		clock:    time.Now,
		parseCap: DefaultParseCacheCapacity,
	}
	for _, o := range opts {
		o(db)
	}
	db.parsed = txtcache.New[*parsedQuery](db.parseCap)
	db.shapes = txtcache.New[*parsedQuery](db.parseCap)
	if db.obsHub != nil {
		m := db.obsHub.Metrics
		db.stage = &stageHists{
			parse: [3]*obs.Histogram{
				cacheHit:  m.Histogram("engine.stage.parse.cache_hit"),
				cacheMiss: m.Histogram("engine.stage.parse.cache_miss"),
				shapeHit:  m.Histogram("engine.stage.parse.shape_hit"),
			},
			validate: m.Histogram("engine.stage.validate"),
			hook:     m.Histogram("engine.stage.hook"),
			execute:  m.Histogram("engine.stage.execute"),
			total:    m.Histogram("engine.stage.total"),
		}
		m.GaugeFunc("engine.executed", db.executed.Load)
		m.GaugeFunc("engine.blocked", db.blocked.Load)
		m.GaugeFunc("engine.failed", db.failed.Load)
		m.GaugeFunc("engine.parse_cache.entries", func() int64 { return int64(db.parsed.Stats().Entries) })
		m.GaugeFunc("engine.parse_cache.hits", func() int64 { return db.parsed.Stats().Hits })
		m.GaugeFunc("engine.parse_cache.misses", func() int64 { return db.parsed.Stats().Misses })
		m.GaugeFunc("engine.parse_cache.evictions", func() int64 { return db.parsed.Stats().Evictions })
		m.GaugeFunc("engine.parse_cache.refused", func() int64 { return db.parsed.Stats().Refused })
		m.GaugeFunc("engine.shape_cache.entries", func() int64 { return int64(db.shapes.Stats().Entries) })
		m.GaugeFunc("engine.shape_cache.hits", func() int64 { return db.shapes.Stats().Hits })
		m.GaugeFunc("engine.shape_cache.misses", func() int64 { return db.shapes.Stats().Misses })
		m.GaugeFunc("engine.shape_cache.refused", func() int64 { return db.shapes.Stats().Refused })
		m.GaugeFunc("engine.shape_cache.unshareable", db.unshareable.Load)
	}
	return db
}

// SetHook replaces the query hook at runtime (used when the demo flips
// SEPTIC between modes and "restarts MySQL").
func (db *DB) SetHook(h QueryHook) {
	db.hook.Store(&h)
}

// Stats returns a snapshot of the engine counters.
func (db *DB) Stats() Stats {
	return Stats{
		Executed: db.executed.Load(),
		Blocked:  db.blocked.Load(),
		Failed:   db.failed.Load(),
	}
}

// Result is the outcome of one statement.
type Result struct {
	// Columns are the result column names for row-returning statements.
	// Executions of the same statement text share one slice (it belongs
	// to the statement's plan): read it, copy it, never write into it.
	Columns []string
	// Rows are the result rows. Their cells are the caller's own copies;
	// the rows of one result are windows into one block, each capped at
	// its own width, so appending to a row reallocates it.
	Rows [][]Value
	// Affected is the number of rows written by DML.
	Affected int64
	// LastInsertID is the last AUTO_INCREMENT value an INSERT produced.
	LastInsertID int64
}

// Exec parses, validates, hooks and executes one SQL statement.
func (db *DB) Exec(query string) (*Result, error) {
	return db.exec(context.Background(), query, "", nil)
}

// ExecArgs executes a parameterized statement: the '?' placeholders of
// the query, in source order, stand for the values in args. A value never
// enters the text or the parsed statement — the hook and the executors
// read it where the placeholder is — so the query's structure is fixed
// before user data meets it. This is the engine's "prepared statement"
// path, the textbook-safe alternative the paper's vulnerable applications
// fail to use.
func (db *DB) ExecArgs(query string, args ...Value) (*Result, error) {
	return db.exec(context.Background(), query, "", args)
}

// ExecContext is Exec with a deadline: cancellation is checked between
// pipeline stages (parse → validate → hook → execute), so a query whose
// context expires — the server's per-query timeout, a canceled client —
// returns ctx.Err() at the next stage boundary instead of running to
// completion. A stage already in flight is not interrupted; the bound is
// one stage's latency, which is what lets a hung protection path be
// timed out without killing its goroutine.
func (db *DB) ExecContext(ctx context.Context, query string) (*Result, error) {
	return db.exec(ctx, query, "", nil)
}

// ExecArgsContext is ExecArgs with a deadline (see ExecContext).
func (db *DB) ExecArgsContext(ctx context.Context, query string, args ...Value) (*Result, error) {
	return db.exec(ctx, query, "", args)
}

// ExecAppContext executes one statement on behalf of a session-declared
// application: app is handed to the query hook as HookContext.App, where
// SEPTIC uses it to route the query to the application's protection
// domain. An empty app is exactly ExecArgsContext. Calling with zero
// args is Exec: the variadic parameter is a nil slice then, which exec
// takes for "no arguments given" and does not count against the
// statement's placeholders (one left unbound fails when it is evaluated).
func (db *DB) ExecAppContext(ctx context.Context, app, query string, args ...Value) (*Result, error) {
	return db.exec(ctx, query, app, args)
}

// stageErr reports a context that died between pipeline stages.
func (db *DB) stageErr(ctx context.Context, stage string) error {
	if err := ctx.Err(); err != nil {
		db.countFailed()
		return fmt.Errorf("query aborted before %s: %w", stage, err)
	}
	return nil
}

func (db *DB) exec(ctx context.Context, query, app string, args []Value) (*Result, error) {
	// Stage timing rides on one pointer check: st is nil with obs off, and
	// every Observe below is nil-receiver-safe. Boundaries are sampled
	// once per stage (start reused as the next stage's origin), so the
	// enabled cost is one time.Now per stage.
	st := db.stage
	var stageStart, execStart time.Time
	if st != nil {
		execStart = time.Now()
		stageStart = execStart
	}
	faultinject.Hit(faultinject.SiteEngineParse)
	if err := db.stageErr(ctx, "parse"); err != nil {
		return nil, err
	}
	// Parse cache: a byte-identical repeat of a statement text reuses the
	// memoized AST, decoded text and comments. The cached AST is shared
	// between sessions, which is safe because every execution path only
	// reads it. Parse errors are not cached: a failing text re-parses
	// (and re-fails) each time, keeping the cache free of junk keys.
	pq, cached, admits := db.parsed.Lookup(query)
	how, decoded, resident := cacheHit, "", cached
	var scratch *[]Value
	if cached {
		decoded = pq.decoded
	} else {
		decoded = sqlparser.DecodeCharset(query)
		var err error
		pq, scratch, how, err = db.parseMiss(decoded, !admits && args == nil && db.parseCap > 0)
		switch {
		case err != nil:
			db.countFailed()
			return nil, fmt.Errorf("parse: %w", err)
		case scratch != nil:
			args = *scratch
		case admits:
			resident = db.parsed.Put(query, pq)
		}
	}
	if args != nil && scratch == nil {
		var err error
		if args, err = checkArgs(pq.stmt.NumParams(), args); err != nil {
			db.countFailed()
			return nil, err
		}
	}
	if st != nil {
		now := time.Now()
		st.parse[how].Observe(now.Sub(stageStart))
		stageStart = now
	}
	res, err := db.run(ctx, st, execStart, stageStart, query, decoded, app, pq, args, resident)
	if scratch != nil {
		releaseArgs(scratch)
	}
	return res, err
}

// argScratch recycles the arguments a shape hit reads off its text.
var argScratch = sync.Pool{New: func() any { return new([]Value) }}

// releaseArgs hands such arguments back, emptied: no text stays pinned
// while they are pooled.
func releaseArgs(vals *[]Value) {
	clear(*vals)
	*vals = (*vals)[:0]
	argScratch.Put(vals)
}

// parseMiss gives a text the parse cache does not hold its statement, and
// says how: shapeHit if nothing was parsed for it, cacheMiss otherwise.
// With shape set — the cache refused the text, so an AST of its own would
// be thrown away once it has run, and the client bound no arguments — the
// one scan first keys the text by its shape: if the shape has a template,
// or may get one, the statement is the shape's, plan included, and the
// literals of this text are the arguments of this execution, returned in
// a scratch slice for the caller to hand back. Otherwise, and for a shape
// the shape cache refuses or a statement that has none, the text is
// parsed on its own off the same scan.
func (db *DB) parseMiss(decoded string, shape bool) (*parsedQuery, *[]Value, int, error) {
	p := sqlparser.Scan(decoded)
	defer p.Release()
	var found []byte // the key of a shape found just now to have no template
	if shape {
		if key := p.ShapeKey(); key == nil {
			db.unshareable.Add(1)
		} else if tq, vals, how, err := db.template(p, key); tq == noTemplate {
			db.unshareable.Add(1)
			if how == cacheMiss {
				found = key
			}
		} else if tq != nil || err != nil {
			return tq, vals, how, err
		}
	}
	stmt, err := p.Parse()
	if err != nil {
		return nil, nil, cacheMiss, err
	}
	if found != nil {
		db.shapes.Put(string(found), noTemplate) // only now: a text that does not parse is not remembered
	}
	return &parsedQuery{stmt: stmt, decoded: decoded, comments: stmt.StatementComments()}, nil, cacheMiss, nil
}

// noTemplate is the shape cache's entry for a shape with a literal that is
// structure: its texts are parsed one by one, without trying again.
var noTemplate = new(parsedQuery)

// template returns the shape cache's entry for the scanned text, whose
// shape key is key, and the text's values for it. A shape met for the
// first time is parsed as a template here, once, and this execution runs
// from that parse (a cacheMiss, then). Without values the text goes its
// own way: the entry is nil if the shape cache is full and refused the
// shape at first sight, noTemplate if a literal of the statement is
// structure — found by this parse or by an earlier one.
func (db *DB) template(p *sqlparser.Parser, key []byte) (*parsedQuery, *[]Value, int, error) {
	tq, hit, admits := db.shapes.LookupBytes(key)
	how := shapeHit
	if !hit {
		if !admits {
			return nil, nil, how, nil
		}
		how = cacheMiss
		tmpl, err := p.ParseTemplate()
		if errors.Is(err, sqlparser.ErrUnshareable) {
			return noTemplate, nil, how, nil
		}
		if err != nil {
			return nil, nil, how, err
		}
		tq = &parsedQuery{stmt: tmpl.Stmt, comments: tmpl.Stmt.StatementComments(), tmpl: tmpl}
		db.shapes.Put(string(key), tq)
	}
	if tq == noTemplate {
		return tq, nil, how, nil
	}
	vals := argScratch.Get().(*[]Value)
	for i, n := 0, tq.stmt.NumParams(); i < n; i++ {
		lit, err := p.Value(tq.tmpl, i)
		if err != nil {
			releaseArgs(vals)
			return nil, nil, how, err
		}
		*vals = append(*vals, LiteralValue(&lit))
	}
	return tq, vals, how, nil
}

// run takes a parsed statement through the rest of the pipeline: validate,
// hook, execute.
func (db *DB) run(ctx context.Context, st *stageHists, execStart, stageStart time.Time,
	query, decoded, app string, pq *parsedQuery, args []Value, resident bool) (*Result, error) {
	stmt := pq.stmt
	faultinject.Hit(faultinject.SiteEngineValidate)
	if err := db.stageErr(ctx, "validate"); err != nil {
		return nil, err
	}
	if err := db.validate(stmt); err != nil {
		db.countFailed()
		return nil, err
	}
	if st != nil {
		now := time.Now()
		st.validate.Observe(now.Sub(stageStart))
		stageStart = now
	}

	// SEPTIC's hook point: after validation, before execution (Fig. 1).
	// The hook runs outside the engine lock so detection latency never
	// serializes unrelated sessions.
	faultinject.Hit(faultinject.SiteEngineHook)
	if err := db.stageErr(ctx, "hook"); err != nil {
		return nil, err
	}
	if hook := db.currentHook(); hook != nil {
		hctx := hookContexts.Get().(*HookContext)
		*hctx = HookContext{
			Raw:      query,
			Decoded:  decoded,
			Stmt:     stmt,
			Comments: pq.comments,
			App:      app,
			Args:     args,
		}
		if resident && len(args) == 0 {
			hctx.Memo = &pq.memo
		}
		err := hook.BeforeExecute(hctx)
		*hctx = HookContext{} // pin nothing while pooled
		hookContexts.Put(hctx)
		if err != nil {
			// A blocked or failed query still had its hook latency — the
			// attack path is exactly what the histogram must show.
			if st != nil {
				st.hook.Observe(time.Since(stageStart))
			}
			// Only a deliberate security drop counts as blocked; a hook
			// infrastructure failure is an ordinary failed query.
			if errors.Is(err, ErrQueryBlocked) {
				db.countBlocked()
			} else {
				db.countFailed()
			}
			return nil, err
		}
	}
	if st != nil {
		now := time.Now()
		st.hook.Observe(now.Sub(stageStart))
		stageStart = now
	}

	faultinject.Hit(faultinject.SiteEngineExecute)
	if err := db.stageErr(ctx, "execute"); err != nil {
		return nil, err
	}
	res, err := db.execute(stmt, pq, args)
	if err != nil {
		db.countFailed()
		return nil, err
	}
	db.executed.Add(1)
	if st != nil {
		now := time.Now()
		st.execute.Observe(now.Sub(stageStart))
		st.total.Observe(now.Sub(execStart))
	}
	return res, nil
}

// hookContexts recycles the HookContext of each statement: it escapes
// through the QueryHook interface call, so without the pool every
// protected statement allocates one.
var hookContexts = sync.Pool{New: func() any { return new(HookContext) }}

func (db *DB) currentHook() QueryHook {
	if p := db.hook.Load(); p != nil {
		return *p
	}
	return nil
}

func (db *DB) countFailed() {
	db.failed.Add(1)
}

func (db *DB) countBlocked() {
	db.blocked.Add(1)
}

// validate checks the statement against the catalog: referenced tables
// must exist and INSERT column lists must match the schema. This is the
// "validated by the DBMS" half of the paper's hook contract.
func (db *DB) validate(stmt sqlparser.Statement) error {
	db.catalog.RLock()
	defer db.catalog.RUnlock()
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		return db.validateSelect(s)
	case *sqlparser.InsertStmt:
		t, ok := db.tables[strings.ToLower(s.Table)]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
		}
		for _, c := range s.Columns {
			if t.colIndex(c) < 0 {
				return fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, s.Table, c)
			}
		}
		if s.Select != nil {
			return db.validateSelect(s.Select)
		}
		width := len(s.Columns)
		if width == 0 {
			width = len(t.Columns)
		}
		for i, row := range s.Rows {
			if len(row) != width {
				return fmt.Errorf("row %d has %d values, want %d", i+1, len(row), width)
			}
		}
		return nil
	case *sqlparser.UpdateStmt:
		t, ok := db.tables[strings.ToLower(s.Table)]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
		}
		for _, a := range s.Sets {
			if t.colIndex(a.Column) < 0 {
				return fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, s.Table, a.Column)
			}
		}
		return nil
	case *sqlparser.DeleteStmt:
		if _, ok := db.tables[strings.ToLower(s.Table)]; !ok {
			return fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
		}
		return nil
	case *sqlparser.DescribeStmt:
		if _, ok := db.tables[strings.ToLower(s.Table)]; !ok {
			return fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
		}
		return nil
	case *sqlparser.ExplainStmt:
		return db.validateSelect(s.Select)
	case *sqlparser.CreateTableStmt:
		if _, ok := db.tables[strings.ToLower(s.Table)]; ok && !s.IfNotExists {
			return fmt.Errorf("%w: %s", ErrTableExists, s.Table)
		}
		return nil
	case *sqlparser.DropTableStmt:
		if _, ok := db.tables[strings.ToLower(s.Table)]; !ok && !s.IfExists {
			return fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
		}
		return nil
	default:
		return nil
	}
}

func (db *DB) validateSelect(s *sqlparser.SelectStmt) error {
	for _, t := range s.From {
		if t.Subquery != nil {
			if err := db.validateSelect(t.Subquery); err != nil {
				return err
			}
			continue
		}
		if _, ok := db.tables[strings.ToLower(t.Name)]; !ok {
			return fmt.Errorf("%w: %s", ErrNoSuchTable, t.Name)
		}
	}
	if s.Union != nil {
		return db.validateSelect(s.Union.Next)
	}
	return nil
}

// execute acquires the statement's lock plan and dispatches to the
// per-statement executors. DDL serializes on the catalog write lock;
// everything else shares the catalog and locks only the tables it
// touches (lockplan.go), so sessions on disjoint tables never contend.
// pq is the cache entry stmt came from, args the execution's arguments.
func (db *DB) execute(stmt sqlparser.Statement, pq *parsedQuery, args []Value) (*Result, error) {
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt, *sqlparser.UpdateStmt, *sqlparser.DeleteStmt:
		return db.runPlanned(stmt, pq, args)
	case *sqlparser.CreateTableStmt:
		db.catalog.Lock()
		defer db.catalog.Unlock()
		return db.execCreateTable(s)
	case *sqlparser.DropTableStmt:
		db.catalog.Lock()
		defer db.catalog.Unlock()
		return db.execDropTable(s)
	case *sqlparser.ShowTablesStmt:
		db.catalog.RLock()
		defer db.catalog.RUnlock()
		return db.execShowTables()
	}

	var ls lockSet
	ls.init()
	collectTables(&ls, stmt)
	db.catalog.RLock()
	defer db.catalog.RUnlock()
	db.lockTables(&ls)
	defer db.unlockTables(&ls)

	switch s := stmt.(type) {
	case *sqlparser.InsertStmt:
		return db.execInsert(s, args)
	case *sqlparser.DescribeStmt:
		return db.execDescribe(s)
	case *sqlparser.ExplainStmt:
		return db.execExplain(s, args)
	default:
		return nil, fmt.Errorf("unsupported statement %T", stmt)
	}
}

// runPlanned executes a top-level SELECT, UPDATE or DELETE off its plan:
// the one stored in pq if it was built under the current catalog
// generation, else a fresh one, which it publishes. The comparison
// happens under the catalog read lock and before anything in the plan is
// dereferenced: after DROP + CREATE of the same name a stale plan still
// points at the dropped table's rows and index. Planning errors do not
// exist — what a plan cannot resolve it leaves to execution — so every
// error of a planned statement keeps coming from the execute stage, after
// the hook ran and counted.
func (db *DB) runPlanned(stmt sqlparser.Statement, pq *parsedQuery, args []Value) (*Result, error) {
	db.catalog.RLock()
	defer db.catalog.RUnlock()
	p := pq.plan.Load()
	if p == nil || p.gen != db.gen {
		p = db.planStatement(stmt)
		pq.plan.Store(p)
	}
	db.lockTables(&p.locks)
	defer db.unlockTables(&p.locks)
	var frames [4]frame // the statement's frame stack (eval.go)
	switch s := stmt.(type) {
	case *sqlparser.UpdateStmt:
		return db.execUpdate(s, p, frames[:0], args)
	case *sqlparser.DeleteStmt:
		return db.execDelete(s, p, frames[:0], args)
	default:
		return db.execSelect(stmt.(*sqlparser.SelectStmt), frames[:0], p, args)
	}
}

func (db *DB) execShowTables() (*Result, error) {
	names := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	res := &Result{Columns: []string{"Tables"}}
	for _, n := range names {
		res.Rows = append(res.Rows, []Value{Str(n)})
	}
	return res, nil
}

func (db *DB) execDescribe(s *sqlparser.DescribeStmt) (*Result, error) {
	t := db.tables[strings.ToLower(s.Table)]
	if t == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	res := &Result{Columns: []string{"Field", "Type", "Null", "Key", "Extra"}}
	for _, c := range t.Columns {
		null := "YES"
		if c.NotNull {
			null = "NO"
		}
		key := ""
		if c.PrimaryKey {
			key = "PRI"
		} else if c.Unique {
			key = "UNI"
		}
		extra := ""
		if c.AutoIncrement {
			extra = "auto_increment"
		}
		res.Rows = append(res.Rows, []Value{
			Str(c.Name), Str(c.Type.String()), Str(null), Str(key), Str(extra),
		})
	}
	return res, nil
}

func (db *DB) execCreateTable(s *sqlparser.CreateTableStmt) (*Result, error) {
	key := strings.ToLower(s.Table)
	if _, ok := db.tables[key]; ok {
		if s.IfNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("%w: %s", ErrTableExists, s.Table)
	}
	t, err := newTable(s)
	if err != nil {
		return nil, err
	}
	db.tables[key] = t
	db.gen++
	return &Result{}, nil
}

func (db *DB) execDropTable(s *sqlparser.DropTableStmt) (*Result, error) {
	key := strings.ToLower(s.Table)
	if _, ok := db.tables[key]; !ok {
		if s.IfExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	delete(db.tables, key)
	db.gen++
	return &Result{}, nil
}

// checkArgs holds an execution's arguments to the statement's n
// placeholders and returns them as the hook and the executors will read
// them. An argument of no kind the engine knows — a zero Value, any kind
// number a client put on the wire — is NULL; the caller's slice is not
// written to, so only then is there a copy.
func checkArgs(n int, args []Value) ([]Value, error) {
	if n > len(args) {
		return nil, fmt.Errorf("not enough arguments: placeholder %d of %d bound", len(args)+1, len(args))
	}
	if n < len(args) {
		return nil, fmt.Errorf("too many arguments: %d placeholders, %d args", n, len(args))
	}
	unknown := func(v Value) bool { return v.Kind < KindNull || v.Kind > KindBool }
	if slices.ContainsFunc(args, unknown) {
		args = slices.Clone(args)
		for i := range args {
			if unknown(args[i]) {
				args[i] = Null()
			}
		}
	}
	return args, nil
}
