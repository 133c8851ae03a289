package engine

import (
	"context"
	"errors"
	"fmt"
	"maps"
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
	// statement cache and with other sessions executing a text of the same
	// shape: hooks must treat it as read-only.
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
	// the values of the text's own literals, read off it once while it is
	// resident and per execution while it is not. Nil for a statement
	// whose Stmt holds its literals itself. Read-only, like Stmt, and valid
	// only as long as the HookContext is.
	Args []Value
	// Memo is the hook's slot in the engine's memory of this Stmt: what a
	// hook leaves there it finds again at the next execution of the Stmt,
	// for as long as the engine keeps the entry the slot hangs on. Every
	// text of a shape with a template shares the template's slot, resident
	// or not, whatever the statement: texts of one shape differ only in the
	// spelling of their values, each literal keeping its token kind, so
	// their data nodes agree in type. A slot is the place for what the
	// Stmt alone decides; what the values decide (the strings a write
	// stores) is judged on every execution. Nil when nothing would find it
	// again — the cache is off, or holds neither the text nor its shape —
	// and when the client bound Args, whose kinds may change from call to
	// call. Unlike the HookContext the slot may be kept and written after
	// BeforeExecute returns. Every session executing the Stmt shares it:
	// publish immutable values and replace them, never modify one.
	Memo *Memo
}

// Memo is the slot a statement-cache entry keeps for the hook; see
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
	return func(db *DB) { db.cat.Load().clock = clock } // New's catalog, not yet shared
}

// DefaultParseCacheCapacity bounds the statement cache when the
// deployment does not choose its own size. An application's set of
// distinct statement texts and their shapes is small; 4096 entries hold
// it with headroom.
const DefaultParseCacheCapacity = 4096

// WithParseCacheCapacity bounds the statement cache to n entries, texts
// and shapes together; n = 0 disables it (every Exec parses).
func WithParseCacheCapacity(n int) Option {
	return func(db *DB) { db.parseCap = n }
}

// WithObs installs an observability hub: per-stage latency histograms
// (parse split by cache hit/shape hit/miss, validate, hook, execute, total)
// and engine/parse-cache counters exported as gauge funcs. The default —
// no hub — keeps the pipeline on its zero-instrumentation path behind a
// single nil check.
func WithObs(h *obs.Hub) Option {
	return func(db *DB) { db.obsHub = h }
}

// DB is an in-memory database instance. It is safe for concurrent use by
// multiple goroutines ("client diversity": many sessions, one server).
//
// The schema is a value (catalog): a statement loads it once and is
// validated, judged and executed against that one version, whatever DDL
// publishes meanwhile. Each Table has its own RWMutex (see lockplan.go),
// so writes to one table never block reads of another. The catalog, the
// hook and the activity counters are atomic: the hot path takes no
// engine-level lock.
type DB struct {
	// cat is the current catalog. ddl serializes CREATE TABLE and DROP
	// TABLE, its only writers, each of which publishes a successor.
	cat atomic.Pointer[catalog]
	ddl sync.Mutex

	// hook holds the installed QueryHook (possibly a nil interface);
	// a nil pointer means WithQueryHook was never called.
	hook atomic.Pointer[QueryHook]

	// stmts maps texts to an *ownText or *shapeText, shape keys to a *shape
	// or noTemplate: a repeated text is not scanned, a new text of a known
	// shape is not parsed. unshareable counts the texts parsed alone.
	stmts       *txtcache.Cache[any]
	parseCap    int
	unshareable atomic.Int64

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

// stmtEntry is the AST-owning part of a shape and of a text parsed alone:
// the statement and its comments, immutable after insertion, and two fields
// published whole and replaced, never modified: plan, the plan of a SELECT,
// UPDATE or DELETE (plan.go), and memo, the hook's (HookContext.Memo).
type stmtEntry struct {
	stmt     sqlparser.Statement
	comments []string
	plan     atomic.Pointer[plan]
	memo     Memo
}

// shape is the entry under a shape key: the shape's template, whose
// statement every text of the shape runs on its own values.
type shape struct {
	stmtEntry
	tmpl *sqlparser.Template
}

// noTemplate is the entry under the key of a shape whose literal is structure.
type noTemplate struct{}

// ownText is a text parsed alone; decoded is what the parser consumed.
type ownText struct {
	stmtEntry
	decoded string
}

// shapeText is a text of a shape: an index into its shape, with the
// text's values for the template's placeholders and its decoded text.
type shapeText struct {
	shape   *shape
	args    []Value
	decoded string
}

// The ways a text gets its AST: the index of its parse-stage histogram.
const (
	cacheHit = iota
	cacheMiss
	shapeHit
)

// New creates an empty database.
func New(opts ...Option) *DB {
	db := &DB{parseCap: DefaultParseCacheCapacity}
	db.cat.Store(&catalog{tables: make(map[string]*Table), clock: time.Now})
	for _, o := range opts {
		o(db)
	}
	db.stmts = txtcache.New[any](db.parseCap)
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
		m.GaugeFunc("engine.parse_cache.entries", func() int64 { return int64(db.stmts.Stats().Entries) })
		m.GaugeFunc("engine.parse_cache.hits", func() int64 { return db.stmts.Stats().Hits })
		m.GaugeFunc("engine.parse_cache.misses", func() int64 { return db.stmts.Stats().Misses })
		m.GaugeFunc("engine.parse_cache.evictions", func() int64 { return db.stmts.Stats().Evictions })
		m.GaugeFunc("engine.parse_cache.refused", func() int64 { return db.stmts.Stats().Refused })
		m.GaugeFunc("engine.parse_cache.unshareable", db.unshareable.Load)
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

// ExecAppContext executes one statement on behalf of a session-declared
// application, under a deadline. app is handed to the query hook as
// HookContext.App, where SEPTIC uses it to route the query to the
// application's protection domain; an empty app is the default domain.
// Calling with zero args is Exec: the variadic parameter is a nil slice
// then, which exec takes for "no arguments given" and does not count
// against the statement's placeholders (one left unbound fails when it
// is evaluated).
//
// Cancellation is checked between pipeline stages (parse → validate →
// hook → execute), so a query whose context expires — the server's
// per-query timeout, a canceled client — returns ctx.Err() at the next
// stage boundary instead of running to completion. A stage already in
// flight is not interrupted; the bound is one stage's latency, which is
// what lets a hung protection path be timed out without killing its
// goroutine.
func (db *DB) ExecAppContext(ctx context.Context, app, query string, args ...Value) (*Result, error) {
	return db.exec(ctx, query, app, args)
}

// stageErr reports a context that died between pipeline stages.
func (db *DB) stageErr(ctx context.Context, stage string) error {
	if err := ctx.Err(); err != nil {
		db.failed.Add(1)
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
	// A repeated text reuses its entry: its own statement, or its shape's
	// and its values. Cached ASTs are shared and only ever read. Parse
	// errors are not cached: a failing text re-parses (and re-fails).
	e, hit, admits := db.stmts.Lookup(query)
	how, resident := cacheHit, hit
	var err error
	switch e.(type) {
	case *ownText, *shapeText:
	default: // not held, or a shape's entry: a text spelling a shape key is no text
		if e, how, resident, err = db.parseMiss(query, admits && !hit, len(args) == 0 && db.parseCap > 0); err != nil {
			db.failed.Add(1)
			return nil, fmt.Errorf("parse: %w", err)
		}
	}
	var se *stmtEntry
	var decoded string
	var memo *Memo
	switch t := e.(type) {
	case *ownText:
		if args != nil {
			args, err = checkArgs(t.stmt.NumParams(), args)
		}
		se, decoded = &t.stmtEntry, t.decoded
		if resident && len(args) == 0 { // a slot only for a text the cache holds, with no client argument
			memo = &se.memo
		}
	case *shapeText: // its shape's statement on its values, with the shape's slot, resident or not
		if !resident {
			defer releaseText(t)
		}
		_, err = checkArgs(0, args) // it has no placeholder of its own to hold a client's arguments to
		se, decoded, args, memo = &t.shape.stmtEntry, t.decoded, t.args, &t.shape.memo
	}
	if err != nil {
		db.failed.Add(1)
		return nil, err
	}
	if st != nil {
		now := time.Now()
		st.parse[how].Observe(now.Sub(stageStart))
		stageStart = now
	}
	return db.run(ctx, st, execStart, stageStart, query, decoded, app, se, args, memo)
}

// textScratch recycles the entries of texts of a shape the cache does not
// store; releaseText hands one back emptied, so no text stays pinned.
var textScratch = sync.Pool{New: func() any { return new(shapeText) }}

func releaseText(te *shapeText) {
	clear(te.args)
	*te = shapeText{args: te.args[:0]}
	textScratch.Put(te)
}

// parseMiss builds the entry of a text the cache does not hold, stores it
// if admits, and says how the text got its statement (shapeHit: nothing
// was parsed) and whether the entry is resident. With shaped set the one
// scan keys the text by its shape; if that has a template, or gets one,
// the entry is a *shapeText. Any other text — no literal, one that is
// structure, a shape refused or none — is parsed on its own: an *ownText.
func (db *DB) parseMiss(query string, admits, shaped bool) (any, int, bool, error) {
	decoded := sqlparser.DecodeCharset(query)
	p := sqlparser.Scan(decoded)
	defer p.Release()
	var key []byte
	if shaped {
		key = p.ShapeKey()
	}
	var sh *shape
	how, err := cacheMiss, error(nil)
	if key != nil && string(key) != decoded { // a text with no literal is its own shape
		sh, how, err = db.shapeOf(p, key)
	}
	if sh != nil {
		var te *shapeText
		if admits {
			te = &shapeText{args: make([]Value, 0, sh.stmt.NumParams())}
		} else {
			te = textScratch.Get().(*shapeText)
		}
		te.shape, te.decoded = sh, decoded
		for i := range sh.stmt.NumParams() {
			lit, err := p.Value(sh.tmpl, i)
			if err != nil {
				releaseText(te)
				return nil, how, false, err
			}
			te.args = append(te.args, LiteralValue(&lit))
		}
		return te, how, admits && db.stmts.Put(query, te), nil
	}
	unshareable := errors.Is(err, sqlparser.ErrUnshareable)
	if err != nil && !unshareable {
		return nil, how, false, err
	}
	stmt, err := p.Parse()
	if err != nil {
		return nil, cacheMiss, false, err
	}
	if unshareable { // remembered only now: a text that does not parse leaves nothing
		db.stmts.Put(string(key), noTemplate{})
	}
	if shaped {
		db.unshareable.Add(1)
	}
	te := &ownText{stmtEntry{stmt: stmt, comments: stmt.StatementComments()}, decoded}
	return te, cacheMiss, admits && db.stmts.Put(query, te), nil
}

// shapeOf returns the shape keyed key: one met for the first time is
// parsed as a template here, once (a cacheMiss). It is nil if the shape has
// no template (ErrUnshareable when this parse found out), or the key holds
// none, or a full cache refused it at first sight.
func (db *DB) shapeOf(p *sqlparser.Parser, key []byte) (*shape, int, error) {
	e, hit, admits := db.stmts.LookupBytes(key)
	if hit || !admits { // a shape, or noTemplate, a text's entry under the key, a refusal
		sh, _ := e.(*shape)
		return sh, shapeHit, nil
	}
	tmpl, err := p.ParseTemplate()
	if err != nil {
		return nil, cacheMiss, err
	}
	sh := &shape{stmtEntry{stmt: tmpl.Stmt, comments: tmpl.Stmt.StatementComments()}, tmpl}
	db.stmts.Put(string(key), sh)
	return sh, cacheMiss, nil
}

// run takes a parsed statement through the rest of the pipeline: validate,
// hook, execute, all three against the one catalog it loads. se is the
// statement's entry, memo the hook's slot for this execution.
func (db *DB) run(ctx context.Context, st *stageHists, execStart, stageStart time.Time,
	query, decoded, app string, se *stmtEntry, args []Value, memo *Memo) (*Result, error) {
	stmt := se.stmt
	faultinject.Hit(faultinject.SiteEngineValidate)
	if err := db.stageErr(ctx, "validate"); err != nil {
		return nil, err
	}
	cat := db.cat.Load()
	if err := cat.validate(stmt); err != nil {
		db.failed.Add(1)
		return nil, err
	}
	if st != nil {
		now := time.Now()
		st.validate.Observe(now.Sub(stageStart))
		stageStart = now
	}

	// SEPTIC's hook point: after validation, before execution (Fig. 1).
	// The hook holds no lock, so detection latency never serializes
	// unrelated sessions.
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
			Comments: se.comments,
			App:      app,
			Args:     args,
			Memo:     memo,
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
				db.blocked.Add(1)
			} else {
				db.failed.Add(1)
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
	res, err := db.execute(cat, stmt, se, args)
	if err != nil {
		db.failed.Add(1)
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

// validate checks the statement against the catalog: referenced tables
// must exist and INSERT column lists must match the schema. This is the
// "validated by the DBMS" half of the paper's hook contract.
func (cat *catalog) validate(stmt sqlparser.Statement) error {
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		return cat.validateSelect(s)
	case *sqlparser.InsertStmt:
		t, ok := cat.tables[strings.ToLower(s.Table)]
		if !ok {
			return fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
		}
		for _, c := range s.Columns {
			if t.colIndex(c) < 0 {
				return fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, s.Table, c)
			}
		}
		if s.Select != nil {
			return cat.validateSelect(s.Select)
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
		t, ok := cat.tables[strings.ToLower(s.Table)]
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
		if _, ok := cat.tables[strings.ToLower(s.Table)]; !ok {
			return fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
		}
		return nil
	case *sqlparser.DescribeStmt:
		if _, ok := cat.tables[strings.ToLower(s.Table)]; !ok {
			return fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
		}
		return nil
	case *sqlparser.ExplainStmt:
		return cat.validateSelect(s.Select)
	case *sqlparser.CreateTableStmt:
		if _, ok := cat.tables[strings.ToLower(s.Table)]; ok && !s.IfNotExists {
			return fmt.Errorf("%w: %s", ErrTableExists, s.Table)
		}
		return nil
	case *sqlparser.DropTableStmt:
		if _, ok := cat.tables[strings.ToLower(s.Table)]; !ok && !s.IfExists {
			return fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
		}
		return nil
	default:
		return nil
	}
}

func (cat *catalog) validateSelect(s *sqlparser.SelectStmt) error {
	for _, t := range s.From {
		if t.Subquery != nil {
			if err := cat.validateSelect(t.Subquery); err != nil {
				return err
			}
			continue
		}
		if _, ok := cat.tables[strings.ToLower(t.Name)]; !ok {
			return fmt.Errorf("%w: %s", ErrNoSuchTable, t.Name)
		}
	}
	if s.Union != nil {
		return cat.validateSelect(s.Union.Next)
	}
	return nil
}

// execute runs the statement against cat, the catalog it was validated
// on: DDL publishes a successor to whatever catalog is current by then;
// everything else locks only the tables it touches (lockplan.go), so
// sessions on disjoint tables never contend. se is the cache entry stmt
// came from, args the execution's arguments.
func (db *DB) execute(cat *catalog, stmt sqlparser.Statement, se *stmtEntry, args []Value) (*Result, error) {
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt, *sqlparser.UpdateStmt, *sqlparser.DeleteStmt:
		return cat.runPlanned(stmt, se, args)
	case *sqlparser.CreateTableStmt:
		return db.execCreateTable(s)
	case *sqlparser.DropTableStmt:
		return db.execDropTable(s)
	case *sqlparser.ShowTablesStmt:
		return cat.execShowTables()
	}

	var ls lockSet
	ls.init()
	collectTables(&ls, stmt)
	cat.lockTables(&ls)
	defer cat.unlockTables(&ls)

	switch s := stmt.(type) {
	case *sqlparser.InsertStmt:
		return cat.execInsert(s, args)
	case *sqlparser.DescribeStmt:
		return cat.execDescribe(s)
	case *sqlparser.ExplainStmt:
		return cat.execExplain(s, args)
	default:
		return nil, fmt.Errorf("unsupported statement %T", stmt)
	}
}

// runPlanned executes a top-level SELECT, UPDATE or DELETE off its plan:
// the one stored in se if it was built against cat, else a fresh one,
// which it publishes. The comparison comes before anything in the plan is
// dereferenced: after DROP + CREATE of the same name a stale plan still
// points at the dropped table's rows and index. Planning errors do not
// exist — what a plan cannot resolve it leaves to execution — so every
// error of a planned statement keeps coming from the execute stage, after
// the hook ran and counted.
func (cat *catalog) runPlanned(stmt sqlparser.Statement, se *stmtEntry, args []Value) (*Result, error) {
	p := se.plan.Load()
	if p == nil || p.cat != cat {
		p = cat.planStatement(stmt)
		se.plan.Store(p)
	}
	cat.lockTables(&p.locks)
	defer cat.unlockTables(&p.locks)
	var frames [4]frame // the statement's frame stack (eval.go)
	switch s := stmt.(type) {
	case *sqlparser.UpdateStmt:
		return cat.execUpdate(s, p, frames[:0], args)
	case *sqlparser.DeleteStmt:
		return cat.execDelete(s, p, frames[:0], args)
	default:
		return cat.execSelect(stmt.(*sqlparser.SelectStmt), frames[:0], p, args)
	}
}

func (cat *catalog) execShowTables() (*Result, error) {
	names := make([]string, 0, len(cat.tables))
	for _, t := range cat.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	res := &Result{Columns: []string{"Tables"}}
	for _, n := range names {
		res.Rows = append(res.Rows, []Value{Str(n)})
	}
	return res, nil
}

func (cat *catalog) execDescribe(s *sqlparser.DescribeStmt) (*Result, error) {
	t := cat.tables[strings.ToLower(s.Table)]
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

// execCreateTable and execDropTable check the catalog current under the
// DDL lock, not the statement's: another DDL may have published since.
func (db *DB) execCreateTable(s *sqlparser.CreateTableStmt) (*Result, error) {
	db.ddl.Lock()
	defer db.ddl.Unlock()
	key := strings.ToLower(s.Table)
	if _, ok := db.cat.Load().tables[key]; ok {
		if s.IfNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("%w: %s", ErrTableExists, s.Table)
	}
	t, err := newTable(s)
	if err != nil {
		return nil, err
	}
	db.publish(key, t)
	return &Result{}, nil
}

func (db *DB) execDropTable(s *sqlparser.DropTableStmt) (*Result, error) {
	db.ddl.Lock()
	defer db.ddl.Unlock()
	key := strings.ToLower(s.Table)
	if _, ok := db.cat.Load().tables[key]; !ok {
		if s.IfExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	db.publish(key, nil)
	return &Result{}, nil
}

// publish replaces the current catalog with a copy in which key names t,
// or nothing when t is nil. The caller holds db.ddl. A statement that
// loaded the predecessor keeps running against it, and off plans built
// against it.
func (db *DB) publish(key string, t *Table) {
	cur := db.cat.Load()
	next := &catalog{tables: maps.Clone(cur.tables), clock: cur.clock}
	if t != nil {
		next.tables[key] = t
	} else {
		delete(next.tables, key)
	}
	db.cat.Store(next)
}

// checkArgs holds an execution's arguments to the statement's n
// placeholders and returns them as the hook and the executors will read
// them. An argument of no kind the engine knows — a zero Value, any kind
// number a client put on the wire — is NULL; the caller's slice is not
// written to, so only then is there a copy.
func checkArgs(n int, args []Value) ([]Value, error) {
	if n > len(args) {
		return nil, fmt.Errorf("not enough arguments: %d placeholders, %d args", n, len(args))
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
