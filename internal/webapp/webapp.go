// Package webapp is a miniature PHP-style web application framework: the
// substrate standing in for the paper's Apache + Zend + PHP stack. It
// exists to produce exactly the query streams the demonstration needs —
// applications whose entry points are sanitized with the PHP functions'
// byte-level semantics, and which therefore remain vulnerable to the
// semantic-mismatch attacks SEPTIC blocks.
//
// Applications register handlers for paths; handlers read request
// parameters (the PHP superglobals), sanitize them, concatenate them
// into SQL text (the idiom the paper's vulnerable applications use) and
// run the queries against an Executor — either the engine directly or a
// wire client.
package webapp

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/septic-db/septic/internal/engine"
)

// Executor runs SQL. Both *engine.DB and *wire.Client satisfy it, so an
// application can sit in-process (benchmarks) or behind the wire
// protocol (the demo deployment). ExecArgs is the prepared-statement
// path: values carried beside the text, never substituted into it.
type Executor interface {
	Exec(query string) (*engine.Result, error)
	ExecArgs(query string, args ...engine.Value) (*engine.Result, error)
}

// Request models one HTTP request to the application.
type Request struct {
	// Path routes to a handler ("/search").
	Path string
	// Params are the merged GET/POST parameters.
	Params map[string]string
}

// Clone deep-copies the request (workloads are replayed concurrently).
func (r Request) Clone() Request {
	params := make(map[string]string, len(r.Params))
	for k, v := range r.Params {
		params[k] = v
	}
	return Request{Path: r.Path, Params: params}
}

// String renders the request like an access-log line.
func (r Request) String() string {
	if len(r.Params) == 0 {
		return r.Path
	}
	keys := make([]string, 0, len(r.Params))
	for k := range r.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(r.Path)
	b.WriteString("?")
	for i, k := range keys {
		if i > 0 {
			b.WriteString("&")
		}
		b.WriteString(k)
		b.WriteString("=")
		b.WriteString(r.Params[k])
	}
	return b.String()
}

// Response is the outcome of one request.
type Response struct {
	// Status follows HTTP conventions: 200 OK, 404 unknown path, 500
	// handler/database failure.
	Status int
	// Body is the rendered page.
	Body string
	// Err is the underlying failure for non-200 responses.
	Err error
	// Blocked reports that the database dropped a query (SEPTIC).
	Blocked bool
	// Queries lists the SQL statements the handler sent, in order (the
	// demo displays them).
	Queries []string
}

// HandlerFunc services one request.
type HandlerFunc func(ctx *Ctx)

// App is one web application: a named set of handlers over a database.
type App struct {
	// Name identifies the application in reports.
	Name     string
	db       Executor
	handlers map[string]HandlerFunc
}

// NewApp creates an application bound to a database.
func NewApp(name string, db Executor) *App {
	return &App{Name: name, db: db, handlers: make(map[string]HandlerFunc)}
}

// Handle registers a handler for path, replacing any previous one.
func (a *App) Handle(path string, h HandlerFunc) {
	a.handlers[path] = h
}

// Paths returns the registered paths, sorted (the attacker's crawler and
// SEPTIC's training module walk these).
func (a *App) Paths() []string {
	out := make([]string, 0, len(a.handlers))
	for p := range a.handlers {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Serve dispatches one request.
func (a *App) Serve(req Request) *Response {
	h, ok := a.handlers[req.Path]
	if !ok {
		return &Response{Status: 404, Err: fmt.Errorf("no handler for %s", req.Path)}
	}
	ctx := &Ctx{app: a, req: req, status: 200}
	h(ctx)
	resp := &Response{
		Status:  ctx.status,
		Body:    ctx.body.String(),
		Err:     ctx.err,
		Blocked: ctx.blocked,
		Queries: ctx.queries,
	}
	return resp
}

// Ctx is the per-request context handlers operate on.
type Ctx struct {
	app     *App
	req     Request
	body    strings.Builder
	status  int
	err     error
	blocked bool
	queries []string
}

// Param returns a request parameter ($_GET/$_POST access).
func (c *Ctx) Param(name string) string {
	return c.req.Params[name]
}

// HasParam reports whether the parameter was supplied at all.
func (c *Ctx) HasParam(name string) bool {
	_, ok := c.req.Params[name]
	return ok
}

// Write appends page output.
func (c *Ctx) Write(s string) {
	c.body.WriteString(s)
}

// Writef appends formatted page output.
func (c *Ctx) Writef(format string, args ...any) {
	fmt.Fprintf(&c.body, format, args...)
}

// Fail marks the request failed with an application-level error.
func (c *Ctx) Fail(status int, err error) {
	c.status = status
	c.err = err
}

// Query sends SQL to the database, recording it for the demo display and
// translating a SEPTIC block into a 403 page ("the attack is blocked,
// the query is dropped... This action is visible in the browser").
func (c *Ctx) Query(sql string) (*engine.Result, error) {
	c.queries = append(c.queries, sql)
	return c.finish(c.app.db.Exec(sql))
}

// QueryArgs is the prepared-statement variant of Query.
func (c *Ctx) QueryArgs(sql string, args ...engine.Value) (*engine.Result, error) {
	c.queries = append(c.queries, sql)
	return c.finish(c.app.db.ExecArgs(sql, args...))
}

func (c *Ctx) finish(res *engine.Result, err error) (*engine.Result, error) {
	if err != nil {
		if errors.Is(err, engine.ErrQueryBlocked) {
			c.blocked = true
			c.status = 403
			c.err = err
			return nil, err
		}
		c.status = 500
		c.err = err
		return nil, err
	}
	return res, nil
}
