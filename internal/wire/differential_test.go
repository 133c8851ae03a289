package wire

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/septic-db/septic/internal/attacks"
	"github.com/septic-db/septic/internal/benchlab"
	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/obs"
	"github.com/septic-db/septic/internal/webapp"
)

// stmt is one recorded SQL statement with its bound arguments.
type stmt struct {
	sql  string
	args []engine.Value
	// nonFinite marks the one divergence between the framings that is
	// written down: the statement's result holds a float JSON has no
	// literal for, so v1 answers with an error where v2 carries the value.
	nonFinite bool
}

// stmtRecorder is the applications' executor while the stream is being
// recorded: it notes every statement an application issues, then runs
// it.
type stmtRecorder struct {
	db     *engine.DB
	stream []stmt
}

func (r *stmtRecorder) Exec(q string) (*engine.Result, error) {
	r.stream = append(r.stream, stmt{sql: q})
	return r.db.Exec(q)
}

func (r *stmtRecorder) ExecArgs(q string, args ...engine.Value) (*engine.Result, error) {
	r.stream = append(r.stream, stmt{sql: q, args: append([]engine.Value(nil), args...)})
	return r.db.ExecArgs(q, args...)
}

// nonFiniteStatements overflow to +Inf and to NaN. Every deployment
// learns them in training, so in prevention they are benign.
var nonFiniteStatements = []string{"SELECT 1e308 * 10", "SELECT 1e308*10 - 1e308*10"}

// diffDeployment builds one fresh deployment: Address Book and WaspMon
// loaded and trained in-process, then switched to prevention. wrap, when
// set, interposes on the applications' executor. Every call yields the
// same state, which is what lets three of them stand in for one.
func diffDeployment(t *testing.T, wrap func(*engine.DB) webapp.Executor, opts ...engine.Option) (*engine.DB, []*webapp.App) {
	t.Helper()
	guard := core.New(core.Config{Mode: core.ModeTraining})
	db := engine.New(append(opts, engine.WithQueryHook(guard))...)
	var exec webapp.Executor = db
	if wrap != nil {
		exec = wrap(db)
	}
	var built []*webapp.App
	for _, spec := range []benchlab.AppSpec{benchlab.PaperSpecs()[0], benchlab.WaspMonSpec()} {
		for _, q := range spec.Schema {
			if _, err := db.Exec(q); err != nil {
				t.Fatalf("%s schema: %v", spec.Name, err)
			}
		}
		app := spec.Build(exec)
		for _, req := range spec.Training {
			if resp := app.Serve(req.Clone()); resp.Status != 200 {
				t.Fatalf("%s training %s: %v", spec.Name, req, resp.Err)
			}
		}
		built = append(built, app)
	}
	for _, q := range nonFiniteStatements {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("training %q: %v", q, err)
		}
	}
	guard.SetConfig(core.Config{Mode: core.ModePrevention, DetectSQLI: true, DetectStored: true})
	return db, built
}

// diffStream records the statement stream both framings are fed: the
// applications' recorded workloads (bound arguments included), every
// labelled attack of internal/attacks served through WaspMon's pages,
// then a statement that does not parse, an empty one, and two whose
// results are ±Inf and NaN.
func diffStream(t *testing.T) []stmt {
	t.Helper()
	var rec *stmtRecorder
	_, built := diffDeployment(t, func(db *engine.DB) webapp.Executor {
		rec = &stmtRecorder{db: db}
		return rec
	})
	rec.stream = nil // training is state, not stream
	ab, waspmon := built[0], built[1]
	for _, req := range benchlab.PaperSpecs()[0].Workload {
		ab.Serve(req.Clone())
	}
	for _, req := range benchlab.WaspMonSpec().Workload {
		waspmon.Serve(req.Clone())
	}
	benign := len(rec.stream)
	for _, c := range attacks.Corpus() {
		for _, req := range c.Setup {
			waspmon.Serve(req.Clone())
		}
		waspmon.Serve(c.Request.Clone())
	}
	if benign == 0 || len(rec.stream) == benign {
		t.Fatalf("recorded %d workload and %d attack statements", benign, len(rec.stream)-benign)
	}
	return append(rec.stream, stmt{sql: "SELEC id FRM nowhere WHERE"}, stmt{sql: ""},
		stmt{sql: nonFiniteStatements[0], nonFinite: true}, stmt{sql: nonFiniteStatements[1], nonFinite: true})
}

// wireOutcome is everything a client can tell about one answer.
type wireOutcome struct {
	res     *engine.Result // columns, rows, affected, last insert id
	errText string
	blocked bool
}

func outcomeOf(res *engine.Result, err error) wireOutcome {
	o := wireOutcome{res: res, blocked: errors.Is(err, ErrServerBlocked)}
	if err != nil {
		o.errText = err.Error()
	}
	return o
}

// nonFiniteScalar reports whether res is one cell holding ±Inf or NaN.
func nonFiniteScalar(res *engine.Result) bool {
	if res == nil || len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return false
	}
	f := res.Rows[0][0].F
	return math.IsInf(f, 0) || math.IsNaN(f)
}

// TestV1V2Differential: the framing is not allowed to matter. The same
// statement stream through a synchronous JSON session and through a
// pipelined binary session, each against its own identical deployment,
// must be answered identically statement by statement — but for the
// statements marked nonFinite, whose divergence is pinned instead.
func TestV1V2Differential(t *testing.T) {
	snapshotGoroutines(t)
	stream := diffStream(t)

	clients := make([]*Client, 2)
	for i, opts := range [][]ClientOption{nil, {WithPipeline(8)}} {
		db, _ := diffDeployment(t, nil)
		srv := NewServer(db)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		clients[i] = dialOpts(t, addr, opts...)
		if got := clients[i].ProtocolVersion(); got != i+1 {
			t.Fatalf("client %d negotiated v%d, want v%d", i, got, i+1)
		}
	}

	var blocked, failed int
	for i, s := range stream {
		v1 := outcomeOf(clients[0].ExecArgs(s.sql, s.args...))
		v2 := outcomeOf(clients[1].ExecArgs(s.sql, s.args...))
		if s.nonFinite {
			want := wireOutcome{errText: jsonUnrepresentable + errNonFinite.Error()}
			if !reflect.DeepEqual(v1, want) || v2.errText != "" || !nonFiniteScalar(v2.res) {
				t.Errorf("statement %d %q: v1 %+v, v2 %+v %+v; want v1's not-representable error and v2's value",
					i, s.sql, v1, v2, v2.res)
			}
			continue
		}
		if !reflect.DeepEqual(v1, v2) {
			t.Errorf("statement %d %q args %v:\n v1: %+v %+v\n v2: %+v %+v",
				i, s.sql, s.args, v1, v1.res, v2, v2.res)
		}
		switch {
		case v1.blocked:
			blocked++
		case v1.errText != "":
			failed++
		}
	}
	// The stream must have reached every kind of answer it was built for.
	if ok := len(stream) - blocked - failed; ok == 0 || blocked == 0 || failed < 2 {
		t.Errorf("stream of %d: %d answered, %d blocked, %d failed — want some of each",
			len(stream), ok, blocked, failed)
	}
}

// TestBoundValuesOverTheWire: a prepared statement's verdict is its
// values', over either framing as in-process. One text goes through
// Request.Args with a benign value, then with one payload per
// stored-injection plugin, then benign again: each call is answered as the
// same call made on the engine directly — the payloads blocked, typed
// ErrServerBlocked — and the session goes on.
func TestBoundValuesOverTheWire(t *testing.T) {
	snapshotGoroutines(t)
	const register2 = "/* waspmon:register2 */ INSERT INTO wm_users (username, email, notes) VALUES (?, ?, ?)"
	notes := []string{"likes graphs", "<script>alert(document.cookie)</script>", "http://evil/x.php", "done; rm -rf uploads", "likes charts"}
	for version, opts := range [][]ClientOption{nil, {WithPipeline(8)}} {
		ref, _ := diffDeployment(t, nil)
		db, _ := diffDeployment(t, nil)
		srv := NewServer(db)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		client := dialOpts(t, addr, opts...)
		blocked := 0
		for i, n := range notes {
			args := []engine.Value{engine.Str("user"), engine.Str("u@example.com"), engine.Str(n)}
			want, wantErr := ref.ExecArgs(register2, args...)
			got := outcomeOf(client.ExecArgs(register2, args...))
			if got.blocked != errors.Is(wantErr, engine.ErrQueryBlocked) || (got.errText == "") != (wantErr == nil) || fmt.Sprint(got.res) != fmt.Sprint(want) { // Sprint: nil and empty slices are one
				t.Errorf("v%d call %d, notes %q: over the wire %+v %+v, in-process %+v %v", version+1, i, n, got, got.res, want, wantErr)
			}
			if got.blocked {
				blocked++
			}
		}
		if blocked != 3 {
			t.Errorf("v%d: %d of the 3 payloads blocked", version+1, blocked)
		}
		const count = "SELECT COUNT(*) FROM wm_users"
		if got, want := outcomeOf(client.Exec(count)), outcomeOf(ref.Exec(count)); !reflect.DeepEqual(got, want) || got.res.Rows[0][0].I != 5 {
			t.Errorf("v%d after the sequence: %s over the wire %+v %+v, in-process %+v %+v", version+1, count, got, got.res, want, want.res)
		}
	}
}

// TestLiteralValuesOverTheWire: a text the full parse cache refuses runs
// from its shape's template with its own literals bound, and its verdict is
// those literals', over either framing as in-process. Behind a 16-entry
// parse cache the training filled, the register and profile statements go
// out with literals nobody has sent — benign, a stored-injection payload, a
// string where the model has an integer, benign again: each is answered as
// the same text on the engine directly, the attacks typed ErrServerBlocked,
// all but the first text of a shape served from a warm template, and the
// session goes on. (1024 entries and 4000 texts to fill them: see
// core.TestBoundValuesReachTheVerdict for why that is deterministic.)
func TestLiteralValuesOverTheWire(t *testing.T) {
	snapshotGoroutines(t)
	const (
		register = "/* waspmon:register */ INSERT INTO wm_users (username, email, notes) VALUES ('user%d', 'u@example.com', '%s')"
		profile  = "/* waspmon:profile */ SELECT username, email FROM wm_users WHERE id = %s"
	)
	texts := []string{
		fmt.Sprintf(register, 1, "likes graphs"), fmt.Sprintf(profile, "2"),
		fmt.Sprintf(register, 2, "<script>alert(document.cookie)</script>"),
		fmt.Sprintf(profile, "'2'"), fmt.Sprintf(profile, "'2 OR 1=1'"),
		fmt.Sprintf(register, 3, "likes charts"), fmt.Sprintf(profile, "3"),
	}
	for version, opts := range [][]ClientOption{nil, {WithPipeline(8)}} {
		hub := obs.NewHub()
		ref, _ := diffDeployment(t, nil, engine.WithParseCacheCapacity(1024))
		db, _ := diffDeployment(t, nil, engine.WithParseCacheCapacity(1024), engine.WithObs(hub))
		for i := 0; i < 4002; i++ {
			q := fmt.Sprintf(profile, fmt.Sprint(1000+i))
			if i >= 4000 {
				q = fmt.Sprintf(register, i, "hi")
			}
			for _, d := range []*engine.DB{ref, db} {
				if _, err := d.Exec(q); err != nil {
					t.Fatalf("benign %s: %v", q, err)
				}
			}
		}
		before := hub.Metrics.Snapshot().Gauges
		srv := NewServer(db)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		client := dialOpts(t, addr, opts...)
		blocked := 0
		for i, q := range texts {
			want, wantErr := ref.Exec(q)
			got := outcomeOf(client.Exec(q))
			if got.blocked != errors.Is(wantErr, engine.ErrQueryBlocked) || (got.errText == "") != (wantErr == nil) || fmt.Sprint(got.res) != fmt.Sprint(want) {
				t.Errorf("v%d text %d %s: over the wire %+v %+v, in-process %+v %v", version+1, i, q, got, got.res, want, wantErr)
			}
			if got.blocked {
				blocked++
			}
		}
		if blocked != 3 {
			t.Errorf("v%d: %d texts blocked, want the payload and the two strings", version+1, blocked)
		}
		// Seven texts: one made the template of the profile with a string,
		// the others were served from a warm one.
		g := hub.Metrics.Snapshot().Gauges
		if hits, misses := g["engine.shape_cache.hits"]-before["engine.shape_cache.hits"], g["engine.shape_cache.misses"]-before["engine.shape_cache.misses"]; hits != 6 || misses != 1 {
			t.Errorf("v%d: %d shape hits and %d misses, want 6 and 1", version+1, hits, misses)
		}
	}
}
