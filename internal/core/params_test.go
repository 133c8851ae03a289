package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/obs"
	"github.com/septic-db/septic/internal/qstruct"
	"github.com/septic-db/septic/internal/webapp"
	"github.com/septic-db/septic/internal/webapp/apps"
)

// trainedWaspMon deploys WaspMon over a guarded engine — on the shipped
// cache capacities unless opts say otherwise — trains it with the
// application's own training requests and switches the guard to the shipped
// configuration.
func trainedWaspMon(t *testing.T, opts ...engine.Option) (*webapp.App, *engine.DB, *Septic) {
	t.Helper()
	sep := New(Config{Mode: ModeTraining})
	db := engine.New(append(opts, engine.WithQueryHook(sep))...)
	for _, q := range apps.WaspMonSchema() {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("schema: %v", err)
		}
	}
	app := apps.NewWaspMon(db)
	for _, req := range apps.WaspMonTraining() {
		if resp := app.Serve(req); resp.Status != 200 {
			t.Fatalf("training %s: %v", req, resp.Err)
		}
	}
	sep.SetConfig(DefaultConfig())
	return app, db, sep
}

func register2(username, notes string) webapp.Request {
	return webapp.Request{Path: "/user/register2", Params: map[string]string{
		"username": username, "email": username + "@example.com", "notes": notes}}
}

// storedPayloads are values a prepared statement carries to the table
// untouched, one per plugin of the shipped chain.
var storedPayloads = []struct{ plugin, notes string }{
	{"stored-xss", "<script>alert(document.cookie)</script>"},
	{"file-inclusion", "http://evil/x.php"},
	{"command-injection", "done; rm -rf uploads"},
}

// servePayloads serves a benign /user/register2 and then one per plugin
// payload, and holds the answers to what a guard that reads the bound
// values gives: 200, then 403 naming the plugin, each attack counted.
func servePayloads(t *testing.T, app *webapp.App, sep *Septic) {
	t.Helper()
	if resp := app.Serve(register2("carol", "likes graphs")); resp.Status != 200 {
		t.Fatalf("benign register2: %d %v", resp.Status, resp.Err)
	}
	for i, p := range storedPayloads {
		resp := app.Serve(register2(fmt.Sprintf("mallory%d", i), p.notes))
		if resp.Status != 403 || !resp.Blocked {
			t.Errorf("%s payload in notes: status %d, blocked %v, err %v — stored",
				p.plugin, resp.Status, resp.Blocked, resp.Err)
			continue
		}
		if !strings.Contains(resp.Err.Error(), "septic stored-injection") {
			t.Errorf("%s payload: err = %v", p.plugin, resp.Err)
		}
		attacks := sep.Logger().Attacks()
		if len(attacks) != i+1 || attacks[i].Plugin != p.plugin {
			t.Errorf("%s payload: %d attacks logged, last by %q", p.plugin, len(attacks), attacks[len(attacks)-1].Plugin)
		}
	}
	if got := sep.Stats().AttacksFound; got != int64(len(storedPayloads)) {
		t.Errorf("AttacksFound = %d, want %d", got, len(storedPayloads))
	}
	if resp := app.Serve(register2("dave", "likes charts")); resp.Status != 200 {
		t.Errorf("benign register2 after the attacks: %d %v", resp.Status, resp.Err)
	}
}

// TestBoundValuesReachTheVerdict: on the shipped assembly — both caches
// at their default capacity — a prepared statement is judged on the
// values of this call, not on what an earlier call with the same text
// was found to be. Stored-injection payloads bound to a trained INSERT
// are blocked after a benign call has been admitted, and a bound value
// of another type than the trained one fails the model at its node.
func TestBoundValuesReachTheVerdict(t *testing.T) {
	app, db, sep := trainedWaspMon(t)
	servePayloads(t, app, sep)

	const byID = "/* waspmon:byid */ SELECT username FROM wm_users WHERE id = ?"
	sep.SetMode(ModeTraining)
	if _, err := db.ExecArgs(byID, engine.Int(1)); err != nil {
		t.Fatalf("training %s: %v", byID, err)
	}
	sep.SetConfig(DefaultConfig())
	found := sep.Stats().AttacksFound
	for i := 0; i < 2; i++ {
		if _, err := db.ExecArgs(byID, engine.Int(2)); err != nil {
			t.Fatalf("id = ? bound to an integer: %v", err)
		}
	}
	_, err := db.ExecArgs(byID, engine.Str("x"))
	const want = "node 3: got ⟨STRING_ITEM, x⟩, model expects ⟨INT_ITEM, ⊥⟩"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("id = ? bound to a string: err = %v, want a block at %q", err, want)
	}
	if got := sep.Stats().AttacksFound; got != found+1 {
		t.Errorf("AttacksFound moved by %d, want 1", got-found)
	}
	t.Run("literals through a warm template", literalValuesReachTheVerdict)
}

// literalValuesReachTheVerdict: a text the full parse cache refuses is
// served from its shape's template, and what it binds there are its own
// literals — so it is judged on them, every time, as a prepared statement is
// on its arguments. Behind a parse cache that training has filled, the
// register and profile pages' statements are sent with literals nobody has
// sent: benign ones pass, from the second on through the warm template; a
// stored-injection payload spelled in the text is blocked by its plugin,
// and a string where the model has an integer fails the model at its node —
// a literal's kind is part of the shape, so that text is of another shape,
// which the full cache refuses at its first sight, makes a template of at
// its second and serves from at its third.
func literalValuesReachTheVerdict(t *testing.T) {
	hub := obs.NewHub()
	// 1024 entries: a shard holds 64, so 4000 texts fill every shard (to
	// stay below 64 of a mean of 250 a shard would have to be 12 deviations
	// off) and a new shape is refused at its first sight and admitted at its
	// second, whatever its shard — which texts are served from a template
	// does not depend on the hash seed.
	_, db, sep := trainedWaspMon(t, engine.WithParseCacheCapacity(1024), engine.WithObs(hub))
	shapeHits := func() int64 { return hub.Metrics.Snapshot().Histograms["engine.stage.parse.shape_hit"].Count }
	const (
		register = "/* waspmon:register */ INSERT INTO wm_users (username, email, notes) VALUES ('%s', '%s@example.com', '%s')"
		profile  = "/* waspmon:profile */ SELECT username, email FROM wm_users WHERE id = %s"
	)
	for i := 0; i < 4002; i++ { // fill the parse cache, then warm the other template too
		q := fmt.Sprintf(profile, fmt.Sprint(1000+i))
		if i >= 4000 {
			q = fmt.Sprintf(register, fmt.Sprint("user", i), fmt.Sprint("user", i), "hi")
		}
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("benign %s: %v", q, err)
		}
	}
	const mismatch = "node 4: got ⟨STRING_ITEM, %s⟩, model expects ⟨INT_ITEM, ⊥⟩"
	for _, c := range []struct {
		text, want string
		warm       int64 // 1: the shape's template is there already
	}{
		{fmt.Sprintf(register, "mallory", "mallory", "<script>alert(document.cookie)</script>"), "septic stored-injection", 1},
		{fmt.Sprintf(register, "carol", "carol", "likes graphs"), "", 1},
		{fmt.Sprintf(profile, "'1'"), fmt.Sprintf(mismatch, "1"), 0},
		{fmt.Sprintf(profile, "'1 OR 1=1'"), fmt.Sprintf(mismatch, "1 OR 1=1"), 0},
		{fmt.Sprintf(profile, "'7'"), fmt.Sprintf(mismatch, "7"), 1},
		{fmt.Sprintf(profile, "41"), "", 1},
	} {
		hits, found := shapeHits(), sep.Stats().AttacksFound
		_, err := db.Exec(c.text)
		if (c.want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: err = %v, want %q", c.text, err, c.want)
		}
		if got := sep.Stats().AttacksFound - found; (got == 1) != (c.want != "") {
			t.Errorf("%s: AttacksFound moved by %d", c.text, got)
		}
		if got := shapeHits() - hits; got != c.warm {
			t.Errorf("%s: %d shape hits, want %d", c.text, got, c.warm)
		}
	}
}

// paramCorpus is every parameterized statement the four applications and
// the examples send — WaspMon's /user/register2 is the only one — and the
// clauses a placeholder can stand in, each with the kinds of value a call
// can bind.
var paramCorpus = []struct {
	text string
	args []engine.Value
}{
	{"/* waspmon:register2 */ INSERT INTO wm_users (username, email, notes) VALUES (?, ?, ?)",
		[]engine.Value{engine.Str("bob"), engine.Str("b@example.com"), engine.Str("hey")}},
	{"/* waspmon:register2 */ INSERT INTO wm_users (username, email, notes) VALUES (?, ?, ?)",
		[]engine.Value{engine.Int(7), engine.Str("<script>x</script>"), engine.Null()}},
	{"SELECT name FROM t WHERE id = ?", []engine.Value{engine.Int(1)}},
	{"SELECT name FROM t WHERE id = ?", []engine.Value{engine.Str("x' OR '1'='1")}},
	{"SELECT name FROM t WHERE id = ?", []engine.Value{engine.Float(1.5)}},
	{"SELECT name FROM t WHERE id = ?", []engine.Value{engine.Null()}},
	{"SELECT name FROM t WHERE ? = id", []engine.Value{engine.Bool(true)}},
	{"SELECT name FROM t WHERE id = ?", []engine.Value{{}}},
	{"UPDATE t SET name = ?, n = n + ? WHERE id = ? ORDER BY n LIMIT ?",
		[]engine.Value{engine.Str("new"), engine.Int(2), engine.Int(1), engine.Int(3)}},
	{"DELETE FROM t WHERE name LIKE ? AND n BETWEEN ? AND ? ORDER BY ? DESC",
		[]engine.Value{engine.Str("%a%"), engine.Int(1), engine.Float(9.5), engine.Int(1)}},
	{"SELECT name FROM t WHERE n IN (?, ?, 3) AND id NOT IN (SELECT id FROM t WHERE f > ?)",
		[]engine.Value{engine.Int(1), engine.Str("2"), engine.Float(0.5)}},
	{"SELECT (SELECT ? FROM t LIMIT 1), CASE WHEN n > ? THEN ? ELSE 'x' END FROM t WHERE EXISTS (SELECT 1 FROM t WHERE note = ?)",
		[]engine.Value{engine.Int(1), engine.Int(2), engine.Str("big"), engine.Str("n")}},
	{"INSERT INTO t (id, name) VALUES (?, ?), (?, 'lit')",
		[]engine.Value{engine.Int(10), engine.Str("ten"), engine.Int(11)}},
	{"INSERT INTO t (id, name) SELECT id + ?, name FROM t WHERE n = ?",
		[]engine.Value{engine.Int(100), engine.Int(-1)}},
	{"SELECT a.name FROM t a JOIN t b ON a.id = b.n + ? WHERE a.n > ? GROUP BY a.name, ? HAVING COUNT(*) > ? ORDER BY a.name LIMIT ? OFFSET ?",
		[]engine.Value{engine.Int(1), engine.Int(0), engine.Int(1), engine.Int(0), engine.Int(5), engine.Int(0)}},
	{"SELECT name FROM t WHERE n = ? UNION ALL SELECT name FROM (SELECT name FROM t WHERE f = ?) d",
		[]engine.Value{engine.Int(1), engine.Float(2.5)}},
	{"SELECT name FROM t WHERE n = -? OR NOT (note IS NULL) OR UPPER(name) = CONCAT(?, ?)",
		[]engine.Value{engine.Int(4), engine.Str("A"), engine.Bool(false)}},
}

// stackRecorder is a query hook that renders what the guard would see of
// each statement: its identifier and its query structure.
type stackRecorder struct{ out strings.Builder }

func (r *stackRecorder) BeforeExecute(ctx *engine.HookContext) error {
	fmt.Fprintf(&r.out, "id    %s\nstack\n", NewIDGenerator().ID(ctx.Stmt, ctx.Comments))
	for _, line := range strings.Split(qstruct.BuildStack(ctx.Stmt, ctx.Args...).String(), "\n") {
		fmt.Fprintf(&r.out, "  | %s |\n", line)
	}
	return nil
}

// TestParameterizedStacksMatchParent: no model moves. The golden file was
// recorded at the parent of the change that stopped binding arguments
// into a copy of the AST — there the hook was handed the bound copy — and
// the identifier and the query structure built from the shared AST and
// the call's values are the same, node for node, so every trained model
// and every WAL directory keeps matching.
func TestParameterizedStacksMatchParent(t *testing.T) {
	rec := new(stackRecorder)
	db := engine.New(engine.WithQueryHook(rec))
	schema := append(apps.WaspMonSchema(),
		"CREATE TABLE t (id INT PRIMARY KEY, name TEXT UNIQUE, n INT, f FLOAT, note TEXT)")
	for _, q := range schema {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("schema: %v", err)
		}
	}
	rec.out.Reset()
	for _, c := range paramCorpus {
		fmt.Fprintf(&rec.out, "text  %s\nargs  %v\n", c.text, c.args)
		before := rec.out.Len()
		_, err := db.ExecArgs(c.text, c.args...) // what execution makes of it is the engine's tests' business
		if rec.out.Len() == before {
			t.Fatalf("%s never reached the hook: %v", c.text, err)
		}
		rec.out.WriteString("\n")
	}
	path := filepath.Join("testdata", "params", "stacks.parent.golden")
	if *update {
		mustWrite(t, path, []byte(rec.out.String()))
		return
	}
	if got, want := rec.out.String(), string(mustRead(t, path)); got != want {
		t.Errorf("parameterized query structures moved\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestParentTrainedModelsStillMatch boots a guard from a -models seed
// that the parent's binary saved after WaspMon's training requests —
// /user/register2 among them, learned there from a bound copy of the AST
// — and serves the application: benign registrations match the old
// model, the payloads are blocked.
func TestParentTrainedModelsStillMatch(t *testing.T) {
	sep := New(DefaultConfig())
	if err := sep.Store().Load(filepath.Join("testdata", "params", "waspmon.parent.models.json")); err != nil {
		t.Fatal(err)
	}
	db := engine.New(engine.WithQueryHook(sep))
	for _, q := range apps.WaspMonSchema() {
		if _, err := db.Exec(q); err != nil { // DDL identifiers were trained too
			t.Fatalf("schema: %v", err)
		}
	}
	app := apps.NewWaspMon(db)
	for _, req := range apps.WaspMonWorkload() {
		if resp := app.Serve(req); resp.Status != 200 {
			t.Errorf("workload %s under the parent's models: %d %v", req, resp.Status, resp.Err)
		}
	}
	servePayloads(t, app, sep)
	if s := sep.Stats(); s.NewQueries != 0 || s.ModelsLearned != 0 {
		t.Errorf("the seed did not cover the application: %+v", s)
	}
}
