package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/septic-db/septic/internal/attacks"
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/obs"
	"github.com/septic-db/septic/internal/sqlparser"
	"github.com/septic-db/septic/internal/webapp"
	"github.com/septic-db/septic/internal/webapp/apps"
)

// call is one statement as an application hands it to the database: the
// text and, for a prepared statement, the values bound to it.
type call struct {
	text string
	args []engine.Value
}

// callRecorder is the webapp.Executor of an application under
// observation: it passes every statement on and keeps what it was given.
type callRecorder struct {
	db    *engine.DB
	calls []call
}

func (r *callRecorder) Exec(q string) (*engine.Result, error) {
	r.calls = append(r.calls, call{text: q})
	return r.db.Exec(q)
}

func (r *callRecorder) ExecArgs(q string, args ...engine.Value) (*engine.Result, error) {
	r.calls = append(r.calls, call{q, args})
	return r.db.ExecArgs(q, args...)
}

// waspmonCalls records the statements WaspMon's pages send for the
// requests, against an unguarded engine so attack requests run to their
// end.
func waspmonCalls(t *testing.T, reqs []webapp.Request) []call {
	t.Helper()
	rec := &callRecorder{db: engine.New()}
	for _, q := range apps.WaspMonSchema() {
		if _, err := rec.db.Exec(q); err != nil {
			t.Fatalf("schema: %v", err)
		}
	}
	app := apps.NewWaspMon(rec)
	for _, req := range reqs {
		app.Serve(req)
	}
	return rec.calls
}

// respell returns text as the DBMS reads it with every integer, float and
// string literal spelled anew: mostly in its own kind — so the text is one
// nobody has seen of a shape the caches may know — and one time in eight in
// another, which is what an injected value does to a trained query. n makes
// some of the spellings unique to the call.
func respell(rng *rand.Rand, text string, n int) string {
	spellings := [3][]string{
		{fmt.Sprint(rng.Intn(8)), fmt.Sprint(1000 + n), "-" + fmt.Sprint(rng.Intn(8)), fmt.Sprintf("-(%d)", rng.Intn(8)), "- 2",
			"9223372036854775808", "-9223372036854775808", "18446744073709551616", "007"},
		{fmt.Sprintf("%d.5", rng.Intn(4000)), ".5", "2.5e3", "1e-3", "-0.0", "1e999"},
		{"'oven'", "'kitchen'", fmt.Sprintf("'unit-%d'", n), "'O''Brien'", `'a\'b\\'`, "'%e%'", "'k_tchen'", `'100\%'`, "''", `"ev-charger"`,
			"0x6f76656e", "'ID34FG\u02bc'", "'<script>alert(1)</script>'", "'http://evil.example/x.php'"},
	}
	return respellWith(sqlparser.DecodeCharset(text), func(kind int) string {
		if rng.Intn(8) == 0 {
			kind = rng.Intn(3)
		}
		return spellings[kind][rng.Intn(len(spellings[kind]))]
	})
}

// respellWith returns text with each literal spelled as spell says for its
// token kind: 0 for an integer, 1 for a float, 2 for a string.
func respellWith(text string, spell func(kind int) string) string {
	toks, err := sqlparser.Tokenize(text)
	if err != nil {
		return text
	}
	var b strings.Builder
	from := 0
	for i, tok := range toks {
		var kind int
		switch tok.Kind {
		case sqlparser.TokenInt:
		case sqlparser.TokenFloat:
			kind = 1
		case sqlparser.TokenString:
			kind = 2
		default:
			continue
		}
		b.WriteString(text[from:tok.Pos])
		b.WriteString(spell(kind))
		// The literal ends where the blanks before the next token begin.
		from = len(strings.TrimRight(text[:toks[i+1].Pos], " \t\r\n"))
	}
	b.WriteString(text[from:])
	return b.String()
}

// TestCacheOnEqualsCacheOff: the parse cache and the verdicts kept in its
// entries change what a query costs, never what happens to it. Three
// deployments — a 16-entry parse cache, one entry per shard and the
// smallest there is, with memoization on, so entries are refused, admitted
// and evicted within a few hundred steps while the verdicts in them are
// live; no parse cache but memoization on, so there is never a slot; and
// both off, the reference — are driven through one seeded sequence of
// statements as the application sends them, bound values included
// (trained, untrained, literal-only variants, the attack corpus, prepared
// statements whose values change type, go NULL or carry a plugin's payload
// — and, every other time, a text sent with its literals respelled: a text
// never seen, which the full parse cache refuses and the engine serves from
// its shape's template with the text's own values and, unless it writes
// them, the verdict the template's slot keeps, if the cache has or takes
// the shape), from three tenants: the default domain and two
// HELLO-bound ones whose models differ, so the same text in the same entry
// is benign for one and an attack for the other. Training, model deletion
// and mode and configuration changes, each on one domain, are interleaved;
// every answer and every counter of every domain must agree with the
// reference at every step.
func TestCacheOnEqualsCacheOff(t *testing.T) {
	reqs := append(apps.WaspMonTraining(), apps.WaspMonWorkload()...)
	reqs = append(reqs, attacks.Benign()...)
	for i := 2; i < 12; i++ { // literal-only variants of trained pages
		reqs = append(reqs,
			webapp.Request{Path: "/user/profile", Params: map[string]string{"id": fmt.Sprint(i)}},
			webapp.Request{Path: "/device/view", Params: map[string]string{"name": fmt.Sprintf("unit-%d", i)}})
	}
	for _, c := range attacks.Corpus() {
		reqs = append(append(reqs, c.Setup...), c.Request)
	}
	for _, p := range storedPayloads { // one text, values of every verdict
		reqs = append(reqs, register2("mallory", p.notes), register2("carol", "likes graphs"))
	}
	const register2Text = "/* waspmon:register2 */ INSERT INTO wm_users (username, email, notes) VALUES (?, ?, ?)"
	const byID = "SELECT username FROM wm_users WHERE id = ?" // learned by whichever call comes first in a learning mode
	// One identifier, two structures: north is trained on the first and
	// south on the second, so each text is one tenant's model and the
	// other's tautology attack.
	const plainID, tautID = "SELECT username FROM wm_users WHERE id = 1", "SELECT username FROM wm_users WHERE id = 1 OR 1 = 1"
	pool := append([]call{
		// No page sends these: their identifiers are never trained.
		{text: "SELECT COUNT(*) FROM devices"},
		{text: "SELECT name FROM devices WHERE maxWatts > 3000 ORDER BY name"},
		{text: plainID},
		{text: tautID},
		{text: "SELECT nothing FROM nowhere"},
		{text: "SELEC syntax error"},
		// Every clause a literal can stand in as a value, and a sign before it.
		{text: "SELECT name FROM devices WHERE name LIKE '%e%' AND location NOT LIKE 'k_tchen'"},
		{text: "SELECT name FROM devices WHERE id IN (1, 2, 3) AND maxWatts BETWEEN 1000 AND 5000"},
		{text: "SELECT ts, watts FROM readings WHERE watts > 1300.5 OR device_id = -1 ORDER BY ts LIMIT 1, 2"},
		{text: "INSERT INTO readings (device_id, ts, watts) VALUES (2, 500, 10.5), (3, 600, -7)"},
		{text: "UPDATE devices SET maxWatts = maxWatts + 1, location = 'attic' WHERE id = 2"},
		{text: "DELETE FROM readings WHERE ts > 450 AND watts < -(5) LIMIT 3"},
		// And where it is structure: these are never served from a template.
		{text: "SELECT name FROM devices ORDER BY 1"},
		{text: "SELECT location, COUNT(*) FROM devices GROUP BY 1"},
		{text: "SELECT name, 'w', maxWatts + 1 FROM devices WHERE id = 2"},
		{text: "DESCRIBE devices"},
		// Values the pages never bind: another type, NULL, too few, none.
		{register2Text, []engine.Value{engine.Int(7), engine.Str("n@example.com"), engine.Null()}},
		{register2Text, []engine.Value{engine.Str("eve"), engine.Str("e@example.com"), engine.Str("`id`")}},
		{register2Text, []engine.Value{engine.Str("short")}},
		{text: register2Text},
		{byID, []engine.Value{engine.Int(1)}},
		{byID, []engine.Value{engine.Int(2)}},
		{byID, []engine.Value{engine.Str("1 OR 1=1")}},
		{byID, []engine.Value{engine.Float(1.5)}},
		{byID, []engine.Value{engine.Null()}},
	}, waspmonCalls(t, reqs)...)
	// Every tenant learns every page; north the plain lookup as well, south
	// the tautology. The two have learned equally often, so their generation
	// stamps are equal too and nothing but the tag on a verdict tells whose
	// it is.
	training := waspmonCalls(t, apps.WaspMonTraining())
	tenants := []string{DefaultDomain, "north", "south"}
	lessons := map[string][]call{
		DefaultDomain: training,
		"north":       append(slices.Clone(training), call{text: plainID}),
		"south":       append(slices.Clone(training), call{text: tautID}),
	}
	ctx := context.Background()
	type deployment struct {
		name string
		db   *engine.DB
		sep  *Septic
		hook *judge
		hub  *obs.Hub
	}
	// exec sends one call as tenant app; the default tenant declares none.
	exec := func(d deployment, app string, c call) (*engine.Result, error) {
		if app == DefaultDomain {
			app = ""
		}
		return d.db.ExecAppContext(ctx, app, c.text, c.args...)
	}
	deploy := func(name string, parseCap, verdictCap int) deployment {
		d := deployment{name: name, hub: obs.NewHub()}
		d.sep = New(Config{Mode: ModeTraining}, WithVerdictCacheCapacity(verdictCap))
		d.hook = &judge{sep: d.sep}
		d.db = engine.New(engine.WithQueryHook(d.hook), engine.WithParseCacheCapacity(parseCap), engine.WithObs(d.hub))
		for _, q := range apps.WaspMonSchema() {
			if _, err := d.db.Exec(q); err != nil {
				t.Fatalf("schema: %v", err)
			}
		}
		for _, app := range tenants[1:] {
			mustDomain(t, d.sep, app)
		}
		for _, app := range tenants {
			for _, c := range lessons[app] {
				// The tenants share the tables, so a page's INSERT may fail
				// on its second run; the guard learned it before that.
				if _, err := exec(d, app, c); errors.Is(err, engine.ErrQueryBlocked) {
					t.Fatalf("training %q in %s: %v", c.text, app, err)
				}
			}
		}
		for _, dom := range d.sep.Domains() {
			dom.SetConfig(DefaultConfig())
		}
		return d
	}
	off := deploy("both off", 0, 0)
	on, slotless := deploy("both on", 16, 1), deploy("no parse cache, memoization on", 0, 1)
	all, cached := []deployment{off, on, slotless}, []deployment{on, slotless}

	// agree sends one call to every deployment and holds each answer to the
	// reference's.
	agree := func(step int, app string, c call) (*engine.Result, error) {
		want, wantErr := exec(off, app, c)
		for _, d := range cached {
			got, err := exec(d, app, c)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("step %d %s %q %v: %s answers %v, the reference %v", step, app, c.text, c.args, d.name, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d %s %q %v: %s returns %+v, the reference %+v", step, app, c.text, c.args, d.name, got, want)
			}
		}
		return want, wantErr
	}
	hits := func(app string) int64 {
		dom, _ := on.sep.Domain(app)
		return dom.CacheStats().Hits
	}

	// The seam in the open before the generator hides it: the two tenants
	// alternate on each of the two texts, four sights each (the first may
	// be the one a full parse cache refuses). From its second sight of its
	// own model on a tenant is served from the slot, and a slot holding
	// the other tenant's benign verdict never admits its attack.
	for _, c := range []call{{text: plainID}, {text: tautID}} {
		for sight := 0; sight < 4; sight++ {
			for _, app := range tenants[1:] {
				benign := (app == "north") == (c.text == plainID)
				if _, err := agree(-1, app, c); benign == errors.Is(err, engine.ErrQueryBlocked) {
					t.Fatalf("sight %d of %q in %s: err = %v; benign there: %t", sight, c.text, app, err, benign)
				}
			}
		}
	}
	if hits("north") < 2 || hits("south") < 2 {
		t.Fatalf("a tenant was not served its own model's verdict from the shared entry: north %d hits, south %d, want 2 or 3 each",
			hits("north"), hits("south"))
	}

	rng := rand.New(rand.NewSource(25))
	for step := 0; step < 4000; step++ {
		app := tenants[rng.Intn(len(tenants))]
		var what string
		switch n := rng.Intn(100); {
		case n < 95:
			c := pool[rng.Intn(len(pool))]
			if c.args == nil && rng.Intn(2) == 0 {
				// Two spellings in a row: the second sight of a shape is
				// the one a full cache admits.
				first := call{text: respell(rng, c.text, step)}
				agree(step, app, first)
				c.text = respell(rng, c.text, -step)
			}
			what = fmt.Sprintf("%s %q %v", app, c.text, c.args)
			agree(step, app, c)
		case n < 96:
			dom, _ := off.sep.Domain(app)
			ids := dom.Store().IDs()
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			what = "delete " + id + " in " + app
			for _, d := range all {
				dom, _ := d.sep.Domain(app)
				dom.Store().Delete(id)
			}
		case n < 98:
			mode := []Mode{ModeTraining, ModePrevention, ModeDetection}[rng.Intn(3)]
			what = app + " mode " + mode.String()
			for _, d := range all {
				dom, _ := d.sep.Domain(app)
				dom.SetMode(mode)
			}
		default:
			cfg := Config{
				Mode:                []Mode{ModePrevention, ModePrevention, ModeDetection}[rng.Intn(3)],
				DetectSQLI:          rng.Intn(4) > 0,
				DetectStored:        rng.Intn(4) > 0,
				IncrementalLearning: rng.Intn(2) > 0,
			}
			what = fmt.Sprintf("%s config %+v", app, cfg)
			for _, d := range all {
				dom, _ := d.sep.Domain(app)
				dom.SetConfig(cfg)
			}
		}
		for _, d := range cached {
			for _, app := range tenants {
				dom, _ := d.sep.Domain(app)
				ref, _ := off.sep.Domain(app)
				got, want := dom.Stats(), ref.Stats()
				got.Cache, want.Cache = CacheStats{}, CacheStats{}
				if got != want {
					t.Fatalf("step %d %s: %s counts %+v in %s, the reference %+v", step, what, d.name, got, app, want)
				}
				if !reflect.DeepEqual(dom.Store().IDs(), ref.Store().IDs()) {
					t.Fatalf("step %d %s: %s and the reference hold different identifiers in %s", step, what, d.name, app)
				}
			}
		}
	}

	stats := on.sep.Stats()
	t.Logf("%d statements; both on: %+v, %d verdicts from a shape's slot", len(pool), stats, on.hook.fromShape)
	if stats.AttacksBlocked == 0 || stats.QueriesChecked == 0 || stats.NewQueries == 0 {
		t.Errorf("the sequence blocked, checked or learned nothing: %+v", stats)
	}
	for _, app := range tenants {
		dom, _ := on.sep.Domain(app)
		if c := dom.CacheStats(); c.Hits == 0 || c.Invalidations == 0 {
			t.Errorf("%s was never served a verdict, or never found one stale: %+v", app, c)
		}
	}
	// The bound, the refusals and the evictions are the parse cache's: its
	// entries went, verdicts and all, and came back.
	g := on.hub.Metrics.Snapshot().Gauges
	if g["engine.parse_cache.refused"] == 0 || g["engine.parse_cache.evictions"] == 0 {
		t.Errorf("the parse cache never refused or never evicted: %v", g)
	}
	// New texts went both ways: served from their shape's template, and
	// run alone because a literal of theirs is structure, they have no
	// shape, or the full cache refused their shape.
	h := on.hub.Metrics.Snapshot().Histograms
	if h["engine.stage.parse.shape_hit"].Count == 0 || g["engine.parse_cache.unshareable"] == 0 {
		t.Errorf("no text was served from a template, or none ran alone: %d shape hits, %v", h["engine.stage.parse.shape_hit"].Count, g)
	}
	if on.hook.fromShape == 0 {
		t.Error("no respelled text was served the verdict of its shape's slot")
	}
	if h := slotless.hub.Metrics.Snapshot().Histograms; h["engine.stage.parse.shape_hit"].Count != 0 || h["engine.stage.parse.cache_hit"].Count != 0 {
		t.Errorf("a deployment without a parse cache found a text or a shape: %+v", h)
	}
	for _, d := range []deployment{off, slotless} {
		if c := d.sep.Stats().Cache; c.Hits != 0 || c.Misses == 0 {
			t.Errorf("%s: a guard with nowhere to keep a verdict served %+v", d.name, c)
		}
	}
}
