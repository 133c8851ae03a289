package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/septic-db/septic/internal/attacks"
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/obs"
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

// TestCacheOnEqualsCacheOff: the parse cache and the verdicts kept in its
// entries change what a query costs, never what happens to it. Three
// deployments — a 16-entry parse cache with memoization on, so entries are
// refused, admitted and evicted within a few hundred steps while the
// verdicts in them are live; no parse cache but memoization on, so there
// is never a slot; and both off, the reference — are driven through one
// seeded sequence of statements as the application sends them, bound
// values included (trained, untrained, literal-only variants, the attack
// corpus, prepared statements whose values change type, go NULL or carry a
// plugin's payload), from three tenants: the default domain and two
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
		d.db = engine.New(engine.WithQueryHook(d.sep), engine.WithParseCacheCapacity(parseCap), engine.WithObs(d.hub))
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
	t.Logf("%d statements; both on: %+v", len(pool), stats)
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
	for _, d := range []deployment{off, slotless} {
		if c := d.sep.Stats().Cache; c.Hits != 0 || c.Misses == 0 {
			t.Errorf("%s: a guard with nowhere to keep a verdict served %+v", d.name, c)
		}
	}
}
