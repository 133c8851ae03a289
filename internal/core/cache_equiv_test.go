package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/septic-db/septic/internal/attacks"
	"github.com/septic-db/septic/internal/engine"
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

// TestCacheOnEqualsCacheOff: the parse and verdict caches change what a
// query costs, never what happens to it. Two deployments — both caches at
// 16 entries, so they fill, refuse, admit and evict within a few hundred
// steps, and both caches off — are driven through one seeded sequence of
// statements as the application sends them, bound values included
// (trained, untrained, literal-only variants, the attack corpus, prepared
// statements whose values change type, go NULL or carry a plugin's
// payload) interleaved with training, model deletion and mode and
// configuration changes; every answer and every counter must agree at
// every step.
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
	pool := append([]call{
		// No page sends these: their identifiers are never trained.
		{text: "SELECT COUNT(*) FROM devices"},
		{text: "SELECT name FROM devices WHERE maxWatts > 3000 ORDER BY name"},
		{text: "SELECT username FROM wm_users WHERE id = 1 OR 1 = 1"},
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

	type deployment struct {
		db  *engine.DB
		sep *Septic
	}
	deploy := func(capacity int) deployment {
		sep := New(Config{Mode: ModeTraining}, WithVerdictCacheCapacity(capacity))
		db := engine.New(engine.WithQueryHook(sep), engine.WithParseCacheCapacity(capacity))
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
		return deployment{db, sep}
	}
	on, off := deploy(16), deploy(0)

	rng := rand.New(rand.NewSource(25))
	for step := 0; step < 4000; step++ {
		var what string
		switch n := rng.Intn(100); {
		case n < 95:
			c := pool[rng.Intn(len(pool))]
			what = fmt.Sprintf("%q %v", c.text, c.args)
			resOn, errOn := on.db.ExecArgs(c.text, c.args...)
			resOff, errOff := off.db.ExecArgs(c.text, c.args...)
			if fmt.Sprint(errOn) != fmt.Sprint(errOff) {
				t.Fatalf("step %d %s: cache on answers %v, cache off %v", step, what, errOn, errOff)
			}
			if !reflect.DeepEqual(resOn, resOff) {
				t.Fatalf("step %d %s: cache on returns %+v, cache off %+v", step, what, resOn, resOff)
			}
		case n < 96:
			ids := on.sep.Store().IDs()
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			what = "delete " + id
			on.sep.Store().Delete(id)
			off.sep.Store().Delete(id)
		case n < 98:
			mode := []Mode{ModeTraining, ModePrevention, ModeDetection}[rng.Intn(3)]
			what = "mode " + mode.String()
			on.sep.SetMode(mode)
			off.sep.SetMode(mode)
		default:
			cfg := Config{
				Mode:                []Mode{ModePrevention, ModePrevention, ModeDetection}[rng.Intn(3)],
				DetectSQLI:          rng.Intn(4) > 0,
				DetectStored:        rng.Intn(4) > 0,
				IncrementalLearning: rng.Intn(2) > 0,
			}
			what = fmt.Sprintf("config %+v", cfg)
			on.sep.SetConfig(cfg)
			off.sep.SetConfig(cfg)
		}
		sOn, sOff := on.sep.Stats(), off.sep.Stats()
		sOn.Cache, sOff.Cache = CacheStats{}, CacheStats{}
		if sOn != sOff {
			t.Fatalf("step %d %s: cache on counts %+v, cache off %+v", step, what, sOn, sOff)
		}
		if !reflect.DeepEqual(on.sep.Store().IDs(), off.sep.Store().IDs()) {
			t.Fatalf("step %d %s: the stores hold different identifiers", step, what)
		}
	}

	stats := on.sep.Stats()
	t.Logf("%d statements; cache on: %+v", len(pool), stats)
	if stats.AttacksBlocked == 0 || stats.QueriesChecked == 0 || stats.NewQueries == 0 {
		t.Errorf("the sequence blocked, checked or learned nothing: %+v", stats)
	}
	if c := stats.Cache; c.Hits == 0 || c.Refused == 0 || c.Evictions == 0 || c.Invalidations == 0 {
		t.Errorf("the verdict cache never hit, refused, evicted or invalidated: %+v", c)
	}
	if p := off.sep.Stats().Cache; p.Hits != 0 || p.Entries != 0 {
		t.Errorf("the cache that is off served %+v", p)
	}
}
