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

// waspmonTexts records the SQL WaspMon's pages send for the requests,
// against an unguarded engine so attack requests run to their end.
func waspmonTexts(t *testing.T, reqs []webapp.Request) []string {
	t.Helper()
	db := engine.New()
	for _, q := range apps.WaspMonSchema() {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("schema: %v", err)
		}
	}
	app := apps.NewWaspMon(db)
	var texts []string
	for _, req := range reqs {
		texts = append(texts, app.Serve(req).Queries...)
	}
	return texts
}

// TestCacheOnEqualsCacheOff: the parse and verdict caches change what a
// query costs, never what happens to it. Two deployments — both caches at
// 16 entries, so they fill, refuse, admit and evict within a few hundred
// steps, and both caches off — are driven through one seeded sequence of
// queries (trained, untrained, literal-only variants, the attack corpus)
// interleaved with training, model deletion and mode and configuration
// changes; every answer and every counter must agree at every step.
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
	pool := append([]string{
		// No page sends these: their identifiers are never trained.
		"SELECT COUNT(*) FROM devices",
		"SELECT name FROM devices WHERE maxWatts > 3000 ORDER BY name",
		"SELECT username FROM wm_users WHERE id = 1 OR 1 = 1",
		"SELECT nothing FROM nowhere",
		"SELEC syntax error",
	}, waspmonTexts(t, reqs)...)

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
			q := pool[rng.Intn(len(pool))]
			what = q
			resOn, errOn := on.db.Exec(q)
			resOff, errOff := off.db.Exec(q)
			if fmt.Sprint(errOn) != fmt.Sprint(errOff) {
				t.Fatalf("step %d %q: cache on answers %v, cache off %v", step, q, errOn, errOff)
			}
			if !reflect.DeepEqual(resOn, resOff) {
				t.Fatalf("step %d %q: cache on returns %+v, cache off %+v", step, q, resOn, resOff)
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
	t.Logf("%d texts; cache on: %+v", len(pool), stats)
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
