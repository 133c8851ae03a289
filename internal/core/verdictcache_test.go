package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/obs"
)

// TestVerdictCacheServesRepeats: a byte-identical repeat of a checked
// benign query is served from the cache, with counters staying exact.
func TestVerdictCacheServesRepeats(t *testing.T) {
	db, sep := newProtectedDB(t, Config{Mode: ModeTraining})
	benign := fmt.Sprintf(ticketsLookup, "ID34FG", "1234")
	train(t, db, sep, []string{benign})
	sep.SetConfig(DefaultConfig())

	const repeats = 10
	for i := 0; i < repeats; i++ {
		if _, err := db.Exec(benign); err != nil {
			t.Fatalf("repeat %d: %v", i, err)
		}
	}
	cs := sep.CacheStats()
	if cs.Hits != repeats-1 {
		t.Errorf("cache hits = %d, want %d", cs.Hits, repeats-1)
	}
	// The cached path must keep the per-query audit trail: every passed
	// check is counted (and, with a stream attached, recorded).
	if got := sep.Stats().QueriesChecked; got != repeats {
		t.Errorf("QueriesChecked = %d, want %d", got, repeats)
	}
	// And the admin usage report stays exact: one store hit per execution.
	for _, u := range sep.Store().UsageReport() {
		if u.ID != "" && u.Hits >= repeats {
			return
		}
	}
	t.Errorf("no identifier recorded %d hits in the usage report", repeats)
}

// TestVerdictCacheNeverCachesAttacks: an injected variant of a cached
// benign query is a different byte string, so it never matches the memo;
// and the attack itself is re-detected (and re-logged) on every attempt,
// never served from cache.
func TestVerdictCacheNeverCachesAttacks(t *testing.T) {
	db, sep := newProtectedDB(t, Config{Mode: ModeTraining})
	benign := fmt.Sprintf(ticketsLookup, "ID34FG", "1234")
	train(t, db, sep, []string{benign})
	sep.SetConfig(DefaultConfig())

	// Warm the cache with the benign lookalike.
	for i := 0; i < 3; i++ {
		if _, err := db.Exec(benign); err != nil {
			t.Fatalf("benign exec: %v", err)
		}
	}
	attacked := fmt.Sprintf(ticketsLookup, "ID34FG' AND 1=1-- ", "0")
	for i := 0; i < 3; i++ {
		if _, err := db.Exec(attacked); !errors.Is(err, engine.ErrQueryBlocked) {
			t.Fatalf("attack attempt %d: err = %v, want ErrQueryBlocked", i, err)
		}
	}
	if got := len(sep.Logger().Attacks()); got != 3 {
		t.Errorf("attack events = %d, want 3 (one per attempt, never cached)", got)
	}
	// The benign text still serves from cache afterwards.
	if _, err := db.Exec(benign); err != nil {
		t.Fatalf("benign after attacks: %v", err)
	}
}

// TestSetConfigInvalidatesVerdicts is the acceptance property: no
// verdict may be served across a configuration change. A known attack
// text executes freely (and is cached as benign) under NN, then must be
// blocked immediately after SetConfig switches detection on.
func TestSetConfigInvalidatesVerdicts(t *testing.T) {
	db, sep := newProtectedDB(t, Config{Mode: ModeTraining})
	benign := fmt.Sprintf(ticketsLookup, "ID34FG", "1234")
	train(t, db, sep, []string{benign})

	// NN: detections off — the attack executes and its verdict is cached.
	sep.SetConfig(Config{Mode: ModePrevention, IncrementalLearning: false})
	attacked := "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND 1=1-- ' AND creditCard = 0"
	for i := 0; i < 2; i++ {
		if _, err := db.Exec(attacked); err != nil {
			t.Fatalf("NN exec %d: %v", i, err)
		}
	}
	if hits := sep.CacheStats().Hits; hits == 0 {
		t.Fatal("attack text was not cached under NN — test is not exercising invalidation")
	}

	// YY: the cached NN verdict must not survive the config change.
	sep.SetConfig(DefaultConfig())
	if _, err := db.Exec(attacked); !errors.Is(err, engine.ErrQueryBlocked) {
		t.Fatalf("after SetConfig: err = %v, want ErrQueryBlocked", err)
	}
	if inv := sep.CacheStats().Invalidations; inv == 0 {
		t.Error("invalidations = 0, want > 0 after config change")
	}
}

// TestSetModeInvalidatesVerdicts: a mode flip bumps the config
// generation, so verdicts cached in the old mode are recomputed.
func TestSetModeInvalidatesVerdicts(t *testing.T) {
	db, sep := newProtectedDB(t, Config{Mode: ModeTraining})
	benign := fmt.Sprintf(ticketsLookup, "ID34FG", "1234")
	train(t, db, sep, []string{benign})
	sep.SetConfig(Config{Mode: ModeDetection, DetectSQLI: true, DetectStored: true})

	for i := 0; i < 2; i++ {
		if _, err := db.Exec(benign); err != nil {
			t.Fatalf("detection exec: %v", err)
		}
	}
	before := sep.CacheStats()
	if before.Hits == 0 {
		t.Fatal("benign verdict not cached")
	}
	sep.SetMode(ModePrevention)
	if _, err := db.Exec(benign); err != nil {
		t.Fatalf("after SetMode: %v", err)
	}
	after := sep.CacheStats()
	if after.Invalidations != before.Invalidations+1 {
		t.Errorf("invalidations = %d, want %d", after.Invalidations, before.Invalidations+1)
	}
}

// TestLearningInvalidatesVerdicts: incremental learning mutates the
// store, which bumps the store generation and orphans every cached
// verdict — learned knowledge changed, so everything is re-derived.
func TestLearningInvalidatesVerdicts(t *testing.T) {
	db, sep := newProtectedDB(t, Config{Mode: ModeTraining})
	benign := fmt.Sprintf(ticketsLookup, "ID34FG", "1234")
	train(t, db, sep, []string{benign})
	sep.SetConfig(DefaultConfig())

	gen := sep.Store().Generation()
	for i := 0; i < 2; i++ {
		if _, err := db.Exec(benign); err != nil {
			t.Fatalf("exec: %v", err)
		}
	}
	// A never-seen query learns incrementally: store generation moves.
	if _, err := db.Exec("SELECT name FROM users WHERE id = 1"); err != nil {
		t.Fatalf("incremental query: %v", err)
	}
	if now := sep.Store().Generation(); now == gen {
		t.Fatal("incremental learning did not bump the store generation")
	}
	before := sep.CacheStats().Invalidations
	if _, err := db.Exec(benign); err != nil {
		t.Fatalf("benign after learning: %v", err)
	}
	if after := sep.CacheStats().Invalidations; after != before+1 {
		t.Errorf("invalidations = %d, want %d", after, before+1)
	}
}

// TestDeleteInvalidatesVerdicts: deleting an identifier (admin rejecting
// a poisoned model) must prevent the cache from serving verdicts that
// retained the deleted record.
func TestDeleteInvalidatesVerdicts(t *testing.T) {
	db, sep := newProtectedDB(t, Config{Mode: ModeTraining})
	benign := fmt.Sprintf(ticketsLookup, "ID34FG", "1234")
	train(t, db, sep, []string{benign})
	sep.SetConfig(Config{Mode: ModePrevention, DetectSQLI: true, DetectStored: true})

	for i := 0; i < 2; i++ {
		if _, err := db.Exec(benign); err != nil {
			t.Fatalf("exec: %v", err)
		}
	}
	for _, id := range sep.Store().IDs() {
		sep.Store().Delete(id)
	}
	before := sep.CacheStats().Invalidations
	// The store is empty and learning is off: the query now executes
	// unchecked — but via a fresh pipeline run, not the stale verdict.
	if _, err := db.Exec(benign); err != nil {
		t.Fatalf("after delete: %v", err)
	}
	if after := sep.CacheStats().Invalidations; after <= before {
		t.Errorf("invalidations = %d, want > %d", after, before)
	}
}

// TestVerdictLivesAndLeavesWithItsParseEntry walks one text through the
// statement cache's whole admission cycle and reads, at each point, what
// the guard could remember of it: nothing while the engine holds no entry,
// a verdict from the sight that admits the entry, and nothing again once
// the entry is evicted — with one cache lookup per served query in
// between, the engine's. The text is one whose shape has no template (a
// literal of it is a column position), so its own entry is the only memory
// it has; a flood of one-shot texts of a shape that has one is judged once,
// whether the cache stores them or refuses them.
func TestVerdictLivesAndLeavesWithItsParseEntry(t *testing.T) {
	const capacity = 64
	hub := obs.NewHub()
	sep := New(DefaultConfig(), WithObserver(hub))
	db := engine.New(engine.WithQueryHook(sep), engine.WithParseCacheCapacity(capacity), engine.WithObs(hub))
	if _, err := db.Exec("CREATE TABLE t (id INT, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	sep.SetConfig(Config{Mode: ModePrevention, IncrementalLearning: false})
	const shaped, alone = "SELECT v FROM t WHERE id = %d", "SELECT v FROM t WHERE id = %d ORDER BY 1"
	exec := func(format string, i int) {
		t.Helper()
		if _, err := db.Exec(fmt.Sprintf(format, i)); err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
	}
	gauges := func() map[string]int64 { return hub.Metrics.Snapshot().Gauges }

	// A flood of one-shot texts of one shape: the first fill the cache
	// beside the shape, the rest are refused, and all of them get the
	// template's slot, which the first of them leaves a verdict in.
	const flood = capacity * 100
	before := sep.CacheStats()
	for i := 0; i < flood; i++ {
		exec(shaped, i)
	}
	cs, g := sep.CacheStats(), gauges()
	if cs.Misses-before.Misses != 1 || cs.Hits != flood-1 {
		t.Errorf("after %d one-shot texts: %+v, want 1 miss, for the shape", flood, cs)
	}
	// The cache saw the same flood, one text (the CREATE) ahead and one
	// entry (the shape) short.
	if g["engine.parse_cache.refused"] != flood+2-capacity || g["engine.parse_cache.evictions"] != 0 {
		t.Errorf("engine.parse_cache.refused = %d, evictions %d; want %d and 0",
			g["engine.parse_cache.refused"], g["engine.parse_cache.evictions"], flood+2-capacity)
	}
	// Refused texts of a shape without a template miss every time.
	for i := 0; i < capacity; i++ {
		exec(alone, flood+i)
	}
	if after := sep.CacheStats(); after.Hits != cs.Hits || after.Misses-cs.Misses != capacity {
		t.Errorf("%d one-shot texts of a shape without a template: %+v, then %+v, want every one a miss", capacity, cs, after)
	}

	const cycled = 2 * flood // a number no text above has
	before = sep.CacheStats()
	exec(alone, cycled) // first sighting: refused, no slot
	exec(alone, cycled) // second: admitted for one resident, the verdict goes into the new entry
	exec(alone, cycled) // third: served
	// Two evictions: one made room for the shape without a template,
	// admitted at its second sight in the loop above, one for this text.
	after, g := sep.CacheStats(), gauges()
	if after.Hits-before.Hits != 1 || g["engine.parse_cache.evictions"] != 2 || g["engine.parse_cache.entries"] != capacity {
		t.Errorf("a text offered three times: %d hits, %d evictions, %d entries; want 1, 2 and %d",
			after.Hits-before.Hits, g["engine.parse_cache.evictions"], g["engine.parse_cache.entries"], capacity)
	}

	// Served: the engine's lookup is the only one. Every repeat is one hit
	// of the one cache a deployment has, and the verdict came with it.
	const repeats = 50
	for i := 0; i < repeats; i++ {
		exec(alone, cycled)
	}
	served := gauges()
	if d := served["engine.parse_cache.hits"] - g["engine.parse_cache.hits"]; d != repeats {
		t.Errorf("%d repeats cost %d parse-cache lookups that hit", repeats, d)
	}
	if served["engine.parse_cache.misses"] != g["engine.parse_cache.misses"] ||
		served["core.verdict_cache.hits"]-g["core.verdict_cache.hits"] != repeats {
		t.Errorf("%d repeats: parse-cache misses %d → %d, verdict hits %d → %d", repeats,
			g["engine.parse_cache.misses"], served["engine.parse_cache.misses"], g["core.verdict_cache.hits"], served["core.verdict_cache.hits"])
	}

	// Texts that do come back push the entry out, and the verdict with it:
	// the next sight is a plain miss, not an invalidation.
	for i := 1; i <= 16*capacity; i++ { // ≈ 64 admissions per shard; two laps of its 4-slot ring take 8
		exec(shaped, flood+i) // refused
		exec(shaped, flood+i) // admitted: the clock hand moves
	}
	hits := sep.CacheStats().Hits
	exec(alone, cycled)
	if end := sep.CacheStats(); end.Hits != hits || end.Invalidations != 0 {
		t.Errorf("after its entry was evicted the text was served from somewhere: %+v", end)
	}
}

// TestVerdictCacheConcurrentChurn runs readers on trained queries while
// a learner keeps mutating the store and a flipper toggles the mode —
// the -race configuration for the cache. Benign trained queries must
// never be blocked, whatever interleaving occurs.
func TestVerdictCacheConcurrentChurn(t *testing.T) {
	db, sep := newProtectedDB(t, Config{Mode: ModeTraining})
	benign := []string{
		fmt.Sprintf(ticketsLookup, "ID34FG", "1234"),
		"SELECT passwd FROM users WHERE name = 'admin'",
		"SELECT body FROM comments WHERE author = 'alice'",
	}
	train(t, db, sep, benign)
	sep.SetConfig(DefaultConfig())

	const iters = 300
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := benign[(r+i)%len(benign)]
				if _, err := db.Exec(q); err != nil {
					t.Errorf("reader %d iter %d: benign %q blocked: %v", r, i, q, err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() { // learner: novel queries keep bumping the store generation
		defer wg.Done()
		for i := 0; i < iters; i++ {
			q := fmt.Sprintf("SELECT id FROM users WHERE id = %d", i)
			_, _ = db.Exec(q)
		}
	}()
	wg.Add(1)
	go func() { // flipper: config generation churn
		defer wg.Done()
		for i := 0; i < iters/10; i++ {
			sep.SetMode(ModeDetection)
			sep.SetMode(ModePrevention)
		}
	}()
	wg.Wait()
}
