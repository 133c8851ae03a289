package core

import (
	"fmt"
	"testing"

	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/obs"
	"github.com/septic-db/septic/internal/raceflag"
	"github.com/septic-db/septic/internal/sqlparser"
)

// hookCtxFor parses q into the HookContext shape the engine hands to the
// hook for a text its parse cache holds: a context used again is the same
// entry executed again, slot included.
func hookCtxFor(t testing.TB, q string) *engine.HookContext {
	t.Helper()
	stmt, err := sqlparser.Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return &engine.HookContext{
		Raw:      q,
		Decoded:  sqlparser.DecodeCharset(q),
		Stmt:     stmt,
		Comments: stmt.StatementComments(),
		Memo:     new(engine.Memo),
	}
}

// TestCachedHitAllocationFree is the tentpole's regression guard: a
// repeated known-benign query served from the verdict cache must not
// allocate at all. The register is the default one: with no stream
// attached a passed check is counted, and no Event is built.
func TestCachedHitAllocationFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation adds allocations")
	}
	sep := New(Config{Mode: ModeTraining})
	hctx := hookCtxFor(t, "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234")
	if err := sep.BeforeExecute(hctx); err != nil { // learn the model
		t.Fatalf("training: %v", err)
	}
	sep.SetConfig(DefaultConfig())
	if err := sep.BeforeExecute(hctx); err != nil { // miss: populate cache
		t.Fatalf("warm-up: %v", err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := sep.BeforeExecute(hctx); err != nil {
			t.Fatalf("cached hit: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("cached-hit hook path allocates %.1f objects/op, want 0", allocs)
	}
	if sep.CacheStats().Hits == 0 {
		t.Fatal("cache never hit — the guard measured the wrong path")
	}
}

// TestCachedHitAllocationFreeDomain extends the tentpole guard to the
// domain-routed path: with protection domains registered, a repeated
// known-benign query carrying an "/* app:id */" prefix must route to
// its domain and still be served from that domain's verdict cache with
// ZERO allocations. Domain resolution is one prefix scan plus one map
// lookup off an atomic snapshot — if this fails, routing started
// copying or boxing per query.
func TestCachedHitAllocationFreeDomain(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation adds allocations")
	}
	sep := New(Config{Mode: ModeTraining})
	d, err := sep.RegisterDomain("shop", Config{Mode: ModeTraining, IncrementalLearning: true})
	if err != nil {
		t.Fatal(err)
	}
	hctx := hookCtxFor(t, "/* shop:tickets */ SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234")
	if err := sep.BeforeExecute(hctx); err != nil { // learn in the shop domain
		t.Fatalf("training: %v", err)
	}
	d.SetConfig(DefaultConfig())
	if err := sep.BeforeExecute(hctx); err != nil { // miss: populate the domain's cache
		t.Fatalf("warm-up: %v", err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := sep.BeforeExecute(hctx); err != nil {
			t.Fatalf("cached hit: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("domain-routed cached-hit path allocates %.1f objects/op, want 0", allocs)
	}
	if d.CacheStats().Hits == 0 {
		t.Fatal("domain cache never hit — the query did not route to its domain")
	}
	if sep.DefaultDomain().CacheStats().Hits != 0 {
		t.Fatal("default-domain cache hit — routing leaked to the default partition")
	}
}

// TestCachedHitAllocationFreeWithObs guards the ENABLED observability
// budget: instrumentation on the cached hot path is one time.Now pair
// and two histogram Observes — atomics into fixed buckets, never an
// allocation. If this fails, something on the obs path started
// formatting or boxing per query.
func TestCachedHitAllocationFreeWithObs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation adds allocations")
	}
	hub := obs.NewHub()
	sep := New(Config{Mode: ModeTraining},
		WithObserver(hub))
	hctx := hookCtxFor(t, "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234")
	if err := sep.BeforeExecute(hctx); err != nil {
		t.Fatalf("training: %v", err)
	}
	sep.SetConfig(DefaultConfig())
	if err := sep.BeforeExecute(hctx); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := sep.BeforeExecute(hctx); err != nil {
			t.Fatalf("cached hit: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("instrumented cached-hit path allocates %.1f objects/op, want 0", allocs)
	}
	if hub.Metrics.Histogram("core.hook.cached_hit").Snapshot().Count == 0 {
		t.Fatal("hit histogram empty — instrumentation did not run")
	}
}

// TestCachedHitAllocationFreeReplica extends the tentpole guard to a
// replica-fed Septic: models arrive through the replication apply path
// (ReplicaState.ApplyRecord), the stores are read-only, and a repeated
// known-benign detection read must still be served from the verdict
// cache with ZERO allocations — the replica gate is one atomic load on
// the training path, never a cost on the cached hit.
func TestCachedHitAllocationFreeReplica(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation adds allocations")
	}
	// A primary learns one model; its WAL records feed the replica.
	primary := New(Config{Mode: ModeTraining})
	pp, err := primary.AttachPersistence(PersistenceOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Close()
	hctx := hookCtxFor(t, "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234")
	if err := primary.BeforeExecute(hctx); err != nil {
		t.Fatalf("primary training: %v", err)
	}
	recs, err := pp.ReplReadFrom(0, 0)
	if err != nil || len(recs) == 0 {
		t.Fatalf("primary WAL: %d records, err %v", len(recs), err)
	}

	sep := New(DefaultConfig())
	rs, err := sep.AttachReplicaSource()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := rs.ApplyRecord(rec.Seq, rec.Data); err != nil {
			t.Fatalf("apply %d: %v", rec.Seq, err)
		}
	}
	if err := sep.BeforeExecute(hctx); err != nil { // miss: populate cache
		t.Fatalf("warm-up: %v", err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := sep.BeforeExecute(hctx); err != nil {
			t.Fatalf("cached hit: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("replica cached-hit hook path allocates %.1f objects/op, want 0", allocs)
	}
	if sep.CacheStats().Hits == 0 {
		t.Fatal("cache never hit — the guard measured the wrong path")
	}
}

// execAllocCeiling is the allocation budget for a protected repeated
// point SELECT through the full engine path (parse cache + verdict
// cache + select plan + execution). Measured 5 allocs/op since select
// plans (16 before them, 32 at the seed): the scope the WHERE clause is
// evaluated under, the slice of rows it keeps, and the result — the
// Result, one block of cells, the row windows. The ceiling is measured
// + 1, slack for toolchain variation that still catches any per-call
// re-derivation creeping back.
const execAllocCeiling = 6

// TestExecPointSelectAllocCeiling guards the end-to-end path: the
// remaining allocations should be the result materialization, not
// parsing or detection.
func TestExecPointSelectAllocCeiling(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation adds allocations")
	}
	sep := New(Config{Mode: ModeTraining})
	db := engine.New(engine.WithQueryHook(sep))
	setup := []string{
		"CREATE TABLE tickets (id INT PRIMARY KEY AUTO_INCREMENT, reservID TEXT, creditCard INT)",
		"INSERT INTO tickets (reservID, creditCard) VALUES ('ID34FG', 1234)",
	}
	for _, q := range setup {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("setup %q: %v", q, err)
		}
	}
	q := "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234"
	if _, err := db.Exec(q); err != nil { // learn
		t.Fatalf("training: %v", err)
	}
	sep.SetConfig(DefaultConfig())
	if _, err := db.Exec(q); err != nil { // warm both caches
		t.Fatalf("warm-up: %v", err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("exec: %v", err)
		}
	})
	if allocs > execAllocCeiling {
		t.Errorf("protected point SELECT allocates %.1f objects/op, want <= %d",
			allocs, execAllocCeiling)
	}
}

// TestExecColdTextFullCachesAllocCeiling is embed_miss in one unit: the
// parse cache full, every text new, one shape. The full cache refuses the
// text, so it gets no entry of its own; the engine keys it by its shape,
// and from the second text on the shape's template is there, with the
// template's slot: no parse, no plan, and after the shape's first text in
// the current configuration no miss path either — the guard reads the
// shape's verdict and counts the check. 1 object, measured: the empty
// result (3 while the guard ran its miss path on every such text, 13 when
// every one was parsed and planned to be thrown away). A change that
// parses a text of a known shape again, or judges one again, fails here
// before it reaches the benchmark.
func TestExecColdTextFullCachesAllocCeiling(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation adds allocations")
	}
	const capacity = 16
	sep := New(Config{Mode: ModeTraining})
	hub := obs.NewHub()
	db := engine.New(engine.WithQueryHook(sep), engine.WithParseCacheCapacity(capacity), engine.WithObs(hub))
	for _, q := range []string{
		"CREATE TABLE tickets (id INT PRIMARY KEY AUTO_INCREMENT, reservID TEXT, creditCard INT)",
		"INSERT INTO tickets (reservID, creditCard) VALUES ('ID34FG', 1234)",
		"SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234", // learn
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("setup %q: %v", q, err)
		}
	}
	texts := make([]string, 1000)
	for i := range texts {
		texts[i] = fmt.Sprintf("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = %d", 5000+i)
	}
	next := 0
	exec := func() {
		if _, err := db.Exec(texts[next]); err != nil {
			t.Fatalf("exec: %v", err)
		}
		next++
	}
	for next < 500 { // fill every shard of the parse cache, still training: no verdict is left
		exec()
	}
	sep.SetConfig(DefaultConfig())
	shapeHits := func() int64 { return hub.Metrics.Snapshot().Histograms["engine.stage.parse.shape_hit"].Count }
	before, hits := sep.Stats(), shapeHits()
	if allocs := testing.AllocsPerRun(400, exec); allocs > 1 {
		t.Errorf("a never-seen text of a known shape against a full parse cache allocates %.1f objects/op, want <= 1", allocs)
	}
	after := sep.Stats()
	if after.Cache.Misses-before.Cache.Misses != 1 || after.Cache.Hits-before.Cache.Hits != 400 ||
		after.QueriesChecked-before.QueriesChecked != 401 {
		t.Fatalf("the guard measured the wrong path: %+v, then %+v", before, after)
	}
	if got := shapeHits() - hits; got != 401 {
		t.Fatalf("%d of 401 texts were shape hits", got)
	}
}
