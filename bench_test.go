// Benchmarks regenerating the paper's quantitative results and the
// ablations listed in DESIGN.md §3.
//
//   - BenchmarkFig5_*: the §II-F performance study — per-request latency
//     of each application workload under the baseline engine and the
//     four SEPTIC configurations (NN/YN/NY/YY). The Fig. 5 metric is the
//     relative overhead between these series; `go run ./cmd/septic-bench
//     fig5` prints it directly as percentages.
//   - BenchmarkTableI_*: cost of one hook invocation per operation mode.
//   - Benchmark ablations: QS construction scaling, two-step comparison
//     vs always-full comparison, ID generation variants, stored-injection
//     pre-filter vs always-validate, and in-DBMS vs proxy vs WAF
//     detection cost on the same attack corpus.
package septic_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/septic-db/septic/internal/attacks"
	"github.com/septic-db/septic/internal/benchlab"
	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/dbfw"
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/qstruct"
	"github.com/septic-db/septic/internal/sqlparser"
	"github.com/septic-db/septic/internal/waf"
	"github.com/septic-db/septic/internal/wal"
	"github.com/septic-db/septic/internal/webapp"
	"github.com/septic-db/septic/internal/wire"
)

// --- Fig. 5: workload latency under each SEPTIC configuration ---------

// fig5Deployment builds one application deployment, trained and switched
// to the requested configuration, ready for workload replay.
func fig5Deployment(b *testing.B, spec benchlab.AppSpec, cfg benchlab.SepticConfig) (*webapp.App, []webapp.Request) {
	b.Helper()
	var (
		db    *engine.DB
		guard *core.Septic
	)
	if cfg == benchlab.ConfigBaseline {
		db = engine.New()
	} else {
		guard = core.New(core.Config{Mode: core.ModeTraining})
		db = engine.New(engine.WithQueryHook(guard))
	}
	for _, q := range spec.Schema {
		if _, err := db.Exec(q); err != nil {
			b.Fatalf("schema: %v", err)
		}
	}
	app := spec.Build(db)
	for _, req := range spec.Training {
		if resp := app.Serve(req.Clone()); resp.Status != 200 {
			b.Fatalf("training %s: %v", req, resp.Err)
		}
	}
	if guard != nil {
		c := core.Config{Mode: core.ModePrevention, IncrementalLearning: true}
		switch cfg {
		case benchlab.ConfigYN:
			c.DetectSQLI = true
		case benchlab.ConfigNY:
			c.DetectStored = true
		case benchlab.ConfigYY:
			c.DetectSQLI, c.DetectStored = true, true
		}
		guard.SetConfig(c)
	}
	return app, spec.Workload
}

func benchmarkFig5(b *testing.B, spec benchlab.AppSpec, cfg benchlab.SepticConfig) {
	app, workload := fig5Deployment(b, spec, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := workload[i%len(workload)]
		if resp := app.Serve(req.Clone()); resp.Status != 200 {
			b.Fatalf("%s: %v", req, resp.Err)
		}
	}
}

func BenchmarkFig5(b *testing.B) {
	configs := append([]benchlab.SepticConfig{benchlab.ConfigBaseline}, benchlab.Configs()...)
	for _, spec := range benchlab.PaperSpecs() {
		for _, cfg := range configs {
			spec, cfg := spec, cfg
			b.Run(fmt.Sprintf("%s/%s", sanitizeName(spec.Name), cfg), func(b *testing.B) {
				benchmarkFig5(b, spec, cfg)
			})
		}
	}
}

func sanitizeName(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if r == ' ' {
			r = '_'
		}
		out = append(out, r)
	}
	return string(out)
}

// --- Table I: per-mode hook cost ---------------------------------------

func BenchmarkTableI_Modes(b *testing.B) {
	const benign = "SELECT * FROM tickets WHERE reservID = 'ZZ91AB' AND creditCard = 42"
	for _, mode := range []core.Mode{core.ModeTraining, core.ModeDetection, core.ModePrevention} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			guard := core.New(core.Config{Mode: core.ModeTraining})
			db := engine.New(engine.WithQueryHook(guard))
			if _, err := db.Exec("CREATE TABLE tickets (id INT, reservID TEXT, creditCard INT)"); err != nil {
				b.Fatal(err)
			}
			if _, err := db.Exec(benign); err != nil {
				b.Fatal(err)
			}
			guard.SetConfig(core.Config{
				Mode: mode, DetectSQLI: true, DetectStored: true, IncrementalLearning: true,
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(benign); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: QS construction cost vs query size ----------------------

func BenchmarkQSBuild(b *testing.B) {
	queries := map[string]string{
		"small":  "SELECT id FROM t WHERE a = 1",
		"medium": "SELECT id, name, email FROM users WHERE city = 'lisbon' AND age > 18 ORDER BY name LIMIT 10",
		"large": "SELECT u.id, u.name, COUNT(*) AS n FROM users u JOIN orders o ON u.id = o.uid " +
			"WHERE u.city IN ('a','b','c') AND o.total BETWEEN 10 AND 500 AND o.state <> 'void' " +
			"GROUP BY u.id, u.name HAVING COUNT(*) > 2 ORDER BY n DESC, u.name LIMIT 20 OFFSET 5",
	}
	for name, q := range queries {
		name, q := name, q
		b.Run(name, func(b *testing.B) {
			stmt, err := sqlparser.Parse(q)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if qs := qstruct.BuildStack(stmt); len(qs) == 0 {
					b.Fatal("empty stack")
				}
			}
		})
	}
}

// --- Ablation: two-step comparison vs always-full walk -----------------

func BenchmarkCompareTwoStep(b *testing.B) {
	trained, err := sqlparser.Parse("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234")
	if err != nil {
		b.Fatal(err)
	}
	qm := qstruct.ModelOf(qstruct.BuildStack(trained))
	attacked, err := sqlparser.Parse("SELECT * FROM tickets WHERE reservID = 'ID34FG'-- ' AND creditCard = 0")
	if err != nil {
		b.Fatal(err)
	}
	attackQS := qstruct.BuildStack(attacked)
	benignQS := qstruct.BuildStack(trained)

	b.Run("two-step/attack", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if v := qstruct.Compare(attackQS, qm); v.Match {
				b.Fatal("attack matched")
			}
		}
	})
	b.Run("full-walk/attack", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if v := qstruct.CompareFull(attackQS, qm); v.Match {
				b.Fatal("attack matched")
			}
		}
	})
	b.Run("two-step/benign", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if v := qstruct.Compare(benignQS, qm); !v.Match {
				b.Fatal("benign flagged")
			}
		}
	})
	b.Run("full-walk/benign", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if v := qstruct.CompareFull(benignQS, qm); !v.Match {
				b.Fatal("benign flagged")
			}
		}
	})
}

// --- Ablation: ID generation with and without external identifiers -----

func BenchmarkIDGeneration(b *testing.B) {
	tagged, err := sqlparser.Parse("/* waspmon:devices */ SELECT id, name FROM devices WHERE name = 'x'")
	if err != nil {
		b.Fatal(err)
	}
	comments := tagged.StatementComments()
	b.Run("internal-only", func(b *testing.B) {
		g := &core.IDGenerator{UseExternal: false}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if id := g.ID(tagged, comments); id == "" {
				b.Fatal("empty id")
			}
		}
	})
	b.Run("external+internal", func(b *testing.B) {
		g := core.NewIDGenerator()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if id := g.ID(tagged, comments); id == "" {
				b.Fatal("empty id")
			}
		}
	})
}

// --- Ablation: stored-injection pre-filter vs always-validate ----------

func BenchmarkStoredInjectionFilter(b *testing.B) {
	values := []string{
		"a perfectly benign note about maintenance",
		"another value, plain prose with no metacharacters at all",
		"<script>alert(1)</script>",
		"check wiring then re-test tomorrow morning",
	}
	plugins := core.DefaultPlugins()
	b.Run("with-prefilter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := values[i%len(values)]
			for _, p := range plugins {
				if p.Filter(v) {
					_, _ = p.Validate(v)
				}
			}
		}
	})
	b.Run("always-validate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := values[i%len(values)]
			for _, p := range plugins {
				_, _ = p.Validate(v)
			}
		}
	})
}

// --- Ablation: detection cost by placement (in-DBMS vs proxy vs WAF) ---

func BenchmarkDetectionPlacement(b *testing.B) {
	attackReq := attacks.Corpus()[0].Request
	rawQuery := "SELECT id, name, location, maxWatts FROM devices WHERE name = 'benign'"

	b.Run("waf-check", func(b *testing.B) {
		w := waf.New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = w.Check(attackReq)
		}
	})
	b.Run("proxy-normalize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if p := dbfw.Normalize(rawQuery); p == "" {
				b.Fatal("empty pattern")
			}
		}
	})
	b.Run("septic-hook", func(b *testing.B) {
		// Verdict cache off: this ablation compares the per-query
		// DETECTION cost across placements, so the hook must run its
		// full pipeline every iteration (see BenchmarkHookCached for the
		// memoized path).
		guard := core.New(core.Config{Mode: core.ModeTraining},
			core.WithVerdictCacheCapacity(0))
		db := engine.New(engine.WithQueryHook(guard))
		if _, err := db.Exec("CREATE TABLE devices (id INT, name TEXT, location TEXT, maxWatts INT)"); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Exec(rawQuery); err != nil {
			b.Fatal(err)
		}
		guard.SetConfig(core.Config{
			Mode: core.ModePrevention, DetectSQLI: true, DetectStored: true, IncrementalLearning: true,
		})
		stmt, err := sqlparser.Parse(rawQuery)
		if err != nil {
			b.Fatal(err)
		}
		hctx := &engine.HookContext{Raw: rawQuery, Decoded: rawQuery, Stmt: stmt}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := guard.BeforeExecute(hctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Verdict cache: the repeated known-benign hot path ------------------

// cachedHookGuard builds a trained YY-prevention guard (with the given
// verdict-cache capacity and the default register, as a -quiet septicd
// has it) plus the hook context of its benign query.
func cachedHookGuard(b *testing.B, capacity int) (*core.Septic, *engine.HookContext) {
	b.Helper()
	guard := core.New(core.Config{Mode: core.ModeTraining},
		core.WithVerdictCacheCapacity(capacity))
	query := "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234"
	stmt, err := sqlparser.Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	hctx := &engine.HookContext{Raw: query, Decoded: query, Stmt: stmt}
	if err := guard.BeforeExecute(hctx); err != nil { // learn the model
		b.Fatal(err)
	}
	guard.SetConfig(core.Config{
		Mode: core.ModePrevention, DetectSQLI: true, DetectStored: true, IncrementalLearning: true,
	})
	if err := guard.BeforeExecute(hctx); err != nil { // warm the cache
		b.Fatal(err)
	}
	return guard, hctx
}

// BenchmarkHookCached measures a byte-identical repeat of a known-benign
// query through the hook with the verdict cache on: the memoized path
// skips ID generation, the store lookup and both detections. The target
// is 0 allocs/op and a ≥5× ns/op win over BenchmarkHookMiss.
func BenchmarkHookCached(b *testing.B) {
	guard, hctx := cachedHookGuard(b, core.DefaultVerdictCacheCapacity)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := guard.BeforeExecute(hctx); err != nil {
			b.Fatal(err)
		}
	}
	if guard.CacheStats().Hits == 0 {
		b.Fatal("cache never hit")
	}
}

// BenchmarkHookCachedDomain is BenchmarkHookCached through a protection
// domain: the query carries an "/* app:id */" prefix, a matching domain
// is registered, and the cached verdict is served from that domain's
// partition. The delta against BenchmarkHookCached is the whole cost of
// domain routing — one prefix scan and one lookup in an atomically
// published map — and must stay within 10% at 0 allocs/op.
func BenchmarkHookCachedDomain(b *testing.B) {
	guard := core.New(core.Config{Mode: core.ModeTraining},
		core.WithVerdictCacheCapacity(core.DefaultVerdictCacheCapacity))
	dom, err := guard.RegisterDomain("shop", core.Config{
		Mode: core.ModeTraining, IncrementalLearning: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	query := "/* shop:tickets */ SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234"
	stmt, err := sqlparser.Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	hctx := &engine.HookContext{Raw: query, Decoded: query, Stmt: stmt, Comments: stmt.StatementComments()}
	if err := guard.BeforeExecute(hctx); err != nil { // learn in the domain
		b.Fatal(err)
	}
	dom.SetConfig(core.Config{
		Mode: core.ModePrevention, DetectSQLI: true, DetectStored: true, IncrementalLearning: true,
	})
	if err := guard.BeforeExecute(hctx); err != nil { // warm the domain's cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := guard.BeforeExecute(hctx); err != nil {
			b.Fatal(err)
		}
	}
	if dom.CacheStats().Hits == 0 {
		b.Fatal("domain cache never hit")
	}
}

// BenchmarkHookMiss is the same repeat with caching disabled: every
// iteration runs the full pipeline. The cached/miss ratio is the verdict
// cache's payoff.
func BenchmarkHookMiss(b *testing.B) {
	guard, hctx := cachedHookGuard(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := guard.BeforeExecute(hctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHookCachedChurn stresses the cache's worst realistic case:
// parallel sessions repeating benign queries while the model store keeps
// learning (every store mutation orphans all cached verdicts). Measures
// how quickly the cache re-converges after invalidation storms.
func BenchmarkHookCachedChurn(b *testing.B) {
	guard, hctx := cachedHookGuard(b, core.DefaultVerdictCacheCapacity)
	churn := qstruct.ModelOf(qstruct.BuildStack(hctx.Stmt))
	var churnID int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i%512 == 511 {
				// Simulated incremental learning: a fresh identifier
				// bumps the store generation and invalidates everything.
				id := atomic.AddInt64(&churnID, 1)
				guard.Store().Put(fmt.Sprintf("churn-%d", id), churn, true)
			}
			i++
			if err := guard.BeforeExecute(hctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Parallel sessions: hook hot path under GOMAXPROCS scaling ----------

// hookDeployment builds a two-table deployment trained on the parallel
// workload and switched to prevention mode with the given detections.
func hookDeployment(b *testing.B, cfg benchlab.SepticConfig) (*engine.DB, []string) {
	b.Helper()
	guard := core.New(core.Config{Mode: core.ModeTraining})
	db := engine.New(engine.WithQueryHook(guard))
	schema := []string{
		"CREATE TABLE tickets (id INT PRIMARY KEY AUTO_INCREMENT, reservID TEXT, creditCard INT)",
		"CREATE TABLE devices (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT, maxWatts INT)",
	}
	for _, q := range schema {
		if _, err := db.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
	workload := []string{
		"SELECT * FROM tickets WHERE reservID = 'ZZ91AB' AND creditCard = 42",
		"SELECT id, name FROM devices WHERE maxWatts > 100",
	}
	for _, q := range workload {
		if _, err := db.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
	c := core.Config{Mode: core.ModePrevention, IncrementalLearning: true}
	switch cfg {
	case benchlab.ConfigYN:
		c.DetectSQLI = true
	case benchlab.ConfigNY:
		c.DetectStored = true
	case benchlab.ConfigYY:
		c.DetectSQLI, c.DetectStored = true, true
	}
	guard.SetConfig(c)
	return db, workload
}

// BenchmarkHookParallel measures known-benign query throughput from many
// concurrent sessions, per SEPTIC configuration. Run with -cpu=1,2,4 to
// see GOMAXPROCS scaling: the contention-free hot path should scale near
// linearly on a multi-core host, where the old single-mutex design was
// flat or worse.
func BenchmarkHookParallel(b *testing.B) {
	for _, cfg := range benchlab.Configs() {
		cfg := cfg
		b.Run(cfg.String(), func(b *testing.B) {
			db, workload := hookDeployment(b, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					q := workload[i%len(workload)]
					i++
					if _, err := db.Exec(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkEngineParallel isolates the engine's own concurrency (no
// hook): parallel point reads of one table, and reads of one table while
// a writer hammers another — the case the per-table locks unblock.
func BenchmarkEngineParallel(b *testing.B) {
	setup := func(b *testing.B) *engine.DB {
		b.Helper()
		db := engine.New()
		for _, q := range []string{
			"CREATE TABLE r (id INT PRIMARY KEY, v TEXT)",
			"CREATE TABLE w (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)",
		} {
			if _, err := db.Exec(q); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO r (id, v) VALUES (%d, 'v')", i)); err != nil {
				b.Fatal(err)
			}
		}
		return db
	}
	b.Run("read-only", func(b *testing.B) {
		db := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := db.Exec("SELECT v FROM r WHERE id = 42"); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("read-vs-write", func(b *testing.B) {
		db := setup(b)
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Exec("INSERT INTO w (v) VALUES ('x')"); err != nil {
					return
				}
			}
		}()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := db.Exec("SELECT v FROM r WHERE id = 42"); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.StopTimer()
		close(stop)
		<-done
	})
}

// BenchmarkWireParallel drives the protocol server from concurrent
// client connections (one session per worker goroutine), the paper's
// many-diverse-clients deployment end to end.
func BenchmarkWireParallel(b *testing.B) {
	db, _ := hookDeployment(b, benchlab.ConfigYY)
	srv := wire.NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	const q = "SELECT * FROM tickets WHERE reservID = 'ZZ91AB' AND creditCard = 42"
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c, err := wire.Dial(addr)
		if err != nil {
			b.Error(err)
			return
		}
		defer c.Close()
		for pb.Next() {
			if _, err := c.Exec(q); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// --- Engine microbenchmarks (the substrate's own cost) ------------------

func BenchmarkEngineExec(b *testing.B) {
	// db holds 100 rows and grows under the insert sub-benchmark; list
	// keeps its 200 so the ordered list sorts, the search scans and the
	// keyed writes find the same number of rows every time.
	db, list := engine.New(), engine.New()
	for d, rows := range map[*engine.DB]int{db: 100, list: 200} {
		if _, err := d.Exec("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT, n INT)"); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if _, err := d.Exec(fmt.Sprintf("INSERT INTO t (name, n) VALUES ('row%d', %d)", i*37%rows, i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	coldText := 0 // survives b.N ramp-up re-invocations
	b.Run("point-select", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Exec("SELECT name FROM t WHERE id = 42"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("point-select-cold", func(b *testing.B) {
		// A text the engine has never seen: parse, plan build and
		// execution, the path embed_miss and train_wal take. The trailing
		// comment makes the text new without changing the statement;
		// formatting it is 2 of the allocations reported.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Exec(fmt.Sprintf("SELECT name FROM t WHERE id = 42 /* %d */", coldText)); err != nil {
				b.Fatal(err)
			}
			coldText++
		}
	})
	b.Run("list-ordered-200", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := list.Exec("SELECT id, name, n FROM t ORDER BY name"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("like-scan-200", func(b *testing.B) {
		// A search page: two case-insensitive substring tests per row, 11
		// of the 200 rows match.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := list.Exec("SELECT id, name FROM t WHERE name LIKE '%Ow17%' OR name LIKE '%w3%'"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("update-by-key", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := list.Exec("UPDATE t SET n = n + 1 WHERE id = 117"); err != nil {
				b.Fatal(err)
			}
		}
	})
	turn := 0 // like coldText
	b.Run("delete-insert-by-key", func(b *testing.B) {
		// The oldest row goes and comes back as the newest, ids in a cycle
		// of 200 cached texts: every delete shifts all the rows behind it
		// and the table keeps its size.
		var del, ins [200]string
		for i := range del {
			del[i] = fmt.Sprintf("DELETE FROM t WHERE id = %d", i+1)
			ins[i] = fmt.Sprintf("INSERT INTO t (id, name, n) VALUES (%d, 'row%d', %d)", i+1, i*37%200, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res, err := list.Exec(del[turn%200]); err != nil || res.Affected != 1 {
				b.Fatal(res, err)
			}
			if _, err := list.Exec(ins[turn%200]); err != nil {
				b.Fatal(err)
			}
			turn++
		}
	})
	b.Run("aggregate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Exec("SELECT COUNT(*), AVG(n) FROM t WHERE n > 10"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("insert", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Exec("INSERT INTO t (name, n) VALUES ('bench', 1)"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation: unique hash index vs full scan ---------------------------

func BenchmarkIndexVsScan(b *testing.B) {
	db := engine.New()
	if _, err := db.Exec("CREATE TABLE p (id INT PRIMARY KEY, v TEXT)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO p (id, v) VALUES (%d, 'v')", i)); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("indexed-point-select", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Exec("SELECT v FROM p WHERE id = 9000"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("forced-scan", func(b *testing.B) {
		// The extra AND disables the fast path without changing results.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := db.Exec("SELECT v FROM p WHERE id = 9000 AND 1 = 1"); err != nil {
				b.Fatal(err)
			}
		}
	})
	next := 100000 // survives b.N ramp-up re-invocations
	b.Run("indexed-insert", func(b *testing.B) {
		// Uniqueness checks ride the index: throughput stays flat as the
		// table grows.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := fmt.Sprintf("INSERT INTO p (id, v) VALUES (%d, 'w')", next)
			next++
			if _, err := db.Exec(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkParse(b *testing.B) {
	const q = "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparser.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Durability ablation: WAL fsync policy vs training throughput -----

// durableStore builds a training-mode guard whose default domain's store
// logs to a fresh WAL at the named fsync policy ("off": no WAL), and
// returns the store plus the persistence (nil when off) to read the
// WAL's counters from. The WAL is closed when the benchmark ends.
func durableStore(b *testing.B, policy string) (*core.Store, *core.Persistence) {
	b.Helper()
	guard := core.New(core.Config{Mode: core.ModeTraining},
		core.WithVerdictCacheCapacity(0))
	var persist *core.Persistence
	if policy != "off" {
		fp, err := wal.ParseFsyncPolicy(policy)
		if err != nil {
			b.Fatal(err)
		}
		persist, err = guard.AttachPersistence(core.PersistenceOptions{
			Dir: b.TempDir(), Fsync: fp,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { persist.Close() })
	}
	dom, _ := guard.Domain(core.DefaultDomain)
	return dom.Store(), persist
}

// durableModel is the model every durability benchmark stores.
func durableModel(b *testing.B) qstruct.Model {
	b.Helper()
	stmt, err := sqlparser.Parse("SELECT a FROM t WHERE b = 1")
	if err != nil {
		b.Fatal(err)
	}
	return qstruct.ModelOf(qstruct.BuildStack(stmt))
}

// BenchmarkTrainDurable measures the cost a write-ahead log adds to one
// acknowledged training update (a Store.Put of a new model) at each
// fsync policy, against the no-WAL baseline. Every iteration stores a
// distinct identifier so every Put appends one WAL record; with
// fsync=always and this single writer each iteration also pays one
// fsync — that sub-benchmark is the price of the "no acknowledged update
// is ever lost" guarantee when nothing shares it.
func BenchmarkTrainDurable(b *testing.B) {
	model := durableModel(b)
	for _, policy := range benchlab.DurabilityPolicies() {
		b.Run(policy, func(b *testing.B) {
			store, _ := durableStore(b, policy)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !store.Put(fmt.Sprintf("q%09d", i), model, false) {
					b.Fatalf("put %d refused: durability sink failed", i)
				}
			}
		})
	}
}

// BenchmarkTrainDurableParallel is the fsync=always update under the
// concurrency the wire server's worker pool gives it: 8 putters storing
// distinct identifiers (spread over the store's shards by hash), so the
// WAL's group commit has appends to share an fsync between. ns/op is
// wall time per acknowledged update across all putters; fsyncs/update
// below 1 is the grouping.
func BenchmarkTrainDurableParallel(b *testing.B) {
	model := durableModel(b)
	b.Run("always", func(b *testing.B) {
		store, persist := durableStore(b, "always")
		procs := runtime.GOMAXPROCS(0)
		b.SetParallelism((8 + procs - 1) / procs) // 8 goroutines, or the next multiple
		var next atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if id := next.Add(1); !store.Put(fmt.Sprintf("q%09d", id), model, false) {
					b.Errorf("put %d refused: durability sink failed", id)
					return
				}
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(persist.Stats().WAL.Fsyncs)/float64(b.N), "fsyncs/update")
	})
}
