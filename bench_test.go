// The ablations listed in DESIGN.md §3: what each design choice of the
// guard costs or saves, measured in isolation.
//
//   - BenchmarkTableI_Modes: cost of one hook invocation per operation
//     mode.
//   - QS construction scaling, two-step comparison vs always-full
//     comparison, ID generation variants, stored-injection pre-filter vs
//     always-validate, in-DBMS vs proxy vs WAF detection cost on the same
//     attack corpus, and the engine's unique hash index vs a full scan.
//
// Per-request and per-layer costs of the shipped stack (hook, engine,
// parser, wire round trip, WAL append) are bench/'s ledger metrics, one
// run of `go run -C bench .`; Fig. 5 is `go run ./cmd/septic-bench fig5`.
package septic_test

import (
	"fmt"
	"testing"

	"github.com/septic-db/septic/internal/attacks"
	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/dbfw"
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/qstruct"
	"github.com/septic-db/septic/internal/sqlparser"
	"github.com/septic-db/septic/internal/waf"
)

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

// compareFullWalk is the arm qstruct.Compare is measured against: the same
// per-node rules and the same kind of verdict without the step-1 length
// check in front, so it always walks the nodes the two have in common
// before it looks at the counts.
func compareFullWalk(qs qstruct.Stack, qm qstruct.Model) qstruct.Verdict {
	numeric := func(c qstruct.Category) bool { return c == qstruct.CatInt || c == qstruct.CatReal }
	for i := 0; i < min(len(qs), len(qm.Nodes)); i++ {
		got, want := qs[i], qm.Nodes[i]
		if got.Cat != want.Cat && !(numeric(got.Cat) && numeric(want.Cat)) || !got.Cat.IsData() && got.Data != want.Data {
			return qstruct.Verdict{Step: qstruct.StepSyntactical, Index: i, Distance: i,
				Detail: fmt.Sprintf("node %d mismatch", i)}
		}
	}
	if len(qs) != len(qm.Nodes) {
		return qstruct.Verdict{Step: qstruct.StepStructural, Index: -1,
			Detail: fmt.Sprintf("query structure has %d nodes, model has %d", len(qs), len(qm.Nodes))}
	}
	return qstruct.Verdict{Match: true, Step: qstruct.StepNone, Index: -1}
}

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
			if v := compareFullWalk(attackQS, qm); v.Match {
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
			if v := compareFullWalk(benignQS, qm); !v.Match {
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
		// full pipeline every iteration (the memoized path is bench/'s
		// core.hook_ns on wire_hit).
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
