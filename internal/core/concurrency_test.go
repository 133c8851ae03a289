package core

import (
	"errors"
	"sync"
	"testing"

	"github.com/septic-db/septic/internal/engine"
)

// TestConcurrentSessionsCountersExact hammers one SEPTIC-hooked DB from
// many concurrent sessions with a mixed benign/attack workload and
// asserts that every counter — SEPTIC's Stats and the engine's — sums
// exactly. Run under -race this is the correctness proof of the
// contention-free hot path: the atomic config snapshot, the lock-free
// stat counters, the sharded COW store and the per-table engine locks
// all have to agree on every one of the N×M×3 queries.
func TestConcurrentSessionsCountersExact(t *testing.T) {
	const (
		sessions   = 8
		iterations = 200
	)

	db := engine.New()
	schema := []string{
		"CREATE TABLE users (name TEXT, pass TEXT)",
		"CREATE TABLE logs (id INT PRIMARY KEY AUTO_INCREMENT, msg TEXT)",
	}
	for _, q := range schema {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec("INSERT INTO users (name, pass) VALUES ('ann', 'pw')"); err != nil {
		t.Fatal(err)
	}
	seeded := len(schema) + 1 // statements executed before the hook exists

	guard := New(Config{Mode: ModeTraining})
	db.SetHook(guard)

	// Training: one model per benign query shape.
	training := []string{
		"/* q-users */ SELECT pass FROM users WHERE name = 'ann'",
		"/* q-logs */ INSERT INTO logs (msg) VALUES ('routine maintenance note')",
	}
	for _, q := range training {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}

	// Incremental learning off: the workload is closed, so counters are
	// exactly predictable — unknown shapes would otherwise learn models
	// mid-flight and make AttacksFound racy.
	guard.SetConfig(Config{
		Mode: ModePrevention, DetectSQLI: true, DetectStored: true,
	})

	const (
		benignSelect = "/* q-users */ SELECT pass FROM users WHERE name = 'ann'"
		benignInsert = "/* q-logs */ INSERT INTO logs (msg) VALUES ('routine maintenance note')"
		attack       = "/* q-users */ SELECT pass FROM users WHERE name = 'ann' OR 1=1-- '"
		// The benign INSERT's shape, sharing its slot: blocked by the
		// plugins on every execution.
		stored = "/* q-logs */ INSERT INTO logs (msg) VALUES ('<script>alert(1)</script>')"
	)

	var wg sync.WaitGroup
	failures := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				if _, err := db.Exec(benignSelect); err != nil {
					failures <- err
					return
				}
				if _, err := db.Exec(benignInsert); err != nil {
					failures <- err
					return
				}
				if _, err := db.Exec(attack); !errors.Is(err, engine.ErrQueryBlocked) {
					failures <- errors.New("attack was not blocked")
					return
				}
				if _, err := db.Exec(stored); !errors.Is(err, engine.ErrQueryBlocked) {
					failures <- errors.New("stored attack was not blocked")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(failures)
	for err := range failures {
		t.Fatal(err)
	}

	attacks := int64(sessions * iterations * 2)
	benign := int64(sessions * iterations * 2)

	stats := guard.Stats()
	if want := int64(len(training)) + benign + attacks; stats.QueriesSeen != want {
		t.Errorf("QueriesSeen = %d, want %d", stats.QueriesSeen, want)
	}
	if stats.ModelsLearned != int64(len(training)) {
		t.Errorf("ModelsLearned = %d, want %d", stats.ModelsLearned, len(training))
	}
	if stats.AttacksFound != attacks {
		t.Errorf("AttacksFound = %d, want %d", stats.AttacksFound, attacks)
	}
	if stats.AttacksBlocked != attacks {
		t.Errorf("AttacksBlocked = %d, want %d", stats.AttacksBlocked, attacks)
	}

	es := db.Stats()
	if want := int64(seeded+len(training)) + benign; es.Executed != want {
		t.Errorf("engine Executed = %d, want %d", es.Executed, want)
	}
	if es.Blocked != attacks {
		t.Errorf("engine Blocked = %d, want %d", es.Blocked, attacks)
	}
	if es.Failed != 0 {
		t.Errorf("engine Failed = %d, want 0", es.Failed)
	}
	if got, want := es.Executed+es.Blocked+es.Failed,
		int64(seeded+len(training))+benign+attacks; got != want {
		t.Errorf("engine counter sum = %d, want %d (every query accounted once)", got, want)
	}

	// The engine survived the stampede intact: every insert landed
	// (one from training plus one per session iteration).
	res, err := db.Exec("/* q-count */ SELECT COUNT(*) FROM logs")
	if err == nil && len(res.Rows) == 1 {
		if n, want := res.Rows[0][0].AsInt(), benign/2+1; n != int64(want) {
			t.Errorf("logs rows = %d, want %d", n, want)
		}
	}
}

// TestConcurrentAdminAndTraffic interleaves hot-path traffic with the
// control plane: config flips, admin review of the store, persistence
// snapshots. Nothing here asserts counts — the point is that -race and
// the store's COW invariants hold while readers and writers overlap.
func TestConcurrentAdminAndTraffic(t *testing.T) {
	guard := New(DefaultConfig())
	db := engine.New(engine.WithQueryHook(guard))
	for _, q := range []string{
		"CREATE TABLE t (id INT PRIMARY KEY, v TEXT)",
		"INSERT INTO t (id, v) VALUES (1, 'x')",
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = db.Exec("SELECT v FROM t WHERE id = 1")
			}
		}()
	}
	adminDone := make(chan struct{})
	path := t.TempDir() + "/models.json"
	go func() {
		defer close(adminDone)
		for i := 0; i < 50; i++ {
			guard.SetMode(ModeDetection)
			guard.SetMode(ModePrevention)
			guard.SetConfig(DefaultConfig())
			_ = guard.Store().UsageReport()
			for _, id := range guard.Store().PendingReview() {
				guard.Store().Approve(id)
			}
			if err := guard.Store().Save(path); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	<-adminDone
	close(stop)
	wg.Wait()
}
