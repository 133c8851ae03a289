package core

import (
	"strings"
	"sync"
	"testing"

	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/obs"
)

// fig2Benign / fig3Attack are the paper's running example: the benign
// ticket lookup of Fig. 2 and the second-order injection of Fig. 3
// (the prime ʼ U+02BC decodes to a closing quote).
const (
	fig2Benign = "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234"
	fig3Attack = "SELECT * FROM tickets WHERE reservID = 'ID34FGʼ-- ' AND creditCard = 0"
)

// obsDeployment builds an instrumented engine+guard, trained on the
// Fig. 2 query and switched to prevention.
func obsDeployment(t *testing.T) (*obs.Hub, *engine.DB, *Septic) {
	t.Helper()
	hub := obs.NewHub()
	sep := New(Config{Mode: ModeTraining}, WithObserver(hub))
	db := engine.New(engine.WithQueryHook(sep), engine.WithObs(hub))
	for _, q := range []string{
		"CREATE TABLE tickets (id INT PRIMARY KEY AUTO_INCREMENT, reservID TEXT, creditCard INT)",
		"INSERT INTO tickets (reservID, creditCard) VALUES ('ID34FG', 1234)",
		fig2Benign, // learn the model
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("setup %q: %v", q, err)
		}
	}
	sep.SetConfig(DefaultConfig())
	return hub, db, sep
}

// TestObsEndToEnd replays the paper's Fig. 2/3 pair through an
// instrumented deployment and asserts the whole observable surface: the
// stage and hook histograms fill, the attack lands in the event ring
// with its detector, distance and action, and the mode change and store
// mutations are there too.
func TestObsEndToEnd(t *testing.T) {
	hub, db, sep := obsDeployment(t)

	if _, err := db.Exec(fig2Benign); err != nil { // full pipeline (miss)
		t.Fatalf("benign: %v", err)
	}
	if _, err := db.Exec(fig2Benign); err != nil { // cached hit
		t.Fatalf("benign repeat: %v", err)
	}
	if _, err := db.Exec(fig3Attack); err == nil {
		t.Fatal("Fig. 3 attack executed in prevention mode")
	}

	snap := hub.Metrics.Snapshot()
	for _, name := range []string{
		"engine.stage.parse.cache_miss",
		"engine.stage.parse.cache_hit",
		"engine.stage.validate",
		"engine.stage.hook",
		"engine.stage.execute",
		"engine.stage.total",
		"core.hook.cached_hit",
		"core.hook.full",
	} {
		if snap.Histograms[name].Count == 0 {
			t.Errorf("histogram %q empty after the replay", name)
		}
	}
	if snap.Gauges["core.attacks_blocked"] != 1 {
		t.Errorf("core.attacks_blocked = %d, want 1", snap.Gauges["core.attacks_blocked"])
	}
	if snap.Gauges["core.store.identifiers"] == 0 {
		t.Error("store gauges did not report the learned model")
	}

	attacks := sep.Logger().Recent("attack", 0)
	if len(attacks) != 1 {
		t.Fatalf("attack events = %d, want 1", len(attacks))
	}
	a := attacks[0]
	if a.Detector() != "sqli/structural" {
		t.Errorf("detector = %q, want sqli/structural (Fig. 3 changes the stack shape)", a.Detector())
	}
	if a.Distance == 0 {
		t.Error("attack event has zero distance")
	}
	if a.Attack != AttackSQLI || a.Action != "blocked" {
		t.Errorf("class/action = %q/%q, want sqli/blocked", a.Attack, a.Action)
	}
	if a.Skeleton == "" || !strings.Contains(a.Query, "--") {
		t.Errorf("event missing skeleton or query text: %+v", a)
	}
	if len(sep.Logger().Recent("mode", 0)) == 0 {
		t.Error("SetConfig recorded no mode event")
	}
	if len(sep.Logger().Recent("store", 0)) == 0 {
		t.Error("model learning recorded no store event")
	}
}

// TestObsSyntacticalDistance drives the Fig. 4 mimicry attack (same
// node count, mismatching nodes) and checks the syntactical detector
// and the first-mismatch distance are reported.
func TestObsSyntacticalDistance(t *testing.T) {
	_, db, sep := obsDeployment(t)
	mimicry := "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND 1=1-- ' AND creditCard = 0"
	if _, err := db.Exec(mimicry); err == nil {
		t.Fatal("Fig. 4 mimicry executed in prevention mode")
	}
	attacks := sep.Logger().Attacks()
	if len(attacks) != 1 {
		t.Fatalf("attack events = %d, want 1", len(attacks))
	}
	if attacks[0].Detector() != "sqli/syntactical" {
		t.Errorf("detector = %q, want sqli/syntactical", attacks[0].Detector())
	}
	if attacks[0].Distance == 0 {
		t.Error("syntactical distance should point at the first mismatching node index")
	}
}

// TestObsCacheInvalidationEvent checks a config bump surfaces as a
// cache event when the stale entry is next looked up.
func TestObsCacheInvalidationEvent(t *testing.T) {
	_, db, sep := obsDeployment(t)
	if _, err := db.Exec(fig2Benign); err != nil { // populate the cache
		t.Fatalf("benign: %v", err)
	}
	cfg := sep.Config()
	cfg.DetectStored = !cfg.DetectStored
	sep.SetConfig(cfg) // bump the config generation
	if _, err := db.Exec(fig2Benign); err != nil {
		t.Fatalf("benign after config change: %v", err)
	}
	events := sep.Logger().Recent("cache", 0)
	if len(events) == 0 {
		t.Fatal("stale lookup recorded no cache event")
	}
	if !strings.Contains(events[0].Detail, "configuration generation") {
		t.Errorf("cache event detail = %q, want a configuration-generation cause", events[0].Detail)
	}
}

// TestStatsNeverOverReports locks in the Stats read-order contract:
// under concurrent attack traffic, every snapshot must satisfy
// AttacksBlocked <= AttacksFound <= QueriesSeen. Runs meaningfully
// under -race (where it also exercises the counters for data races)
// but asserts the ordering invariant in every mode.
func TestStatsNeverOverReports(t *testing.T) {
	sep := New(DefaultConfig())
	benign := hookCtxFor(t, fig2Benign)
	if err := func() error { // learn under training so the attack has a model
		sep.SetMode(ModeTraining)
		defer sep.SetMode(ModePrevention)
		return sep.BeforeExecute(benign)
	}(); err != nil {
		t.Fatalf("training: %v", err)
	}
	attack := hookCtxFor(t, fig3Attack)

	done := make(chan struct{})
	var writers, reader sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 2000; i++ {
				_ = sep.BeforeExecute(attack) // blocked every time
				_ = sep.BeforeExecute(benign)
			}
		}()
	}
	reader.Add(1)
	go func() { // snapshot reader racing the writers
		defer reader.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			st := sep.Stats()
			if st.AttacksBlocked > st.AttacksFound {
				t.Errorf("torn read: blocked %d > found %d", st.AttacksBlocked, st.AttacksFound)
				return
			}
			if st.AttacksFound > st.QueriesSeen {
				t.Errorf("torn read: found %d > seen %d", st.AttacksFound, st.QueriesSeen)
				return
			}
		}
	}()
	writers.Wait()
	close(done)
	reader.Wait()

	st := sep.Stats()
	if st.AttacksFound != 4*2000 || st.AttacksBlocked != 4*2000 {
		t.Errorf("final stats: found %d blocked %d, want %d each",
			st.AttacksFound, st.AttacksBlocked, 4*2000)
	}
}
