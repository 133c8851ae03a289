package benchlab

import (
	"strings"
	"sync"
	"testing"

	"github.com/septic-db/septic/internal/attacks"
	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/engine"
)

// TestDomainIsolationConcurrentReplay is the acceptance scenario of the
// protection-domain refactor: one SEPTIC, one DBMS, two applications —
// Address Book still in ModeTraining (learning on every request) while
// WaspMon already runs ModePrevention. Concurrently with Address Book's
// training churn, WaspMon must block the paper's Fig. 2–4 attack corpus
// and keep serving its benign workload; and none of Address Book's
// learning may touch WaspMon's store, generation or cached verdicts.
func TestDomainIsolationConcurrentReplay(t *testing.T) {
	guard := core.New(core.Config{Mode: core.ModeTraining})
	db := engine.New(engine.WithQueryHook(guard))

	// Domain B: WaspMon — train, then prevention (YY, no incremental
	// learning, like the demo's phase D).
	wm := WaspMonSpec()
	bDom, err := guard.RegisterDomain(wm.Prefix, core.Config{
		Mode: core.ModeTraining, IncrementalLearning: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range wm.Schema {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("waspmon schema: %v", err)
		}
	}
	bApp := wm.Build(db)
	for _, req := range wm.Training {
		if resp := bApp.Serve(req.Clone()); resp.Status != 200 {
			t.Fatalf("waspmon training %s: %v", req, resp.Err)
		}
	}
	bDom.SetConfig(core.Config{
		Mode: core.ModePrevention, DetectSQLI: true, DetectStored: true,
	})

	// Domain A: Address Book — stays in training for the whole test.
	ab := PaperSpecs()[0]
	aDom, err := guard.RegisterDomain(ab.Prefix, core.Config{
		Mode: core.ModeTraining, IncrementalLearning: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ab.Schema {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("address book schema: %v", err)
		}
	}
	aApp := ab.Build(db)
	// One synchronous pass so A has verifiably learned even if the
	// background churn barely gets scheduled.
	for _, req := range ab.Training {
		if resp := aApp.Serve(req.Clone()); resp.Status != 200 {
			t.Fatalf("address book training %s: %v", req, resp.Err)
		}
	}

	bGen := bDom.Store().Generation()
	bModels := bDom.Store().ModelCount()

	// A trains continuously in the background while B is attacked.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, req := range ab.Training {
				_ = aApp.Serve(req.Clone())
			}
			for _, req := range ab.Workload {
				_ = aApp.Serve(req.Clone())
			}
		}
	}()

	// B's trained benign workload keeps passing under prevention (checked
	// before the attacks so stored-attack payloads can't contaminate it).
	for _, req := range wm.Workload {
		if resp := bApp.Serve(req.Clone()); resp.Status != 200 {
			t.Errorf("benign %s failed under prevention: %v", req, resp.Err)
		}
	}
	if st := bDom.Stats(); st.QueriesSeen == 0 || st.AttacksFound != 0 {
		t.Errorf("B after its benign replay: %d queries seen, %d attacks found; want its own queries counted and none flagged",
			st.QueriesSeen, st.AttacksFound)
	}
	// ... and the Fig. 2–4 corpus must be blocked, every case, while A's
	// training churns in the background.
	for _, c := range attacks.Corpus() {
		blocked := false
		for _, setup := range c.Setup {
			if resp := bApp.Serve(setup.Clone()); resp.Blocked {
				blocked = true
			}
		}
		if resp := bApp.Serve(c.Request.Clone()); resp.Blocked {
			blocked = true
		}
		if !blocked {
			t.Errorf("attack %s (%s) not blocked while A trains", c.Name, c.Class)
		}
	}
	close(stop)
	wg.Wait()

	// The isolation ledger.
	if aDom.Store().ModelCount() == 0 {
		t.Fatal("A learned nothing — the test exercised no cross-domain churn")
	}
	if got := bDom.Store().Generation(); got != bGen {
		t.Errorf("B's store generation moved %d → %d under A's training", bGen, got)
	}
	if got := bDom.Store().ModelCount(); got != bModels {
		t.Errorf("B's model count moved %d → %d under A's training", bModels, got)
	}
	if inv := bDom.CacheStats().Invalidations; inv != 0 {
		t.Errorf("B had %d verdict invalidations; A's learning must not touch B's cache", inv)
	}
	if bDom.Stats().AttacksBlocked == 0 {
		t.Error("B blocked nothing")
	}
	if aDom.Stats().AttacksFound != 0 {
		t.Errorf("A (training) reported %d attacks", aDom.Stats().AttacksFound)
	}
	// Every identifier in each store belongs to its own application.
	for _, id := range bDom.Store().IDs() {
		if !strings.HasPrefix(id, wm.Prefix+":") {
			t.Errorf("foreign identifier %q in B's store", id)
		}
	}
	for _, id := range aDom.Store().IDs() {
		if !strings.HasPrefix(id, ab.Prefix+":") {
			t.Errorf("foreign identifier %q in A's store", id)
		}
	}
}
