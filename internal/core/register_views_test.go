package core

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/faultinject"
	"github.com/septic-db/septic/internal/overload"
	"github.com/septic-db/septic/internal/wal"
)

// watchedGuard is a guard whose register feeds a display and an audit
// stream the test can read back. entries stands in for the engine's parse
// cache: a text run again is the same entry, slot included.
type watchedGuard struct {
	sep            *Septic
	display, audit bytes.Buffer
	entries        map[string]*engine.HookContext
}

func newWatchedGuard(cfg Config) *watchedGuard {
	g := &watchedGuard{entries: make(map[string]*engine.HookContext)}
	g.sep = New(cfg, WithLogger(NewLogger(WithStream(&g.display), WithJSONStream(&g.audit))))
	return g
}

func (g *watchedGuard) run(t *testing.T, q string) {
	t.Helper()
	if g.entries[q] == nil {
		g.entries[q] = hookCtxFor(t, q)
	}
	_ = g.sep.BeforeExecute(g.entries[q])
}

// TestEveryEmitSiteReachesEveryView drives each place the guard records
// something and looks the record up in all four views — Events(), the
// display line, the audit line, the /events JSON — so nothing can be
// visible in one and missing from another again. The one exception is in
// the kind table, not in a second emit call: cache invalidations are quiet
// on the display.
func TestEveryEmitSiteReachesEveryView(t *testing.T) {
	training := DefaultConfig()
	training.Mode = ModeTraining
	primary, replica := newWatchedGuard(training), newWatchedGuard(DefaultConfig())
	dir := t.TempDir()
	var persist *Persistence
	var rs *ReplicaState
	defer func() { _ = persist.Close() }()
	defer faultinject.Disarm()
	defer faultinject.DisarmErr()
	lastID := func() string {
		events := primary.sep.Logger().Recent("store", 1)
		return events[0].QueryID
	}

	sites := []struct {
		name          string
		kind          EventKind
		group, domain string
		detail        string
		onReplica     bool
		drive         func()
	}{
		{"learn in training", EventModelLearned, "store", "default", "model learned", false,
			func() { primary.run(t, fig2Benign) }},
		{"RegisterDomain", EventDomainRegistered, "mode", "shop", "domain registered", false,
			func() { _, _ = primary.sep.RegisterDomain("shop", DefaultConfig()) }},
		{"SetMode", EventModeChanged, "mode", "default", "mode set to prevention", false,
			func() { primary.sep.SetMode(ModePrevention) }},
		{"passed check", EventQueryChecked, "checked", "", "", false,
			func() { primary.run(t, fig2Benign) }},
		{"SetConfig", EventModeChanged, "mode", "default", "config set", false,
			func() { primary.sep.SetConfig(DefaultConfig()) }},
		{"stale cached verdict", EventCacheInvalidated, "cache", "default", "configuration generation moved", false,
			func() { primary.run(t, fig2Benign) }},
		{"learn incrementally", EventNewQuery, "store", "default", "model learned", false,
			func() { primary.run(t, "SELECT name FROM users WHERE id = 7") }},
		{"Approve", EventStoreChanged, "store", "default", "identifier approved", false,
			func() { primary.sep.Store().Approve(lastID()) }},
		{"Delete", EventStoreChanged, "store", "default", "identifier deleted", false,
			func() { primary.sep.Store().Delete(lastID()) }},
		{"Load", EventStoreChanged, "store", "default", "store reloaded", false,
			func() {
				path := filepath.Join(dir, "models.json")
				if err := primary.sep.Store().Save(path); err != nil {
					t.Fatal(err)
				}
				if err := primary.sep.Store().Load(path); err != nil {
					t.Fatal(err)
				}
			}},
		{"blocked attack", EventAttackBlocked, "attack", "default", "query structure has", false,
			func() { primary.run(t, fig3Attack) }},
		{"logged attack", EventAttackDetected, "attack", "default", "query structure has", false,
			func() {
				primary.sep.SetMode(ModeDetection)
				primary.run(t, fig3Attack)
				primary.sep.SetMode(ModePrevention)
			}},
		{"contained guard fault", EventGuardFault, "guard-fault", "default", "injected detector fault", false,
			func() {
				faultinject.Arm(func(site string) {
					if site == faultinject.SiteCoreDetect {
						panic("injected detector fault")
					}
				})
				primary.run(t, fig2Benign)
				faultinject.Disarm()
			}},
		{"breaker transition", EventOverload, "overload", "default", "detection breaker closed -> open", false,
			func() { primary.sep.def.noteBreaker(overload.Closed, overload.Open) }},
		{"recovery", EventDurability, "wal", "", "durability attached", false,
			func() {
				var err error
				persist, err = primary.sep.AttachPersistence(PersistenceOptions{
					Dir: filepath.Join(dir, "wal"), Fsync: wal.FsyncNever})
				if err != nil {
					t.Fatal(err)
				}
			}},
		{"failed WAL append", EventDurability, "wal", "default", "wal append failed (put)", false,
			func() {
				faultinject.ArmErr(faultinject.FailPoint(faultinject.SiteWALAppend, 1))
				primary.run(t, "SELECT name FROM users WHERE id = 7")
				faultinject.DisarmErr()
			}},
		{"checkpoint taken", EventDurability, "wal", "", "checkpoint at wal seq", false,
			func() {
				if err := persist.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}},
		{"failed checkpoint", EventDurability, "wal", "", "checkpoint failed", false,
			func() {
				faultinject.ArmErr(faultinject.FailPoint(faultinject.SiteCheckpoint, 1))
				persist.safeCheckpoint()
				faultinject.DisarmErr()
			}},
		{"panicking checkpoint", EventDurability, "wal", "", "checkpoint panic contained", false,
			func() {
				faultinject.Arm(func(site string) {
					if site == faultinject.SiteCheckpoint {
						panic("disk on fire")
					}
				})
				persist.safeCheckpoint()
				faultinject.Disarm()
			}},
		{"AttachReplicaSource", EventModeChanged, "mode", "", "replica mode", true,
			func() {
				var err error
				if rs, err = replica.sep.AttachReplicaSource(); err != nil {
					t.Fatal(err)
				}
			}},
		{"replication snapshot", EventDurability, "wal", "", "replication snapshot installed", true,
			func() {
				barrier, data, err := persist.ReplSnapshot()
				if err != nil {
					t.Fatal(err)
				}
				if err := rs.ApplySnapshot(barrier, data); err != nil {
					t.Fatal(err)
				}
			}},
		{"Promote", EventModeChanged, "mode", "", "replica promoted to primary", true,
			func() { rs.Promote() }},
	}
	for _, site := range sites {
		g := primary
		if site.onReplica {
			g = replica
		}
		before := g.sep.Logger().Events()
		site.drive()
		var rec *Event
		for _, e := range g.sep.Logger().Events()[len(before):] {
			if e.Kind == site.kind && strings.Contains(e.Detail, site.detail) {
				e := e
				rec = &e
			}
		}
		if rec == nil {
			t.Errorf("%s: no %s record (%q) in Events()", site.name, site.kind, site.detail)
			continue
		}
		if rec.Domain != site.domain {
			t.Errorf("%s: record names domain %q, want %q", site.name, rec.Domain, site.domain)
		}

		line := rec.String() + "\n"
		if shown := strings.Contains(g.display.String(), line); shown == site.kind.info().quiet {
			t.Errorf("%s: on the display = %t, the kind table says quiet = %t", site.name, shown, !shown)
		}

		var audited map[string]any
		for _, l := range strings.Split(g.audit.String(), "\n") {
			var entry map[string]any
			if json.Unmarshal([]byte(l), &entry) == nil && entry["seq"] == float64(rec.Seq) {
				audited = entry
			}
		}
		if audited == nil || audited["kind"] != site.kind.String() || audited["detail"] != jsonField(rec.Detail) ||
			audited["domain"] != jsonField(site.domain) {
			t.Errorf("%s: audit line for seq %d = %v", site.name, rec.Seq, audited)
		}

		body, err := json.Marshal(g.sep.Logger().Recent(site.group, 0))
		if err != nil {
			t.Fatal(err)
		}
		var served []map[string]any
		if err := json.Unmarshal(body, &served); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, entry := range served {
			if entry["seq"] == float64(rec.Seq) {
				found = entry["kind"] == site.group && entry["domain"] == jsonField(site.domain) &&
					entry["detail"] == jsonField(rec.Detail)
			}
		}
		if !found {
			t.Errorf("%s: /events?kind=%s does not serve seq %d: %s", site.name, site.group, rec.Seq, body)
		}
	}
}

// jsonField is what an omitempty string decodes back to: nil when empty.
func jsonField(s string) any {
	if s == "" {
		return nil
	}
	return s
}
