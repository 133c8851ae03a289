package core

import (
	"strings"
	"testing"

	"github.com/septic-db/septic/internal/obs"
)

func mustDomain(t *testing.T, s *Septic, name string) *Domain {
	t.Helper()
	d, err := s.RegisterDomain(name, Config{Mode: ModeTraining, IncrementalLearning: true})
	if err != nil {
		t.Fatalf("RegisterDomain(%q): %v", name, err)
	}
	return d
}

func TestRegisterDomainRejectsBadNames(t *testing.T) {
	sep := New(Config{Mode: ModeTraining})
	cfg := Config{Mode: ModeTraining}
	for _, tt := range []struct {
		name   string
		domain string
	}{
		{"empty", ""},
		{"reserved default", "default"},
		{"colon", "app:sub"},
		{"space", "two words"},
		{"newline", "app\nx"},
		{"control byte", "app\x01"},
		{"DEL", "app\x7f"},
		{"oversized", strings.Repeat("d", MaxExternalIDLen+1)},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := sep.RegisterDomain(tt.domain, cfg); err == nil {
				t.Errorf("RegisterDomain(%q) accepted an invalid name", tt.domain)
			}
		})
	}
	if _, err := sep.RegisterDomain("noconfig", Config{}); err == nil {
		t.Error("RegisterDomain with no mode must be rejected")
	}
	mustDomain(t, sep, "shop")
	if _, err := sep.RegisterDomain("shop", cfg); err == nil {
		t.Error("duplicate registration must be rejected")
	}
}

func TestDomainLookupAndListing(t *testing.T) {
	sep := New(Config{Mode: ModeTraining})
	shop := mustDomain(t, sep, "shop")
	blog := mustDomain(t, sep, "blog")

	if d, ok := sep.Domain("shop"); !ok || d != shop {
		t.Errorf("Domain(shop) = %v, %t", d, ok)
	}
	if d, ok := sep.Domain(DefaultDomain); !ok || d != sep.DefaultDomain() {
		t.Errorf("Domain(default) = %v, %t", d, ok)
	}
	if _, ok := sep.Domain("nope"); ok {
		t.Error("Domain(nope) found something")
	}
	if got := shop.Name(); got != "shop" {
		t.Errorf("Name() = %q", got)
	}
	if got := sep.DefaultDomain().Name(); got != DefaultDomain {
		t.Errorf("default Name() = %q", got)
	}

	all := sep.Domains()
	if len(all) != 3 || all[0] != sep.DefaultDomain() || all[1] != blog || all[2] != shop {
		names := make([]string, len(all))
		for i, d := range all {
			names[i] = d.Name()
		}
		t.Errorf("Domains() order = %v, want [default blog shop]", names)
	}
}

func TestDomainSetModePreservesConfig(t *testing.T) {
	sep := New(Config{Mode: ModeTraining})
	d := mustDomain(t, sep, "shop")
	d.SetConfig(Config{Mode: ModeTraining, DetectSQLI: true, DetectStored: true, FailOpen: true})
	d.SetMode(ModeDetection)
	if got := d.Mode(); got != ModeDetection {
		t.Errorf("Mode() = %v", got)
	}
	cfg := d.Config()
	if !cfg.DetectSQLI || !cfg.DetectStored || !cfg.FailOpen {
		t.Errorf("SetMode dropped config fields: %+v", cfg)
	}
	// The default domain and the guard-level accessors are untouched.
	if sep.Mode() != ModeTraining {
		t.Errorf("guard mode moved to %v with the domain's", sep.Mode())
	}
}

// TestDomainRouting drives BeforeExecute through each resolution branch
// and reads the per-domain counters to see where the query landed.
func TestDomainRouting(t *testing.T) {
	sep := New(Config{Mode: ModeTraining})
	shop := mustDomain(t, sep, "shop")
	seen := func(d *Domain) int64 { return d.Stats().QueriesSeen }

	// 1. Session-declared app name wins.
	hctx := hookCtxFor(t, "SELECT 1")
	hctx.App = "shop"
	if err := sep.BeforeExecute(hctx); err != nil {
		t.Fatal(err)
	}
	if seen(shop) != 1 {
		t.Fatalf("app-declared query did not land in shop: %d", seen(shop))
	}

	// 2. Unknown app name falls back to default.
	hctx = hookCtxFor(t, "SELECT 1")
	hctx.App = "stranger"
	if err := sep.BeforeExecute(hctx); err != nil {
		t.Fatal(err)
	}
	if seen(sep.DefaultDomain()) != 1 {
		t.Fatalf("unknown app did not fall back to default: %d", seen(sep.DefaultDomain()))
	}

	// 3. Comment prefix routes when no app is declared.
	if err := sep.BeforeExecute(hookCtxFor(t, "/* shop:q1 */ SELECT 1")); err != nil {
		t.Fatal(err)
	}
	if seen(shop) != 2 {
		t.Fatalf("comment prefix did not route to shop: %d", seen(shop))
	}

	// 4. Unknown prefix, prefix-free comment and no comment all land in
	// the default domain.
	for _, q := range []string{
		"/* stranger:q1 */ SELECT 1",
		"/* justalabel */ SELECT 1",
		"SELECT 1",
	} {
		if err := sep.BeforeExecute(hookCtxFor(t, q)); err != nil {
			t.Fatal(err)
		}
	}
	if seen(sep.DefaultDomain()) != 4 {
		t.Fatalf("default domain saw %d, want 4", seen(sep.DefaultDomain()))
	}
	if seen(shop) != 2 {
		t.Fatalf("shop saw %d, want 2 — routing leaked", seen(shop))
	}
}

// TestGuardStatsAggregateDomains pins the single-tenant API contract:
// Septic.Stats()/CacheStats() report the whole process — the default
// domain plus every registered one — so pre-domain dashboards keep
// seeing all traffic.
func TestGuardStatsAggregateDomains(t *testing.T) {
	sep := New(Config{Mode: ModeTraining})
	shop := mustDomain(t, sep, "shop")

	if err := sep.BeforeExecute(hookCtxFor(t, "/* shop:q */ SELECT 1")); err != nil {
		t.Fatal(err)
	}
	if err := sep.BeforeExecute(hookCtxFor(t, "SELECT 2")); err != nil {
		t.Fatal(err)
	}
	agg := sep.Stats()
	if agg.QueriesSeen != 2 {
		t.Errorf("aggregate QueriesSeen = %d, want 2", agg.QueriesSeen)
	}
	if agg.ModelsLearned != shop.Stats().ModelsLearned+sep.DefaultDomain().Stats().ModelsLearned {
		t.Errorf("aggregate ModelsLearned = %d, parts %d+%d", agg.ModelsLearned,
			shop.Stats().ModelsLearned, sep.DefaultDomain().Stats().ModelsLearned)
	}

	// Warm both verdict caches, then the aggregate must count both.
	shop.SetConfig(DefaultConfig())
	sep.SetConfig(DefaultConfig())
	inShop, inDefault := hookCtxFor(t, "/* shop:q */ SELECT 1"), hookCtxFor(t, "SELECT 2")
	for i := 0; i < 2; i++ {
		if err := sep.BeforeExecute(inShop); err != nil {
			t.Fatal(err)
		}
		if err := sep.BeforeExecute(inDefault); err != nil {
			t.Fatal(err)
		}
	}
	cs := sep.CacheStats()
	if want := shop.CacheStats().Hits + sep.DefaultDomain().CacheStats().Hits; cs.Hits != want || cs.Hits == 0 {
		t.Errorf("aggregate cache hits = %d, want %d (nonzero)", cs.Hits, want)
	}
}

func TestDomainGaugesExported(t *testing.T) {
	hub := obs.NewHub()
	sep := New(Config{Mode: ModeTraining},
		WithObserver(hub))
	mustDomain(t, sep, "shop")
	if err := sep.BeforeExecute(hookCtxFor(t, "/* shop:q */ SELECT 1")); err != nil {
		t.Fatal(err)
	}
	snap := hub.Metrics.Snapshot()
	for _, g := range []string{
		"core.domain.shop.queries_seen",
		"core.domain.shop.models_learned",
		"core.domain.shop.store.models",
		"core.domain.shop.verdict_cache.hits",
	} {
		if _, ok := snap.Gauges[g]; !ok {
			t.Errorf("gauge %q not exported", g)
		}
	}
	if snap.Gauges["core.domain.shop.queries_seen"] != 1 {
		t.Errorf("shop queries_seen gauge = %d, want 1",
			snap.Gauges["core.domain.shop.queries_seen"])
	}
	// The aggregate process-level gauge still counts everything.
	if snap.Gauges["core.queries_seen"] != 1 {
		t.Errorf("aggregate queries_seen gauge = %d, want 1",
			snap.Gauges["core.queries_seen"])
	}
}

func TestEventStringCarriesDomain(t *testing.T) {
	ev := Event{Kind: EventDomainRegistered, Domain: "shop", Detail: "x"}
	if s := ev.String(); !strings.Contains(s, "domain=shop") {
		t.Errorf("event rendering lost the domain: %q", s)
	}
	// The default domain stays invisible so pre-domain log output is
	// byte-identical.
	ev = Event{Kind: EventModeChanged, Domain: DefaultDomain, Detail: "x"}
	if s := ev.String(); strings.Contains(s, "domain=") {
		t.Errorf("default domain leaked into rendering: %q", s)
	}
}

// TestDomainIsolationOfVerdicts is the heart of the refactor at the
// unit level: the same query text trained benign in one domain is still
// judged an attack in a domain that never learned it.
func TestDomainIsolationOfVerdicts(t *testing.T) {
	sep := New(Config{Mode: ModeTraining})
	a := mustDomain(t, sep, "appa")
	b := mustDomain(t, sep, "appb")

	train := "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234"
	if err := sep.BeforeExecute(hookCtxFor(t, "/* appa:t */ "+train)); err != nil {
		t.Fatal(err)
	}
	prevention := Config{Mode: ModePrevention, DetectSQLI: true, DetectStored: true}
	a.SetConfig(prevention)
	b.SetConfig(prevention)

	attack := "SELECT * FROM tickets WHERE reservID = 'ID34FG' OR 1=1-- ' AND creditCard = 0"
	if err := sep.BeforeExecute(hookCtxFor(t, "/* appa:t */ "+attack)); err == nil {
		t.Fatal("A must block the tautology against its learned model")
	}
	// B never learned the query: under prevention without incremental
	// learning the unknown identifier is not silently admitted as benign
	// — but more importantly, A's model must not vouch for it.
	if got := b.Stats().AttacksFound; got != 0 {
		t.Fatalf("B counted %d attacks before seeing traffic", got)
	}
	if a.Stats().AttacksBlocked != 1 {
		t.Errorf("A blocked %d, want 1", a.Stats().AttacksBlocked)
	}
	if sep.DefaultDomain().Stats().AttacksFound != 0 {
		t.Error("attack leaked into the default domain's counters")
	}
}
