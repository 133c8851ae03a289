package core

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync/atomic"

	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/overload"
)

// DefaultDomain names the protection domain queries fall into when no
// registered domain claims them: the single-tenant behaviour every
// deployment starts with.
const DefaultDomain = "default"

// Domain is one protection domain: the unit of multi-tenant isolation.
// The paper's deployment runs ONE SEPTIC inside one DBMS protecting
// four applications at once, each with its own learned query models and
// its own training→detection→prevention lifecycle; a Domain is exactly
// that per-application scope. It owns
//
//   - a private model Store (training one application never widens
//     another's models — the cross-app pollution that is both a
//     false-positive and a false-negative source),
//   - an independent operation Mode and detection Config (one app can
//     still be training while another already blocks),
//   - its own FailOpen policy,
//   - its own verdicts (each is tagged with the domain it was computed
//     in: a benign verdict for app A can never be served to app B, and
//     A's store churn never invalidates B's), and
//   - its own Stats counters.
//
// The ID generator, detector plugin chain, logger and metrics registry
// remain shared across domains: they are stateless (or append-only)
// modules, not learned knowledge.
//
// Domains are created by Septic.RegisterDomain and live for the Septic's
// lifetime. All methods are safe for concurrent use.
type Domain struct {
	name string
	sep  *Septic

	store *Store

	// cfg is the domain's configuration snapshot; see Septic.cfg for the
	// publication protocol.
	cfg atomic.Pointer[Config]

	// cfgGen counts this domain's configuration changes; stamps verdicts
	// (see Septic.cfgGen — the mechanism is per-domain so one domain's
	// mode flip never invalidates another domain's verdicts).
	cfgGen atomic.Uint64

	// cacheHits and cacheMisses count the domain's verdict lookups (recall);
	// invalidations the misses that found a verdict of this domain with
	// stale stamps — a high rate means the store or configuration is
	// churning under the memo.
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	invalidations atomic.Int64

	queriesSeen    atomic.Int64
	modelsLearned  atomic.Int64
	newQueries     atomic.Int64
	queriesChecked atomic.Int64
	attacksFound   atomic.Int64
	attacksBlocked atomic.Int64
	guardFaults    atomic.Int64

	// ovl is the domain's overload controls (quota, detection breaker,
	// shed accounting), shared by value with the wire server so both
	// layers count against the same object. Never nil — newDomain
	// installs inert controls, so the hot path's single atomic load
	// needs no branch.
	ovl atomic.Pointer[overload.Controls]
	// brownouts counts verdict-cache misses answered by the fail stance
	// while the detection breaker was open.
	brownouts atomic.Int64
}

// Name returns the domain's registered name ("default" for the default
// domain).
func (d *Domain) Name() string { return d.name }

// Store exposes the domain's private model store (persistence, admin
// review) — never shared with any other domain.
func (d *Domain) Store() *Store { return d.store }

// Mode returns the domain's current operation mode.
func (d *Domain) Mode() Mode { return d.cfg.Load().Mode }

// Config returns the domain's current configuration.
func (d *Domain) Config() Config { return *d.cfg.Load() }

// SetMode switches this domain's operation mode without touching any
// other domain. Other configuration fields are preserved even against a
// racing SetConfig.
func (d *Domain) SetMode(m Mode) {
	for {
		old := d.cfg.Load()
		next := *old
		next.Mode = m
		if d.cfg.CompareAndSwap(old, &next) {
			break
		}
	}
	// Bump AFTER publishing: a reader that still observes the old
	// generation computed against at-most-old configuration, and its
	// cached verdict dies with the bump.
	d.cfgGen.Add(1)
	d.sep.logger.Log(Event{Kind: EventModeChanged, Domain: d.name,
		Detail: "mode set to " + m.String()})
}

// SetConfig replaces this domain's whole configuration.
func (d *Domain) SetConfig(cfg Config) {
	d.cfg.Store(&cfg)
	d.cfgGen.Add(1)
	d.sep.logger.Log(Event{Kind: EventModeChanged, Domain: d.name,
		Detail: fmt.Sprintf("config set: mode=%s sqli=%t stored=%t",
			cfg.Mode, cfg.DetectSQLI, cfg.DetectStored)})
}

// SetOverload installs the domain's overload controls (per-domain
// quota, detection breaker). nil resets to inert controls. The wire
// server resolves the same Controls per session, so quota enforcement
// there and the counters reported here are one set of numbers. A
// breaker's state transitions are logged to the event register.
func (d *Domain) SetOverload(c *overload.Controls) {
	if c == nil {
		c = overload.NewControls(nil, nil)
	}
	if c.Breaker != nil {
		c.Breaker.OnStateChange(func(from, to overload.State) { d.noteBreaker(from, to) })
	}
	d.ovl.Store(c)
}

// Overload returns the domain's overload controls; never nil.
func (d *Domain) Overload() *overload.Controls { return d.ovl.Load() }

// noteBreaker records one detection-breaker transition — brownout entry
// and recovery are operator-grade events, unlike the per-query brownout
// outcomes (which only count, so an open breaker under flood cannot
// flood the register too).
func (d *Domain) noteBreaker(from, to overload.State) {
	d.sep.logger.Log(Event{Kind: EventOverload, Domain: d.name,
		Detail: fmt.Sprintf("detection breaker %s -> %s", from, to)})
}

// Stats snapshots this domain's work counters. The dependent counter is
// read before its antecedent (blocked before found before seen) so the
// invariants AttacksBlocked ≤ AttacksFound ≤ QueriesSeen hold in every
// snapshot; see Septic.Stats for the full argument. The overload
// counters are independent of that chain and carry no cross-invariant.
func (d *Domain) Stats() Stats {
	blocked := d.attacksBlocked.Load()
	found := d.attacksFound.Load()
	faults := d.guardFaults.Load()
	learned := d.modelsLearned.Load()
	fresh := d.newQueries.Load()
	checked := d.queriesChecked.Load()
	seen := d.queriesSeen.Load()
	ctl := d.ovl.Load()
	return Stats{
		QueriesSeen:    seen,
		ModelsLearned:  learned,
		NewQueries:     fresh,
		QueriesChecked: checked,
		AttacksFound:   found,
		AttacksBlocked: blocked,
		GuardFaults:    faults,
		Shed:           ctl.Sheds(),
		QuotaRejected:  ctl.QuotaRejected(),
		BreakerTrips:   ctl.BreakerTrips(),
		Cache:          d.CacheStats(),
	}
}

// CacheStats returns the domain's verdict-memo counters alone.
func (d *Domain) CacheStats() CacheStats {
	return CacheStats{
		Hits:          d.cacheHits.Load(),
		Misses:        d.cacheMisses.Load(),
		Invalidations: d.invalidations.Load(),
		Brownouts:     d.brownouts.Load(),
	}
}

// validDomainName reports whether name can be registered: non-empty, not
// the reserved default, and free of the external-ID separator (':') and
// of whitespace/control bytes, so a registered name is always reachable
// through a "/* name:rest */" comment prefix and never collides with the
// malformed-comment rejection in ExternalID.
func validDomainName(name string) error {
	if name == "" {
		return fmt.Errorf("domain name must not be empty")
	}
	if name == DefaultDomain {
		return fmt.Errorf("domain name %q is reserved", DefaultDomain)
	}
	if len(name) > MaxExternalIDLen {
		return fmt.Errorf("domain name exceeds %d bytes", MaxExternalIDLen)
	}
	if i := strings.IndexFunc(name, func(r rune) bool {
		return r == ':' || r <= ' ' || r == 0x7f
	}); i >= 0 {
		return fmt.Errorf("domain name %q contains %q", name, name[i])
	}
	return nil
}

// RegisterDomain creates a new protection domain and publishes it to the
// router. Queries reach the domain through the session-declared app name
// (the wire HELLO handshake) or through the application prefix of the
// external comment identifier ("/* name:query-id */ SELECT ..."). The
// domain starts with an empty private store and the given configuration.
func (s *Septic) RegisterDomain(name string, cfg Config) (*Domain, error) {
	if err := validDomainName(name); err != nil {
		return nil, err
	}
	if cfg.Mode == ModeInvalid {
		return nil, fmt.Errorf("domain %q: configuration has no mode", name)
	}
	s.regMu.Lock()
	defer s.regMu.Unlock()
	cur := *s.domains.Load()
	if _, dup := cur[name]; dup {
		return nil, fmt.Errorf("domain %q already registered", name)
	}
	d := s.newDomain(name, cfg, NewStore())
	if s.replica.Load() {
		// Replica mode covers domains registered after attach too: the
		// new store must only ever be written by the replication applier.
		d.store.setReadOnly(true)
	}
	if s.persist != nil {
		// Durability is already attached: the new domain's mutations must
		// hit the WAL from its very first learned model. Bound before
		// publication, so no query can reach the store sink-less.
		s.persist.bind(d)
	}
	next := maps.Clone(cur)
	next[name] = d
	// Publish copy-on-write: the hot path loads the snapshot pointer once
	// and reads an immutable map — registration never blocks a query.
	s.domains.Store(&next)
	if s.obs != nil {
		s.registerDomainGauges(d)
	}
	s.logger.Log(Event{Kind: EventDomainRegistered, Domain: name,
		Detail: fmt.Sprintf("domain registered (mode=%s sqli=%t stored=%t fail-open=%t)",
			cfg.Mode, cfg.DetectSQLI, cfg.DetectStored, cfg.FailOpen)})
	return d, nil
}

// Domain returns the registered domain called name; the default domain
// is reachable as DefaultDomain.
func (s *Septic) Domain(name string) (*Domain, bool) {
	if name == DefaultDomain {
		return s.def, true
	}
	d, ok := (*s.domains.Load())[name]
	return d, ok
}

// DefaultDomain returns the domain unclaimed queries fall into — the
// single-tenant domain every Septic starts with.
func (s *Septic) DefaultDomain() *Domain { return s.def }

// Domains lists every domain — the default first, the registered ones
// sorted by name.
func (s *Septic) Domains() []*Domain {
	m := *s.domains.Load()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Domain, 0, len(m)+1)
	out = append(out, s.def)
	for _, name := range names {
		out = append(out, m[name])
	}
	return out
}

// domainFor routes one query to its protection domain. Resolution is a
// single map lookup off an atomic snapshot — no locks, no allocation:
//
//  1. A session-declared app name (ctx.App, bound by the wire HELLO
//     handshake) wins when it names a registered domain.
//  2. Otherwise the application prefix of the external comment
//     identifier ("/* app:rest */") routes, when registered.
//  3. Everything else — no declaration, unknown names, single-tenant
//     deployments — lands in the default domain, preserving the
//     pre-domain behaviour exactly.
func (s *Septic) domainFor(ctx *engine.HookContext) *Domain {
	m := *s.domains.Load()
	if len(m) == 0 {
		return s.def
	}
	if ctx.App != "" {
		if d, ok := m[ctx.App]; ok {
			return d
		}
		return s.def
	}
	if ext := ExternalID(ctx.Comments); ext != "" {
		if p := AppPrefix(ext); p != "" {
			if d, ok := m[p]; ok {
				return d
			}
		}
	}
	return s.def
}

// registerDomainGauges exports one domain's counters under
// core.domain.<name>.* so /metrics is domain-labelled. Called with
// s.regMu held (or at construction, before sharing).
func (s *Septic) registerDomainGauges(d *Domain) {
	m := s.obs.Metrics
	prefix := "core.domain." + d.name + "."
	m.GaugeFunc(prefix+"queries_seen", d.queriesSeen.Load)
	m.GaugeFunc(prefix+"models_learned", d.modelsLearned.Load)
	m.GaugeFunc(prefix+"attacks_found", d.attacksFound.Load)
	m.GaugeFunc(prefix+"attacks_blocked", d.attacksBlocked.Load)
	m.GaugeFunc(prefix+"guard_faults", d.guardFaults.Load)
	m.GaugeFunc(prefix+"shed", func() int64 { return d.ovl.Load().Sheds() })
	m.GaugeFunc(prefix+"quota_rejected", func() int64 { return d.ovl.Load().QuotaRejected() })
	m.GaugeFunc(prefix+"breaker_trips", func() int64 { return d.ovl.Load().BreakerTrips() })
	m.GaugeFunc(prefix+"brownouts", d.brownouts.Load)
	m.GaugeFunc(prefix+"store.identifiers", func() int64 { return int64(d.store.Len()) })
	m.GaugeFunc(prefix+"store.models", func() int64 { return int64(d.store.ModelCount()) })
	m.GaugeFunc(prefix+"verdict_cache.hits", d.cacheHits.Load)
	m.GaugeFunc(prefix+"verdict_cache.misses", d.cacheMisses.Load)
}
