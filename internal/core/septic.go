package core

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/faultinject"
	"github.com/septic-db/septic/internal/obs"
	"github.com/septic-db/septic/internal/overload"
	"github.com/septic-db/septic/internal/qstruct"
)

// Mode is SEPTIC's operation mode (paper §II-E and Table I).
type Mode int

// Operation modes. Enums start at 1 so the zero value is invalid.
const (
	ModeInvalid Mode = iota
	// ModeTraining learns a query model for every distinct query and
	// executes everything; no detection runs.
	ModeTraining
	// ModeDetection finds and logs attacks but still executes the
	// queries (Table I row "Detection": log, no drop, exec).
	ModeDetection
	// ModePrevention finds, logs and blocks attacks: the query is
	// dropped and never executed.
	ModePrevention
)

// String names the mode the way the status display does.
func (m Mode) String() string {
	switch m {
	case ModeTraining:
		return "training"
	case ModeDetection:
		return "detection"
	case ModePrevention:
		return "prevention"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config selects SEPTIC's mode and which detections run. The four
// on/off combinations of DetectSQLI × DetectStored are the NN/YN/NY/YY
// configurations of the paper's performance study (§II-F, Fig. 5).
// Every protection domain carries its own Config, so one application
// can still be training while another already prevents.
type Config struct {
	Mode Mode
	// DetectSQLI enables query-model comparison.
	DetectSQLI bool
	// DetectStored enables the stored-injection plugin chain.
	DetectStored bool
	// IncrementalLearning controls whether normal mode learns models for
	// unknown queries on the fly (paper default: yes, flagged for later
	// administrator review).
	IncrementalLearning bool
	// FailOpen selects the policy applied when the protection path itself
	// faults (a panic in the parser, detector or a plugin). The default,
	// fail-closed, blocks the query: a broken guard must never silently
	// admit traffic, per the paper's §II security argument — SEPTIC is
	// only a defense if it cannot be knocked out of the request path.
	// Fail-open instead logs the incident and admits the query,
	// prioritizing availability over protection; it is an explicit
	// operator opt-in (septicd -fail-open, or per domain in the
	// -domains file).
	FailOpen bool
}

// DefaultConfig is prevention mode with both detections on (YY).
func DefaultConfig() Config {
	return Config{
		Mode:                ModePrevention,
		DetectSQLI:          true,
		DetectStored:        true,
		IncrementalLearning: true,
	}
}

// Stats aggregates SEPTIC's work counters.
type Stats struct {
	QueriesSeen   int64
	ModelsLearned int64
	// NewQueries counts the subset of ModelsLearned learned incrementally,
	// outside training mode (pending administrator review).
	NewQueries int64
	// QueriesChecked counts queries compared against their model and
	// passed, verdict-cache hits included.
	QueriesChecked int64
	AttacksFound   int64
	AttacksBlocked int64
	// GuardFaults counts contained panics in the protection path.
	GuardFaults int64
	// Shed counts requests the shared admission controller rejected on
	// this domain's behalf (typed shed responses, wire layer).
	Shed int64
	// QuotaRejected counts requests the domain's own quota refused.
	QuotaRejected int64
	// BreakerTrips counts how many times the domain's detection breaker
	// opened (brownout entries).
	BreakerTrips int64
	// Cache reports verdict-cache effectiveness.
	Cache CacheStats
}

// add accumulates another snapshot (domain aggregation).
func (s *Stats) add(o Stats) {
	s.QueriesSeen += o.QueriesSeen
	s.ModelsLearned += o.ModelsLearned
	s.NewQueries += o.NewQueries
	s.QueriesChecked += o.QueriesChecked
	s.AttacksFound += o.AttacksFound
	s.AttacksBlocked += o.AttacksBlocked
	s.GuardFaults += o.GuardFaults
	s.Shed += o.Shed
	s.QuotaRejected += o.QuotaRejected
	s.BreakerTrips += o.BreakerTrips
	s.Cache.add(o.Cache)
}

// Septic is the mechanism: it wires the QS&QM manager, ID generator,
// attack detector and logger together and implements engine.QueryHook so
// it can be installed inside the DBMS (engine.WithQueryHook). A single
// Septic may serve many concurrent sessions AND many applications at
// once: tenant state (model store, mode, fail policy, counters, and whose
// verdict is whose) lives in protection domains (see Domain), and every query is
// routed to its domain by one map lookup off an atomic snapshot. A
// Septic with no registered domains is the single-tenant deployment:
// everything lands in the default domain and the legacy accessors
// (Mode, SetMode, Store, ...) behave exactly as before.
//
// The hot path reads the domain snapshot and the domain's configuration
// through atomic pointers and bumps lock-free counters, so concurrent
// sessions executing known-benign queries never serialize on a
// Septic-level lock — regardless of how many domains are registered.
type Septic struct {
	idgen    *IDGenerator
	detector *Detector
	logger   *Logger

	// store is the default domain's model store; kept as a field so the
	// legacy single-tenant gauges keep their shape.
	store *Store

	// def is the default protection domain: the routing fallback and the
	// target of the legacy single-tenant API.
	def *Domain

	// domains is the routing table, app name → Domain, published as an
	// immutable copy-on-write snapshot (never nil; empty until the first
	// RegisterDomain). Readers Load once per query.
	domains atomic.Pointer[map[string]*Domain]
	// regMu serializes registrations (writers only).
	regMu sync.Mutex

	// memoize is false when the guard was told to remember no verdicts
	// (WithVerdictCacheCapacity(0)).
	memoize bool

	// persist is the durable model store, nil until AttachPersistence.
	// Only read outside the hot path (RegisterDomain binds new domains to
	// it; septicd checkpoints through it at shutdown) — the hot path
	// reaches durability through each store's sink pointer instead.
	persist *Persistence

	// replica is true while this Septic is a read replica
	// (AttachReplicaSource): training and incremental-learning writes are
	// refused with ErrReadOnly. Read only on the hook's write paths — the
	// cached-hit path never touches it. Cleared by ReplicaState.Promote.
	replica atomic.Bool
	// replicaState is the replication apply state, nil on a primary.
	replicaState *ReplicaState

	// obs is the observability hub; nil (the default) disables all
	// instrumentation. The histogram handles are resolved once in New so
	// the hook path never touches the registry map.
	obs      *obs.Hub
	hookHit  *obs.Histogram // verdict-cache hit: the memoized fast path
	hookFull *obs.Histogram // full pipeline: ID + store + detection
}

// Interface compliance: Septic is an engine hook.
var _ engine.QueryHook = (*Septic)(nil)

// SepticOption configures construction.
type SepticOption func(*Septic)

// WithLogger installs a custom event register.
func WithLogger(l *Logger) SepticOption {
	return func(s *Septic) { s.logger = l }
}

// WithPlugins replaces the stored-injection plugin chain.
func WithPlugins(plugins []Plugin) SepticOption {
	return func(s *Septic) { s.detector = NewDetector(plugins) }
}

// WithObserver installs an observability hub: hook latency histograms
// and pipeline counters exported as gauge funcs. A nil hub — the default
// — keeps every instrumentation site on its single-pointer-check disabled
// path. Events do not go through it: they are the Logger's.
func WithObserver(h *obs.Hub) SepticOption {
	return func(s *Septic) { s.obs = h }
}

// WithVerdictCacheCapacity switches verdict memoization: n = 0 turns it
// off (every query runs the full pipeline — the ablation configuration
// and the benchmark's reference deployment), any other n leaves it on.
// The guard keeps no cache of its own to size: a verdict lives in the
// engine's parse-cache entry of its statement, so the bound on remembered
// verdicts is engine.WithParseCacheCapacity's.
func WithVerdictCacheCapacity(n int) SepticOption {
	return func(s *Septic) { s.memoize = n != 0 }
}

// New builds a SEPTIC instance with the given configuration (which
// becomes the default domain's configuration).
func New(cfg Config, opts ...SepticOption) *Septic {
	s := &Septic{
		idgen:    NewIDGenerator(),
		store:    NewStore(),
		detector: NewDetector(DefaultPlugins()),
		logger:   NewLogger(),
		memoize:  true,
	}
	for _, o := range opts {
		o(s)
	}
	s.def = s.newDomain(DefaultDomain, cfg, s.store)
	empty := make(map[string]*Domain)
	s.domains.Store(&empty)
	if s.obs != nil {
		m := s.obs.Metrics
		s.hookHit = m.Histogram("core.hook.cached_hit")
		s.hookFull = m.Histogram("core.hook.full")
		// The unqualified core.* gauges aggregate over every domain, so a
		// single-tenant deployment reads exactly what it always did and a
		// multi-tenant one gets the fleet totals; per-domain breakdowns
		// live under core.domain.<name>.* (registerDomainGauges).
		m.GaugeFunc("core.queries_seen", func() int64 { return s.Stats().QueriesSeen })
		m.GaugeFunc("core.models_learned", func() int64 { return s.Stats().ModelsLearned })
		m.GaugeFunc("core.attacks_found", func() int64 { return s.Stats().AttacksFound })
		m.GaugeFunc("core.attacks_blocked", func() int64 { return s.Stats().AttacksBlocked })
		m.GaugeFunc("core.guard_faults", func() int64 { return s.Stats().GuardFaults })
		m.GaugeFunc("core.store.identifiers", func() int64 { return int64(s.store.Len()) })
		m.GaugeFunc("core.store.models", func() int64 { return int64(s.store.ModelCount()) })
		m.GaugeFunc("core.verdict_cache.hits", func() int64 { return s.CacheStats().Hits })
		m.GaugeFunc("core.verdict_cache.misses", func() int64 { return s.CacheStats().Misses })
		m.GaugeFunc("core.verdict_cache.invalidations", func() int64 { return s.CacheStats().Invalidations })
	}
	return s
}

// newDomain builds one protection domain over a store. Called from New
// (default domain) and RegisterDomain.
func (s *Septic) newDomain(name string, cfg Config, store *Store) *Domain {
	d := &Domain{name: name, sep: s, store: store}
	d.cfg.Store(&cfg)
	d.ovl.Store(overload.NewControls(nil, nil))
	store.log, store.domain = s.logger, name
	return d
}

// Mode returns the default domain's operation mode.
func (s *Septic) Mode() Mode {
	return s.def.Mode()
}

// Config returns the default domain's configuration.
func (s *Septic) Config() Config {
	return s.def.Config()
}

// SetMode switches the default domain's operation mode (the demo
// "restarts MySQL" for this; here it is atomic). Registered domains are
// untouched — switch them through Domain.SetMode.
func (s *Septic) SetMode(m Mode) {
	s.def.SetMode(m)
}

// SetConfig replaces the default domain's whole configuration.
func (s *Septic) SetConfig(cfg Config) {
	s.def.SetConfig(cfg)
}

// Store exposes the default domain's learned-model store (persistence,
// admin review). Registered domains own their stores: Domain.Store.
func (s *Septic) Store() *Store { return s.store }

// Logger exposes the event register (the demo display reads it). The
// register is shared by every domain; events carry the domain name.
func (s *Septic) Logger() *Logger { return s.logger }

// Stats returns a snapshot of the work counters, aggregated over every
// protection domain (single-tenant deployments have only the default
// domain, so this is exactly the pre-domain behaviour). The counters
// are separate atomics, so a snapshot taken under load is not a
// consistent cut — but it is guaranteed never to over-report: within
// one query the increments are ordered seen → found → blocked, and each
// domain snapshot reads the DEPENDENT counter before its antecedent
// (blocked before found before seen). Any concurrent query that slips
// between the reads can only inflate the later-read antecedent, so the
// invariants AttacksBlocked ≤ AttacksFound ≤ QueriesSeen hold in every
// per-domain snapshot — and summing per-domain snapshots that each hold
// the invariant preserves it.
func (s *Septic) Stats() Stats {
	out := s.def.Stats()
	for _, d := range *s.domains.Load() {
		out.add(d.Stats())
	}
	return out
}

// CacheStats returns the verdict-memo counters aggregated over every
// domain.
func (s *Septic) CacheStats() CacheStats {
	out := s.def.CacheStats()
	for _, d := range *s.domains.Load() {
		out.add(d.CacheStats())
	}
	return out
}

// stackPool recycles query-structure node slices across hook
// invocations. The detector only reads the stack and ModelOf clones it,
// so a stack can be returned to the pool as soon as the hook decides;
// nothing retains the backing array (Node fields are values and strings,
// which do not alias it).
var stackPool = sync.Pool{
	New: func() any {
		s := make(qstruct.Stack, 0, 64)
		return &s
	},
}

// BeforeExecute implements engine.QueryHook: the in-DBMS hook point.
// It first routes the query to its protection domain (one atomic
// snapshot load plus at most one map lookup — see Septic.domainFor),
// then resolves the query identifier and — depending on the domain's
// mode — learns the model or runs detection. The query structure is
// only materialized when something needs it (training, incremental
// learning, or an active detection): with both detections off the hook
// reduces to an ID computation and a store lookup, which is what makes
// the paper's NN configuration nearly free (§II-F: 0.5% overhead).
//
// The structural verdict — identifier, model set, SQLI comparison —
// depends only on the statement's shape. A benign one is memoized in the
// slot the engine keeps for the hook in its statement-cache entry
// (ctx.Memo, see verdict): a repeat skips ID generation, the store lookup
// and the comparison. It is found through the very ctx.Stmt it was
// computed from, and the engine gives no slot to an execution whose values
// a client bound. The content verdict — the stored-injection plugins over
// the strings an INSERT or UPDATE writes — reads values, so it runs on
// every execution outside training, slot or none, identifier known or not,
// before anything is learned or remembered. Generation stamps guarantee
// the rest: any
// SetMode/SetConfig or store mutation ON THAT DOMAIN bumps a counter and
// orphans the domain's older verdicts. Two applications may issue
// byte-identical text that must be judged against different model stores;
// they share the entry and the slot, and each is only ever served the
// verdict tagged with its own Domain. Attacks are never cached — each
// occurrence is detected, logged and blocked afresh.
//
// The hook is panic-contained: a fault anywhere in the protection path
// (ID generation, structure building, a detector plugin) is recovered
// and converted into an error (fail-closed, the default) or a logged
// admission (fail-open) per the DOMAIN's policy — it never unwinds into
// the engine and takes the session or the server down. See
// Config.FailOpen.
//
// When the domain carries a detection circuit breaker (SetOverload), it
// gates the MISS path only: contained guard faults and slow pipeline
// runs feed its rolling window, and while it is open a miss is answered
// by the domain's brownout stance (see brownout) instead of running
// detection. The cached-hit path stays in this function body, before
// the breaker check, so known-benign traffic is served throughout a
// brownout and the hit path's cost is unchanged — zero overload work,
// preserving the cached hit's 0-alloc profile (TestCachedHitAllocationFree).
// The miss pipeline lives in runMiss; the extra call is nanoseconds
// against a pipeline measured in hundreds.
//
// A statement with no slot — values a client bound, a text the parse cache
// is not holding whose shape lends it none, memoization switched off — is a
// miss every time, so while the breaker is open it is answered by the fail
// policy.
func (s *Septic) BeforeExecute(ctx *engine.HookContext) (err error) {
	// Domain routing runs outside the containment shell: it is a map
	// lookup plus byte scans over a bounded comment — no panic surface —
	// and the shell needs the domain to apply the right fail policy.
	d := s.domainFor(ctx)
	defer func() {
		if r := recover(); r != nil {
			err = s.containFault(d, ctx, r)
		}
	}()
	faultinject.Hit(faultinject.SiteCoreHook)
	// Timing is the only instrumentation with a per-call cost when obs is
	// disabled, so it hides behind the one nil check; the Observe calls
	// below are nil-safe on their own.
	var obsStart time.Time
	if s.obs != nil {
		obsStart = time.Now()
	}
	// Generation stamps are read BEFORE any verdict work. If a
	// configuration or store mutation lands while this query is being
	// checked, the stamps are already behind the bumped counters and the
	// verdict cached below self-invalidates on its first lookup.
	cfgGen := d.cfgGen.Load()
	storeGen := d.store.Generation()
	cfg := *d.cfg.Load()
	d.queriesSeen.Add(1)
	memo := ctx.Memo
	if !s.memoize {
		memo = nil
	}

	if cfg.Mode != ModeTraining {
		if v := d.recall(memo, cfgGen, storeGen); v != nil {
			attack, err := s.storedAttack(d, cfg, v.id, ctx)
			if v.set != nil && !attack {
				v.set.hits.Add(1) // keep the admin usage report exact
			}
			if v.checked && !attack {
				s.checked(d, v.id, ctx.Decoded)
			}
			if s.obs != nil {
				s.hookHit.Observe(time.Since(obsStart))
			}
			return err
		}
		// Verdict-cache miss: the full pipeline is about to run. The
		// domain's breaker — one atomic pointer load plus, when armed,
		// one atomic state load — decides whether it may.
		if brk := d.ovl.Load().Breaker; brk != nil {
			if !brk.Allow() {
				return s.brownout(d, cfg)
			}
			start := time.Now()
			err := s.runMiss(d, memo, ctx, cfg, cfgGen, storeGen, obsStart)
			// A blocked attack is a SUCCESSFUL pipeline run; failures
			// reach the breaker through containFault (panics), and slow
			// runs through the elapsed time.
			brk.RecordResult(false, time.Since(start))
			return err
		}
	}
	return s.runMiss(d, memo, ctx, cfg, cfgGen, storeGen, obsStart)
}

// brownout answers a verdict-cache miss while the domain's detection
// breaker is open: detection does not run, nothing is learned or
// cached, and the domain's fail stance decides the query's fate —
// fail-open admits it unchecked (availability over protection),
// fail-closed (the default) blocks it, wrapping engine.ErrQueryBlocked
// so the engine books it as a block. Cache hits never reach here (the
// lookup precedes the breaker), so known-benign traffic is served from
// its memoized verdicts for the whole brownout.
func (s *Septic) brownout(d *Domain, cfg Config) error {
	d.brownouts.Add(1)
	if cfg.FailOpen {
		return nil
	}
	return fmt.Errorf("%w: septic brownout (fail-closed): detection pipeline circuit open",
		engine.ErrQueryBlocked)
}

// runMiss is the full pipeline behind the verdict memo: ID generation,
// training, the content verdict, store lookup, incremental learning, and
// the structural verdict. Split
// from BeforeExecute so the breaker can time one complete run; it
// executes under BeforeExecute's containment shell (a panic here
// unwinds to containFault, which also books the breaker failure). memo
// is where a benign verdict is left: the statement's slot, or nil.
func (s *Septic) runMiss(d *Domain, memo *engine.Memo, ctx *engine.HookContext, cfg Config,
	cfgGen, storeGen uint64, obsStart time.Time) error {
	id := s.idgen.ID(ctx.Stmt, ctx.Comments)

	if cfg.Mode == ModeTraining {
		if s.replica.Load() {
			// A replica's stores are owned by the replication applier;
			// training traffic must go to the primary. Refusing loudly
			// beats silently not learning — the operator pointed a
			// training workload at the wrong node.
			s.observeFull(obsStart)
			return fmt.Errorf("%w: training writes must go to the primary", ErrReadOnly)
		}
		// Training never consults or feeds the cache: every execution
		// must reach the store so variants keep being learned.
		s.learn(d, id, ctx.Decoded, qstruct.BuildStack(ctx.Stmt, ctx.Args...), EventModelLearned)
		s.observeFull(obsStart)
		return nil
	}
	if attack, err := s.storedAttack(d, cfg, id, ctx); attack {
		s.observeFull(obsStart)
		return err
	}

	models, set, known := d.store.getSet(id)
	if !known {
		if cfg.IncrementalLearning && !s.replica.Load() {
			// Incremental training (§II-E): learn and execute; the
			// administrator later reviews whether the new model came
			// from a benign query. Not cached — the Put just bumped the
			// store generation, so the entry would be stillborn anyway,
			// and the next repeat takes the known-identifier path.
			s.learn(d, id, ctx.Decoded, qstruct.BuildStack(ctx.Stmt, ctx.Args...), EventNewQuery)
			s.observeFull(obsStart)
			return nil
		}
		// Unknown identifier with learning off: no model, so no structural
		// check by design; memoize so repeats skip the ID recomputation.
		d.remember(memo, verdict{id: id, cfgGen: cfgGen, storeGen: storeGen})
		s.observeFull(obsStart)
		return nil
	}

	if !cfg.DetectSQLI && !cfg.DetectStored {
		// NN: nothing to check.
		d.remember(memo, verdict{id: id, set: set, cfgGen: cfgGen, storeGen: storeGen})
		s.observeFull(obsStart)
		return nil
	}
	faultinject.Hit(faultinject.SiteCoreDetect)
	if cfg.DetectSQLI {
		sp := stackPool.Get().(*qstruct.Stack)
		qs := qstruct.BuildStackInto((*sp)[:0], ctx.Stmt, ctx.Args...)
		det, attack := s.detector.DetectSQLI(qs, models)
		*sp = qs
		stackPool.Put(sp)
		if attack {
			s.observeFull(obsStart)
			return s.report(d, cfg, id, ctx, det)
		}
	}
	s.checked(d, id, ctx.Decoded)
	d.remember(memo, verdict{id: id, checked: true, set: set, cfgGen: cfgGen, storeGen: storeGen})
	s.observeFull(obsStart)
	return nil
}

// storedAttack is the content verdict, if the domain runs it: whether the
// plugins found an attack in the strings ctx writes, and the hook's answer.
func (s *Septic) storedAttack(d *Domain, cfg Config, id string, ctx *engine.HookContext) (bool, error) {
	if !cfg.DetectStored {
		return false, nil
	}
	det, attack := s.detector.DetectStored(ctx.Stmt, ctx.Args)
	if !attack {
		return false, nil
	}
	return true, s.report(d, cfg, id, ctx, det)
}

// checked books a query that passed detection: always counted, and
// recorded when a stream is attached to show it — with nobody watching,
// a register slot per benign repeat would only push real events out.
func (s *Septic) checked(d *Domain, id, query string) {
	d.queriesChecked.Add(1)
	if s.logger.streaming() {
		s.logger.Log(Event{Kind: EventQueryChecked, QueryID: id, Query: query})
	}
}

// observeFull records one full-pipeline hook duration; a no-op when
// observability is disabled (start is then the zero Time and must not be
// measured against).
func (s *Septic) observeFull(start time.Time) {
	if s.obs == nil {
		return
	}
	s.hookFull.Observe(time.Since(start))
}

// containFault turns a recovered protection-path panic into the
// domain's policy outcome: an incident is always counted and logged
// with the panic value and stack; fail-closed then blocks the query
// (the error wraps engine.ErrQueryBlocked so the engine books it as a
// block) and fail-open admits it.
func (s *Septic) containFault(d *Domain, ctx *engine.HookContext, r any) error {
	d.guardFaults.Add(1)
	// A contained fault is a detection-pipeline failure: the domain's
	// breaker (if any) counts it toward the trip rate, so a faulting
	// pipeline browns out instead of panicking per-query forever.
	d.ovl.Load().Breaker.RecordResult(true, 0)
	cfg := *d.cfg.Load()
	policy, action := "fail-closed", "blocked"
	if cfg.FailOpen {
		policy, action = "fail-open", "admitted"
	}
	stack := debug.Stack()
	if len(stack) > 4096 {
		stack = stack[:4096]
	}
	s.logger.Log(Event{
		Kind:   EventGuardFault,
		Domain: d.name,
		Query:  ctx.Decoded,
		Action: action,
		Detail: fmt.Sprintf("panic in protection path (%s): %v\n%s", policy, r, stack),
	})
	if cfg.FailOpen {
		return nil
	}
	return fmt.Errorf("%w: septic guard fault (fail-closed): %v", engine.ErrQueryBlocked, r)
}

// learn stores the query model in the domain's store if it is new and
// logs the event; a model already known for the ID is never re-added
// (demo phase C). Models learned outside training mode are flagged for
// administrator review.
func (s *Septic) learn(d *Domain, id, query string, qs qstruct.Stack, kind EventKind) {
	qm := qstruct.ModelOf(qs)
	if !d.store.Put(id, qm, kind == EventNewQuery) {
		return
	}
	d.modelsLearned.Add(1)
	if kind == EventNewQuery {
		d.newQueries.Add(1)
	}
	s.logger.Log(Event{Kind: kind, Domain: d.name, QueryID: id, Query: query,
		Detail: fmt.Sprintf("model learned (%d nodes)", len(qm.Nodes))})
}

// report logs the attack against the domain and, in prevention mode,
// blocks the query.
func (s *Septic) report(d *Domain, cfg Config, id string, ctx *engine.HookContext, det Detection) error {
	d.attacksFound.Add(1)
	blocked := cfg.Mode == ModePrevention
	if blocked {
		d.attacksBlocked.Add(1)
	}

	kind, action := EventAttackDetected, "logged"
	if blocked {
		kind, action = EventAttackBlocked, "blocked"
	}
	// The skeleton render is attack-path-only work: attacks are rare and
	// never cached, so the formatting cost stays off benign traffic.
	s.logger.Log(Event{
		Kind:     kind,
		Domain:   d.name,
		QueryID:  id,
		Query:    ctx.Decoded,
		Attack:   det.Attack,
		Step:     det.Step,
		Plugin:   det.Plugin,
		Distance: det.Distance,
		Skeleton: qstruct.Skeleton(ctx.Stmt),
		Action:   action,
		Detail:   det.Detail,
	})
	if !blocked {
		return nil // detection mode: log only, let the query run
	}
	return fmt.Errorf("%w: septic %s (%s)", engine.ErrQueryBlocked, det.Attack, det.Detail)
}
