// Package core implements SEPTIC — SElf-Protecting daTabases prevenTIng
// attaCks — as described in the paper: a mechanism that runs inside the
// DBMS, between query validation and execution, detecting and blocking
// SQL injection and stored-injection attacks.
//
// The package mirrors the module structure of Fig. 1:
//
//   - Septic (septic.go) is the "QS&QM manager": it wires the modules
//     together, builds query structures, learns models, and implements
//     the engine's QueryHook — the in-DBMS hook point.
//   - Store (store.go) is the "QM learned" store, with persistence and
//     the administrator review extensions.
//   - IDGenerator (idgen.go) composes the external (comment-supplied)
//     and internal (skeleton-hash) query identifiers.
//   - Detector (detector.go) runs the two-step SQLI comparison and the
//     stored-injection plugin chain.
//   - Logger (this file) is the event register: every occurrence is
//     recorded once, as one Event in one bounded ring, and the demo's
//     "SEPTIC events" display, the -audit file, Events/Attacks and the
//     /events endpoint are four views of that record.
package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/septic-db/septic/internal/qstruct"
)

// EventKind classifies a register event.
type EventKind int

// Event kinds. Enums start at 1 so the zero value is invalid.
const (
	EventInvalid EventKind = iota
	// EventModelLearned: training mode stored a new query model.
	EventModelLearned
	// EventNewQuery: normal mode saw a query with no model and learned
	// it incrementally (flagged for administrator review).
	EventNewQuery
	// EventQueryChecked: a query was compared against its model and
	// passed. Always counted (Stats.QueriesChecked); recorded only while a
	// stream is attached to show it (see Logger).
	EventQueryChecked
	// EventAttackDetected: an attack was found (and logged only —
	// detection mode).
	EventAttackDetected
	// EventAttackBlocked: an attack was found and the query dropped
	// (prevention mode).
	EventAttackBlocked
	// EventModeChanged: the operation mode or configuration was switched,
	// or the node changed replication role.
	EventModeChanged
	// EventGuardFault: the protection path itself panicked and the panic
	// was contained; Detail records the panic value and the applied
	// fail-open/fail-closed policy, Action what became of the query.
	EventGuardFault
	// EventDomainRegistered: a new protection domain was created; Domain
	// carries its name and Detail its starting configuration.
	EventDomainRegistered
	// EventDurability: the durable model store reports — recovery done, a
	// checkpoint taken, failed or contained while panicking, a replication
	// snapshot installed, a failed WAL append (whose mutation's fate is
	// operation-specific, see Store.Put vs Store.Delete).
	EventDurability
	// EventOverload: the domain's detection circuit breaker changed
	// state (brownout entry, half-open probe, recovery). Detail names
	// the transition.
	EventOverload
	// EventStoreChanged: the administrator changed the QM store —
	// identifier deleted or approved, store loaded from a file.
	EventStoreChanged
	// EventCacheInvalidated: a lookup found a cached verdict orphaned by a
	// configuration or store generation bump.
	EventCacheInvalidated
)

// kindInfo is one row of the kind table: name is what the display line
// and the audit record call the kind; group is the coarser /events "kind"
// that ?kind= filters on; quiet keeps per-lookup chatter off the text
// display (every other view still shows it).
type kindInfo struct {
	name, group string
	quiet       bool
}

var eventKinds = [...]kindInfo{
	EventInvalid:          {name: "invalid"},
	EventModelLearned:     {name: "model-learned", group: "store"},
	EventNewQuery:         {name: "new-query", group: "store"},
	EventQueryChecked:     {name: "query-checked", group: "checked"},
	EventAttackDetected:   {name: "attack-detected", group: "attack"},
	EventAttackBlocked:    {name: "attack-blocked", group: "attack"},
	EventModeChanged:      {name: "mode-changed", group: "mode"},
	EventGuardFault:       {name: "guard-fault", group: "guard-fault"},
	EventDomainRegistered: {name: "domain-registered", group: "mode"},
	EventDurability:       {name: "durability", group: "wal"},
	EventOverload:         {name: "overload", group: "overload"},
	EventStoreChanged:     {name: "store-changed", group: "store"},
	EventCacheInvalidated: {name: "cache-invalidated", group: "cache", quiet: true},
}

func (k EventKind) info() kindInfo {
	if k >= 0 && int(k) < len(eventKinds) {
		return eventKinds[k]
	}
	return kindInfo{name: fmt.Sprintf("EventKind(%d)", int(k))}
}

// String names the event kind as the demo display prints it.
func (k EventKind) String() string { return k.info().name }

// AttackType distinguishes the two attack families SEPTIC handles.
type AttackType int

// Attack types.
const (
	AttackNone AttackType = iota
	AttackSQLI
	AttackStored
)

// String names the attack type.
func (t AttackType) String() string {
	switch t {
	case AttackNone:
		return "none"
	case AttackSQLI:
		return "sqli"
	case AttackStored:
		return "stored-injection"
	default:
		return fmt.Sprintf("AttackType(%d)", int(t))
	}
}

// Event is one entry of SEPTIC's event register, recorded once where the
// thing happened. Per the paper, an attack record carries the received
// query, its identifier, its model and the detection step; a new-query
// record carries the query, model and identifier. Every view — Events and
// Attacks, the display line, the audit record, /events — renders this
// one record.
type Event struct {
	Seq     int64
	Time    time.Time
	Kind    EventKind
	QueryID string
	Query   string
	// Domain names the protection domain the event belongs to; empty on
	// process-wide events (recovery, checkpoints, replication role) and on
	// EventQueryChecked, whose audit line never carried one.
	Domain string
	// Attack fields (zero for non-attack events).
	Attack AttackType
	// Step is which SQLI detection step fired (structural/syntactical).
	Step qstruct.CompareStep
	// Plugin names the stored-injection plugin that confirmed the
	// attack.
	Plugin string
	// Distance quantifies how far the query structure sat from its
	// closest model: the node-count delta for structural mismatches, the
	// index of the first mismatching node for syntactical ones.
	Distance int
	// Skeleton is the injection-stable identity the ID hashes
	// (qstruct.Skeleton) — the "query models learned" key of the demo.
	Skeleton string
	// Action records the applied policy on attacks and guard faults:
	// "blocked", "logged", "admitted" (fail-open guard fault).
	Action string
	// Detail is a human-readable explanation.
	Detail string
}

// String renders the event as one display line.
func (e Event) String() string {
	s := fmt.Sprintf("[%d] %s id=%s", e.Seq, e.Kind, e.QueryID)
	if e.Domain != "" && e.Domain != "default" {
		s += " domain=" + e.Domain
	}
	if e.Attack != AttackNone {
		s += fmt.Sprintf(" attack=%s", e.Attack)
		if e.Attack == AttackSQLI {
			s += fmt.Sprintf(" step=%s", e.Step)
		}
		if e.Plugin != "" {
			s += fmt.Sprintf(" plugin=%s", e.Plugin)
		}
	}
	if e.Detail != "" {
		s += " — " + e.Detail
	}
	return s
}

// Detector names what fired: "sqli/structural", "sqli/syntactical" or
// "stored/<plugin>"; empty for non-attack events.
func (e Event) Detector() string {
	switch e.Attack {
	case AttackSQLI:
		return "sqli/" + e.Step.String()
	case AttackStored:
		return "stored/" + e.Plugin
	}
	return ""
}

// MarshalJSON renders the /events view — the kind is its group, step and
// plugin fold into the detector name — so an operator sees what Figs. 2–4
// show on the demo screen.
func (e Event) MarshalJSON() ([]byte, error) {
	v := struct {
		Seq      int64     `json:"seq"`
		Time     time.Time `json:"time"`
		Kind     string    `json:"kind"`
		Domain   string    `json:"domain,omitempty"`
		Query    string    `json:"query,omitempty"`
		Skeleton string    `json:"skeleton,omitempty"`
		QueryID  string    `json:"query_id,omitempty"`
		Detector string    `json:"detector,omitempty"`
		Distance int       `json:"distance,omitempty"`
		Class    string    `json:"class,omitempty"`
		Action   string    `json:"action,omitempty"`
		Detail   string    `json:"detail,omitempty"`
	}{Seq: e.Seq, Time: e.Time, Kind: e.Kind.info().group, Domain: e.Domain,
		Query: e.Query, Skeleton: e.Skeleton, QueryID: e.QueryID,
		Detector: e.Detector(), Distance: e.Distance, Action: e.Action, Detail: e.Detail}
	if e.Attack != AttackNone {
		v.Class = e.Attack.String()
	}
	return json.Marshal(v)
}

// auditEntry is the stable JSON shape of one audit record.
type auditEntry struct {
	Seq     int64  `json:"seq"`
	Time    string `json:"time"`
	Kind    string `json:"kind"`
	Domain  string `json:"domain,omitempty"`
	QueryID string `json:"query_id,omitempty"`
	Query   string `json:"query,omitempty"`
	Attack  string `json:"attack,omitempty"`
	Step    string `json:"step,omitempty"`
	Plugin  string `json:"plugin,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

func auditRecord(e Event) auditEntry {
	rec := auditEntry{
		Seq:     e.Seq,
		Time:    e.Time.UTC().Format(time.RFC3339Nano),
		Kind:    e.Kind.String(),
		Domain:  e.Domain,
		QueryID: e.QueryID,
		Query:   e.Query,
		Detail:  e.Detail,
	}
	if e.Attack != AttackNone {
		rec.Attack = e.Attack.String()
		if e.Attack == AttackSQLI {
			rec.Step = e.Step.String()
		}
		rec.Plugin = e.Plugin
	}
	return rec
}

// defaultCapacity bounds the register when the deployment does not choose
// its own size.
const defaultCapacity = 4096

// Logger is SEPTIC's event register: one bounded ring of Events — a flood
// overwrites the oldest entry, so it costs memory proportional to the
// capacity, never to the flood — plus optional streams for live display
// and audit. It is safe for concurrent use; a nil *Logger ignores Log.
//
// Locking: mu guards the sequence and the ring. Stream writes happen
// under a separate streamMu so slow I/O (a blocked pipe, a fsyncing audit
// file) never stalls concurrent sessions that only need a ring slot. The
// two locks are coupled hand-over-hand — streamMu is taken before mu is
// released — so the streams still observe events in sequence order.
type Logger struct {
	mu       sync.Mutex
	seq      int64
	buf      []Event // grows to capacity, then next overwrites the oldest
	next     int
	capacity int
	clock    func() time.Time

	streamMu   sync.Mutex
	stream     io.Writer
	jsonStream io.Writer
}

// LoggerOption configures a Logger.
type LoggerOption func(*Logger)

// WithCapacity bounds the register (default 4096 events).
func WithCapacity(n int) LoggerOption {
	return func(l *Logger) { l.capacity = n }
}

// WithClock injects the logger's time source (tests, benchmarks).
func WithClock(clock func() time.Time) LoggerOption {
	return func(l *Logger) { l.clock = clock }
}

// WithStream mirrors every event line to w (the demo's live display).
func WithStream(w io.Writer) LoggerOption {
	return func(l *Logger) { l.stream = w }
}

// WithJSONStream mirrors every event to w as one JSON object per line —
// the audit-log format a SIEM ingests. Both streams may be active.
func WithJSONStream(w io.Writer) LoggerOption {
	return func(l *Logger) { l.jsonStream = w }
}

// NewLogger builds an event register.
func NewLogger(opts ...LoggerOption) *Logger {
	l := &Logger{capacity: defaultCapacity, clock: time.Now}
	for _, o := range opts {
		o(l)
	}
	if l.capacity <= 0 {
		l.capacity = defaultCapacity
	}
	return l
}

// streaming reports whether a stream is attached — fixed at construction.
// The hook asks before recording a passed check: with nobody watching it
// is only counted, which is what keeps the cached hit at an atomic add.
func (l *Logger) streaming() bool { return l.stream != nil || l.jsonStream != nil }

// Log stamps the event, stores it in the ring, and mirrors it to the
// streams. Only the stamp and the slot write run under mu; formatting and
// stream I/O happen under streamMu so a slow stream consumer cannot stall
// sessions recording events concurrently. streamMu is acquired before mu
// is released (lock coupling) so stream output preserves sequence order.
func (l *Logger) Log(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq++
	e.Seq = l.seq
	e.Time = l.clock()
	if len(l.buf) < l.capacity {
		l.buf = append(l.buf, e)
	} else {
		l.buf[l.next] = e
		l.next = (l.next + 1) % len(l.buf)
	}
	if !l.streaming() {
		l.mu.Unlock()
		return
	}
	l.streamMu.Lock()
	l.mu.Unlock()
	defer l.streamMu.Unlock()
	if l.stream != nil && !e.Kind.info().quiet {
		_, _ = fmt.Fprintln(l.stream, e.String())
	}
	if l.jsonStream != nil {
		if data, err := json.Marshal(auditRecord(e)); err == nil {
			data = append(data, '\n')
			_, _ = l.jsonStream.Write(data)
		}
	}
}

// Recent returns up to n buffered events, oldest first, optionally
// filtered by /events group ("attack", "store", "wal", …; empty matches
// everything). n <= 0 returns all matches. Never nil, so the JSON is [].
func (l *Logger) Recent(group string, n int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.buf))
	for i := range l.buf {
		e := l.buf[(l.next+i)%len(l.buf)]
		if group == "" || e.Kind.info().group == group {
			out = append(out, e)
		}
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// Events returns a snapshot of the buffered events.
func (l *Logger) Events() []Event { return l.Recent("", 0) }

// Attacks returns only the attack events (the demo's phase-E filter).
func (l *Logger) Attacks() []Event { return l.Recent("attack", 0) }
