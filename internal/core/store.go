package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/septic-db/septic/internal/faultinject"
	"github.com/septic-db/septic/internal/qstruct"
	"github.com/septic-db/septic/internal/wal"
)

// Store is the "QM learned" store of Fig. 1: learned query models keyed
// by query identifier, held in memory and persisted to disk so models
// survive a DBMS restart (demo phase D: "the persistent query models
// are loaded").
//
// Extensions over the paper's prototype:
//
//   - Model sets: the store keeps a SET of models per identifier.
//     Applications legitimately issue structural variants under one
//     identifier (the canonical case is a sort selector); a query
//     conforms if it matches ANY learned model. The paper's single-model
//     behaviour is the degenerate one-element set.
//   - Provenance and usage: each identifier records whether it was
//     learned during deliberate training or incrementally in normal mode
//     — the paper's §II-E requires "the programmer/administrator will
//     have to decide if the query model comes from a malicious or a
//     benign query", and PendingReview is exactly that work list — plus
//     a hit counter for usage-based triage.
//
// The store is safe for concurrent use by many sessions, and built so
// the hot path (Get on a known identifier) never contends across
// sessions: identifiers are partitioned into shards, each with its own
// RWMutex, and the per-identifier model sets are copy-on-write — Get
// returns the shared immutable slice without copying, and Put publishes
// a freshly built slice instead of appending in place.
type Store struct {
	shards [storeShardCount]storeShard

	// gen counts mutations (Put of a new model, Delete, Load). The verdict
	// cache stamps entries with the generation observed *before* computing
	// a verdict; a bump means learned knowledge changed, so any entry with
	// an older stamp is stale. Writers mutate first, then bump — a reader
	// that loaded the pre-bump generation computed against at-most-old
	// state and its entry is correctly invalidated by the bump.
	gen atomic.Uint64

	// log receives an EventStoreChanged for every administrative mutation
	// (Delete, Approve, Load), tagged with the owning domain; nil — a
	// store outside any Septic — records nothing. Set once by newDomain,
	// before the store is shared. Learned models are recorded by the hook
	// (Septic.learn), which knows the query.
	log    *Logger
	domain string

	// sink, when installed (Persistence.bind), receives every mutation
	// as a WAL record BEFORE it is published in memory, while the shard
	// lock is held. The lock-held ordering is what makes checkpoints
	// consistent: any record the checkpointer's sequence-number barrier
	// covers has finished publishing by the time the checkpointer can
	// acquire the shard (see Persistence.Checkpoint). Installed before
	// the store serves traffic; nil disables durability.
	sink func(rec *walRecord) error

	// readOnly refuses local mutations (Put/Delete/Approve) while the
	// store is fed by a replication stream: on a replica the only writer
	// is the applier (ReplicaState), which applies records as replays
	// and is exempt. Cleared by ReplicaState.Promote on failover.
	readOnly atomic.Bool
}

// storeShardCount partitions identifiers so unrelated sessions rarely
// touch the same lock. A modest power of two: the per-shard critical
// sections are a map lookup, so the win is cacheline, not hold time.
const storeShardCount = 16

// storeShard is one lock domain of the identifier space.
type storeShard struct {
	mu     sync.RWMutex
	models map[string]*modelSet
}

// modelSet is the per-identifier record.
type modelSet struct {
	// models is copy-on-write: the slice and its backing array are never
	// mutated after publication, so readers may hold it lock-free.
	models []qstruct.Model
	// hits counts lookups.
	hits atomic.Int64
	// incremental marks identifiers first seen outside training mode.
	incremental bool
}

// Usage summarizes one identifier for administrative review.
type Usage struct {
	ID     string
	Models int
	Hits   int64
	// Incremental is true until an administrator approves the
	// identifier (or it was learned in training mode to begin with).
	Incremental bool
}

// NewStore creates an empty model store.
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].models = make(map[string]*modelSet)
	}
	return s
}

// shard returns the lock domain owning id.
func (s *Store) shard(id string) *storeShard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return &s.shards[h.Sum32()%storeShardCount]
}

// Generation returns the store's mutation counter. It changes whenever
// learned knowledge changes (new model stored, identifier deleted, store
// reloaded) and never otherwise.
func (s *Store) Generation() uint64 {
	return s.gen.Load()
}

// ModelView is a read-only view of one identifier's learned models. The
// store's per-identifier slices are copy-on-write and SHARED between
// every session (and, with protection domains, handed across the
// detector seam); the view type makes the read-only contract structural
// instead of a comment — callers outside the package cannot reach the
// backing array at all, so one domain's caller can never mutate models
// another domain (or another session) is concurrently comparing
// against. The view is a single-word wrapper around the slice header:
// constructing and copying it allocates nothing, keeping Get on the hot
// path alloc-free.
type ModelView struct {
	models []qstruct.Model
}

// ViewOf builds a ModelView over copies of the given models — the
// test-and-tooling constructor for exercising the detector directly.
// The models are cloned so later mutation of the arguments cannot reach
// the view, mirroring the store's immutability guarantee.
func ViewOf(models ...qstruct.Model) ModelView {
	cp := make([]qstruct.Model, len(models))
	copy(cp, models)
	return ModelView{models: cp}
}

// Len returns the number of models in the view.
func (v ModelView) Len() int { return len(v.models) }

// Empty reports whether the view holds no models.
func (v ModelView) Empty() bool { return len(v.models) == 0 }

// At returns the i-th model. The Model is returned by value; its Nodes
// slice is shared and must be treated as read-only, like every
// qstruct.Model.
func (v ModelView) At(i int) qstruct.Model { return v.models[i] }

// Get returns a read-only view of the models learned for id and counts
// the hit. The view is backed by the shared copy-on-write slice:
// successive Puts never change a view a previous Get returned.
func (s *Store) Get(id string) (ModelView, bool) {
	models, _, ok := s.getSet(id)
	return models, ok
}

// getSet is Get plus the identifier's internal record, which the verdict
// cache retains so repeated hits keep the usage counters exact without
// re-walking the map.
func (s *Store) getSet(id string) (ModelView, *modelSet, bool) {
	sh := s.shard(id)
	sh.mu.RLock()
	set, ok := sh.models[id]
	if !ok {
		sh.mu.RUnlock()
		return ModelView{}, nil, false
	}
	models := set.models
	sh.mu.RUnlock()
	set.hits.Add(1)
	return ModelView{models: models}, set, true
}

// Put stores a model for id, recording whether it was learned
// incrementally (normal mode) rather than during training. It reports
// whether the model was new: a model with an identical fingerprint is
// never re-added (paper §IV-C: "the query model is created and stored
// only once").
//
// With durability attached, the record is appended to the write-ahead
// log BEFORE the model is published in memory, and a failed append
// refuses the whole Put (returns false, nothing published): memory is
// never ahead of the log for additions, so a crash can lose only
// updates that were never acknowledged. The retry is free — the next
// occurrence of the same query learns it again.
func (s *Store) Put(id string, m qstruct.Model, incremental bool) bool {
	return s.put(id, m, incremental, false)
}

// put is the one body of a put. A local caller (Put) passes replay
// false; applyRecord — a record recovered from the local log or received
// from the primary — passes true and skips exactly what a logged record
// has behind it: the read-only gate and the sink append. Deduplication
// applies to both, which is what makes replay over a checkpoint that may
// already contain the record idempotent.
func (s *Store) put(id string, m qstruct.Model, incremental, replay bool) bool {
	if !replay && s.readOnly.Load() {
		return false
	}
	fp := m.Fingerprint()
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	set, ok := sh.models[id]
	if ok {
		for _, existing := range set.models {
			if existing.Fingerprint() == fp {
				return false
			}
		}
	}
	if !replay && s.sink != nil {
		if err := s.sink(&walRecord{Op: opPut, ID: id, Model: &m, Sum: fp, Inc: incremental}); err != nil {
			return false
		}
	}
	if !ok {
		set = &modelSet{incremental: incremental}
		sh.models[id] = set
	}
	// Copy-on-write: publish a new slice so concurrent readers keep a
	// consistent view of the one they already fetched.
	next := make([]qstruct.Model, len(set.models)+1)
	copy(next, set.models)
	next[len(set.models)] = m
	set.models = next
	if incremental {
		set.incremental = true
	}
	// Bump after publishing (still under the shard lock): a verdict cached
	// against the pre-bump generation is invalidated, and any reader that
	// already sees the new generation also sees the new model slice.
	s.gen.Add(1)
	return true
}

// Delete removes every model learned for id (administrator review
// rejecting a poisoned identifier). Unlike Put, a failed durability
// append does NOT refuse the delete: removing a model only narrows what
// the detector accepts, so applying it in memory is the conservative
// choice — the worst a crash can do is resurrect the identifier, which
// the pending-review list resurfaces. The failure is still counted and
// logged by the persistence layer.
func (s *Store) Delete(id string) { s.remove(id, false) }

// remove is the one body of a delete; replay as for put, and a replayed
// delete records no event (boot-time noise).
func (s *Store) remove(id string, replay bool) {
	if !replay && s.readOnly.Load() {
		return
	}
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.models[id]; !ok {
		return
	}
	if !replay && s.sink != nil {
		_ = s.sink(&walRecord{Op: opDelete, ID: id})
	}
	delete(sh.models, id)
	s.gen.Add(1)
	if !replay {
		s.log.Log(Event{Kind: EventStoreChanged, Domain: s.domain, QueryID: id, Detail: "identifier deleted"})
	}
}

// Approve clears an identifier's incremental flag: the administrator
// reviewed the query and deemed it benign. Like Delete, a failed
// durability append is counted but does not refuse the approval (the
// crash-worst-case is the identifier reappearing on the review list).
func (s *Store) Approve(id string) bool { return s.approve(id, false) }

// approve is the one body of an approval; replay as for remove.
func (s *Store) approve(id string, replay bool) bool {
	if !replay && s.readOnly.Load() {
		return false
	}
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	set, ok := sh.models[id]
	if !ok {
		return false
	}
	if !replay && s.sink != nil {
		_ = s.sink(&walRecord{Op: opApprove, ID: id})
	}
	set.incremental = false
	if !replay {
		s.log.Log(Event{Kind: EventStoreChanged, Domain: s.domain, QueryID: id, Detail: "identifier approved"})
	}
	return true
}

// setSink installs the durability sink. Must be called before the store
// serves traffic (Persistence attach does, at boot).
func (s *Store) setSink(sink func(rec *walRecord) error) {
	s.sink = sink
}

// setReadOnly flips the local-mutation gate (see the readOnly field).
func (s *Store) setReadOnly(v bool) {
	s.readOnly.Store(v)
}

// ReadOnly reports whether local mutations are refused (replica mode).
func (s *Store) ReadOnly() bool {
	return s.readOnly.Load()
}

// PendingReview lists the identifiers learned incrementally and not yet
// approved — the administrator's §II-E work list — sorted.
func (s *Store) PendingReview() []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id, set := range sh.models {
			if set.incremental {
				out = append(out, id)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// UsageReport returns per-identifier usage, sorted by descending hits
// then id — the triage view for the administrator.
func (s *Store) UsageReport() []Usage {
	var out []Usage
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id, set := range sh.models {
			out = append(out, Usage{
				ID:          id,
				Models:      len(set.models),
				Hits:        set.hits.Load(),
				Incremental: set.incremental,
			})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hits != out[j].Hits {
			return out[i].Hits > out[j].Hits
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Len returns the number of known query identifiers.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.models)
		sh.mu.RUnlock()
	}
	return n
}

// ModelCount returns the total number of learned models across all
// identifiers (≥ Len when variants exist).
func (s *Store) ModelCount() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, set := range sh.models {
			n += len(set.models)
		}
		sh.mu.RUnlock()
	}
	return n
}

// IDs returns the learned query identifiers, sorted.
func (s *Store) IDs() []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id := range sh.models {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// DumpEntry is one identifier's record rendered for live introspection
// (the /qm endpoint): the models as paper-style top-down item stacks,
// plus the review/usage metadata.
type DumpEntry struct {
	ID          string `json:"id"`
	Hits        int64  `json:"hits"`
	Incremental bool   `json:"incremental"`
	// Models holds each learned model as its node stack, top of stack
	// first, one "CATEGORY data" string per node — the rendering of the
	// paper's Figs. 2–4 (data nodes show ⊥).
	Models [][]string `json:"models"`
}

// Dump renders the whole store for live introspection, sorted by id.
// It formats every node, so it is strictly an operator endpoint — never
// called on the query path.
func (s *Store) Dump() []DumpEntry {
	var out []DumpEntry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id, set := range sh.models {
			e := DumpEntry{
				ID:          id,
				Hits:        set.hits.Load(),
				Incremental: set.incremental,
				Models:      make([][]string, len(set.models)),
			}
			for mi, m := range set.models {
				nodes := make([]string, len(m.Nodes))
				for ni := range m.Nodes {
					// Top-down, as the figures draw the stack.
					nodes[ni] = m.Nodes[len(m.Nodes)-1-ni].String()
				}
				e.Models[mi] = nodes
			}
			out = append(out, e)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// persistedSet is the on-disk form of one identifier's record.
type persistedSet struct {
	Models      []qstruct.Model `json:"models"`
	Sums        []uint64        `json:"sums"`
	Hits        int64           `json:"hits"`
	Incremental bool            `json:"incremental,omitempty"`
}

// storeFile is the persisted JSON layout.
type storeFile struct {
	Version int                     `json:"version"`
	Sets    strictMap[persistedSet] `json:"sets"`
}

const storeVersion = 3

// maxPersistedSetBytes bounds one identifier's encoded record in a
// persisted store file. A record past this is either corruption or an
// attempt to balloon the store through the load path; Load rejects it
// with a descriptive error instead of silently accepting it.
const maxPersistedSetBytes = 1 << 20

// snapshotSets serializes the store's current contents, with per-model
// fingerprints for integrity checking. Fingerprints are cached in the
// models themselves, so a snapshot is pure serialization — no
// re-hashing. Each shard is read under its lock, which (combined with
// the sink-under-lock append protocol) is what makes the checkpoint
// barrier sound: every record the barrier covers is visible here.
func (s *Store) snapshotSets() map[string]persistedSet {
	sets := make(map[string]persistedSet)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id, set := range sh.models {
			p := persistedSet{
				// The model slice is immutable, so it can be serialized
				// as-is without a defensive copy.
				Models:      set.models,
				Sums:        make([]uint64, len(set.models)),
				Hits:        set.hits.Load(),
				Incremental: set.incremental,
			}
			for i, m := range set.models {
				p.Sums[i] = m.Fingerprint()
			}
			sets[id] = p
		}
		sh.mu.RUnlock()
	}
	return sets
}

// Save writes the learned models to path atomically: temp file, fsync,
// rename over the target, directory fsync (wal.WriteFileAtomic). A
// crash at any point — the kill points around the write and the rename
// are exercised by TestStoreSaveCrashKeepsOldSnapshot — leaves either
// the previous snapshot or the new one, never a torn mixture and never
// a missing file.
func (s *Store) Save(path string) error {
	file := storeFile{
		Version: storeVersion,
		Sets:    s.snapshotSets(),
	}
	data, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return fmt.Errorf("encode model store: %w", err)
	}
	faultinject.Hit(faultinject.SiteStoreSave)
	if ierr := faultinject.HitErr(faultinject.SiteStoreSave); ierr != nil {
		return fmt.Errorf("write model store: %w", ierr)
	}
	if err := wal.WriteFileAtomic(path, data, 0o644); err != nil {
		return fmt.Errorf("write model store: %w", err)
	}
	return nil
}

// strictMap is a JSON object of named records — identifier → models,
// domain → store — decoded member by member, refusing what a plain map
// forgives: a name written twice, where the last one would win and, for
// an identifier, quietly drop learned models. Every persisted form keeps
// its records in one (a -models seed file, the checkpoint, a snapshot off
// the network), so none of them can be read leniently.
type strictMap[V any] map[string]V

// UnmarshalJSON implements json.Unmarshaler.
func (m *strictMap[V]) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, _ := dec.Token(); tok != json.Delim('{') {
		return errors.New("not a JSON object")
	}
	if *m == nil {
		*m = make(strictMap[V])
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		name, _ := tok.(string)
		if _, dup := (*m)[name]; dup {
			return fmt.Errorf("duplicate member %q", name)
		}
		var v V
		if err := dec.Decode(&v); err != nil {
			return fmt.Errorf("%q: %w", name, err)
		}
		(*m)[name] = v
	}
	return nil
}

// UnmarshalJSON implements json.Unmarshaler, refusing a record past
// maxPersistedSetBytes with a descriptive error.
func (p *persistedSet) UnmarshalJSON(data []byte) error {
	if len(data) > maxPersistedSetBytes {
		return fmt.Errorf("record is %d bytes, exceeds the %d-byte limit", len(data), maxPersistedSetBytes)
	}
	type plain persistedSet
	return json.Unmarshal(data, (*plain)(p))
}

// verifySets checks every model's persisted fingerprint. A record whose
// fingerprint array does not pair one sum with every model is itself
// corrupt — a truncated Sums array must not let the unmatched models
// skip verification.
func verifySets(sets map[string]persistedSet) error {
	for id, p := range sets {
		if len(p.Sums) != len(p.Models) {
			return fmt.Errorf("model store corrupt: %q has %d fingerprint(s) for %d model(s)",
				id, len(p.Sums), len(p.Models))
		}
		for i, m := range p.Models {
			if p.Sums[i] != m.Fingerprint() {
				return fmt.Errorf("model store corrupt: fingerprint mismatch for %q[%d]", id, i)
			}
		}
	}
	return nil
}

// restoreSets replaces the store contents with the given persisted
// sets. Shared by Load and checkpoint recovery (Persistence attach).
func (s *Store) restoreSets(sets map[string]persistedSet) {
	loaded := make(map[string]*modelSet, len(sets))
	for id, p := range sets {
		models := make([]qstruct.Model, len(p.Models))
		copy(models, p.Models)
		set := &modelSet{
			models:      models,
			incremental: p.Incremental,
		}
		set.hits.Store(p.Hits)
		loaded[id] = set
	}
	// Swap shard by shard: each identifier lands in its own shard, and
	// identifiers absent from the file are cleared.
	var fresh [storeShardCount]map[string]*modelSet
	for i := range fresh {
		fresh[i] = make(map[string]*modelSet)
	}
	for id, set := range loaded {
		h := fnv.New32a()
		_, _ = h.Write([]byte(id))
		fresh[h.Sum32()%storeShardCount][id] = set
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.models = fresh[i]
		sh.mu.Unlock()
	}
	s.gen.Add(1)
}

// Load replaces the store contents with the models persisted at path,
// verifying fingerprints and rejecting duplicate-identifier and
// oversized records.
func (s *Store) Load(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read model store: %w", err)
	}
	var file storeFile
	if err := json.Unmarshal(data, &file); err != nil {
		return fmt.Errorf("decode model store: %w", err)
	}
	if file.Version != storeVersion {
		return fmt.Errorf("model store version %d unsupported (want %d)",
			file.Version, storeVersion)
	}
	if err := verifySets(file.Sets); err != nil {
		return err
	}
	s.restoreSets(file.Sets)
	s.log.Log(Event{Kind: EventStoreChanged, Domain: s.domain,
		Detail: fmt.Sprintf("store reloaded: %d identifier(s)", len(file.Sets))})
	return nil
}
