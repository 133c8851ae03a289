package core

import "github.com/septic-db/septic/internal/engine"

// verdict is one memoized outcome of the full BeforeExecute pipeline for
// one statement in one protection domain: the identifier the statement
// produced, whether detection actually ran (checked) or the query was
// merely looked up (NN configuration, or unknown identifier without
// incremental learning), and the store record backing the hit so repeat
// executions keep usage accounting exact.
//
// A verdict lives in the engine's statement-cache entry of the statement
// it was computed from (engine.HookContext.Memo) — a text's, or its
// shape's — beside the AST and the plan: it is found again exactly as long
// as that entry is, costs no hash and no lock of its own, and is bounded
// and evicted with the entry. The slot holds one verdict per domain that
// judged the statement, as an immutable []*verdict replaced whole.
//
// Only benign outcomes are cached. Attacks are never memoized: every
// occurrence must be detected, logged, and (in prevention mode) blocked
// on its own, so the attack path always runs the full pipeline.
type verdict struct {
	// dom is the domain whose configuration and store the verdict was
	// computed against, and the only one it is ever served to: two tenants
	// issuing byte-identical text share the parse-cache entry, not this.
	dom     *Domain
	id      string
	checked bool
	// set is the store record for id at verdict time; nil when the
	// identifier was unknown (NN or no-incremental-learning paths). Safe
	// to retain across Deletes because a Delete bumps the store
	// generation, which invalidates this entry before the set could be
	// used again.
	set *modelSet
	// cfgGen and storeGen stamp the generations observed *before* the
	// verdict was computed. If either counter has moved, configuration or
	// learned knowledge may have changed mid-computation or since, and
	// the entry is stale.
	cfgGen   uint64
	storeGen uint64
}

// CacheStats reports verdict-memo effectiveness counters.
type CacheStats struct {
	// Hits counts lookups served from a fresh memoized verdict.
	Hits int64
	// Misses counts lookups that ran the full pipeline: a statement with no
	// slot (memoization off, a text the parse cache does not hold whose
	// shape lends it none, values a client bound), a slot with no verdict of
	// the domain, and stale verdicts.
	Misses int64
	// Evictions reads 0: verdicts leave with the statement-cache entry that
	// holds their slot, a text's or a shape's, and engine.parse_cache.evictions
	// counts those. The field stays while the benchmark contract reports
	// core.cache_evictions.
	Evictions int64
	// Invalidations counts the subset of Misses caused by generation
	// staleness (mode/config change or model-store mutation).
	Invalidations int64
	// Brownouts counts the subset of Misses answered by the domain's
	// fail policy instead of the detection pipeline because the
	// detection breaker was open (hits keep being served).
	Brownouts int64
}

// add accumulates another domain's snapshot.
func (s *CacheStats) add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Invalidations += o.Invalidations
	s.Brownouts += o.Brownouts
}

// verdictsIn reads a slot: the value found there, to replace it by, and
// the verdicts in it — none for no slot, an empty one, or one holding
// another hook's value.
func verdictsIn(slot *engine.Memo) (at *any, vs []*verdict) {
	if slot == nil {
		return nil, nil
	}
	if at = slot.Load(); at != nil {
		vs, _ = (*at).([]*verdict)
	}
	return at, vs
}

// recall returns the domain's verdict from slot if it is stamped with the
// current generations, and counts the lookup. A stale verdict counts as
// an invalidation and a miss; the caller recomputes and remembers,
// replacing it.
func (d *Domain) recall(slot *engine.Memo, cfgGen, storeGen uint64) *verdict {
	_, vs := verdictsIn(slot)
	for _, v := range vs {
		if v.dom != d {
			continue
		}
		if v.cfgGen == cfgGen && v.storeGen == storeGen {
			d.cacheHits.Add(1)
			return v
		}
		d.invalidations.Add(1)
		cause := "store generation moved"
		if v.cfgGen != cfgGen {
			cause = "configuration generation moved"
		}
		d.sep.logger.Log(Event{Kind: EventCacheInvalidated, Domain: d.name, QueryID: v.id,
			Detail: "cached verdict invalidated: " + cause})
		break
	}
	d.cacheMisses.Add(1)
	return nil
}

// remember leaves a benign verdict in slot, in place of the domain's
// previous one. The stamps in v must have been read BEFORE the pipeline
// ran: if a mutation landed mid-computation the current generation
// differs from the stamp and the verdict self-invalidates on its first
// recall. The verdict arrives by value and reaches the heap only when
// there is a slot, so a statement the engine does not remember allocates
// nothing here.
func (d *Domain) remember(slot *engine.Memo, v verdict) {
	if slot == nil {
		return
	}
	mine := new(verdict)
	*mine = v
	mine.dom = d
	for {
		old, others := verdictsIn(slot)
		vs := make([]*verdict, 0, len(others)+1)
		for _, o := range others {
			if o.dom != d {
				vs = append(vs, o)
			}
		}
		var next any = append(vs, mine)
		if slot.CompareAndSwap(old, &next) {
			return
		}
	}
}
