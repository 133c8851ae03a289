package core

import (
	"sync/atomic"

	"github.com/septic-db/septic/internal/txtcache"
)

// DefaultVerdictCacheCapacity bounds the verdict cache when the
// deployment does not choose its own size. Sized like the engine's parse
// cache: a web application's working set of distinct query texts is
// small (Fig. 5's workloads issue a handful of shapes), so 4096 entries
// hold it with room for parameter churn.
const DefaultVerdictCacheCapacity = 4096

// verdict is one memoized outcome of the full BeforeExecute pipeline for
// a byte-exact decoded query text: the identifier that text produced,
// whether detection actually ran (checked) or the query was merely looked
// up (NN configuration, or unknown identifier without incremental
// learning), and the store record backing the hit so repeat executions
// keep usage accounting exact.
//
// Only benign outcomes are cached. Attacks are never memoized: every
// occurrence must be detected, logged, and (in prevention mode) blocked
// on its own, so the attack path always runs the full pipeline.
type verdict struct {
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

// verdictCache memoizes benign verdicts keyed by exact decoded query
// text, with generation-stamped self-invalidation (no explicit flush:
// stale entries are simply never served, and eviction recycles them).
type verdictCache struct {
	cache *txtcache.Cache[*verdict]
	// invalidations counts lookups that found an entry whose generation
	// stamps were stale. They surface in stats as misses (the pipeline
	// runs in full) but are reported separately: a high rate means the
	// store or configuration is churning under the cache.
	invalidations atomic.Int64
	// log receives an EventCacheInvalidated per invalidation, tagged with
	// the owning domain. Set once by newDomain, before the cache is shared.
	log    *Logger
	domain string
}

// CacheStats reports verdict-cache effectiveness counters.
type CacheStats struct {
	// Hits counts lookups served from a fresh cached verdict.
	Hits int64
	// Misses counts lookups that ran the full pipeline: unseen text,
	// evicted entries, and stale (invalidated) entries.
	Misses int64
	// Evictions counts entries recycled by the capacity bound.
	Evictions int64
	// Refused counts texts a full cache declined to store at first sight;
	// far above Hits it means a scan, or an application that inlines
	// unique values into its query texts.
	Refused int64
	// Invalidations counts the subset of Misses caused by generation
	// staleness (mode/config change or model-store mutation).
	Invalidations int64
	// Entries is the current number of cached verdicts.
	Entries int
	// Brownouts counts the subset of Misses answered by the domain's
	// fail policy instead of the detection pipeline because the
	// detection breaker was open (cache hits keep being served).
	Brownouts int64
}

// add accumulates another snapshot (per-domain partition aggregation).
func (s *CacheStats) add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Refused += o.Refused
	s.Invalidations += o.Invalidations
	s.Entries += o.Entries
	s.Brownouts += o.Brownouts
}

// newVerdictCache builds a cache bounded to capacity entries; capacity 0
// disables caching (every lookup misses, inserts are dropped).
func newVerdictCache(capacity int) *verdictCache {
	return &verdictCache{cache: txtcache.New[*verdict](capacity)}
}

// lookup returns the cached verdict for text if it is stamped with the
// current generations. A stale entry counts as an invalidation and a
// miss; the caller recomputes and re-inserts, overwriting the stale
// entry in place. A nil cache — what a statement whose text is not all of
// it is given — holds nothing and counts nothing.
func (c *verdictCache) lookup(text string, cfgGen, storeGen uint64) (*verdict, bool) {
	if c == nil {
		return nil, false
	}
	v, ok := c.cache.Get(text)
	if !ok {
		return nil, false
	}
	if v.cfgGen != cfgGen || v.storeGen != storeGen {
		c.invalidations.Add(1)
		cause := "store generation moved"
		if v.cfgGen != cfgGen {
			cause = "configuration generation moved"
		}
		c.log.Log(Event{Kind: EventCacheInvalidated, Domain: c.domain, QueryID: v.id,
			Detail: "cached verdict invalidated: " + cause})
		return nil, false
	}
	return v, true
}

// insert memoizes a benign verdict computed against the given generation
// stamps. The stamps must have been read BEFORE the pipeline ran: if a
// mutation landed mid-computation the current generation differs from
// the stamp and the entry self-invalidates on its first lookup. The
// verdict arrives by value and reaches the heap only once the cache
// admits the text, so a never-repeating query allocates nothing here.
func (c *verdictCache) insert(text string, v verdict) {
	if c != nil && c.cache.Admits(text) {
		p := new(verdict)
		*p = v
		c.cache.Put(text, p)
	}
}

// stats snapshots the counters. Hits from the underlying text cache
// include stale entries that were then invalidated; those are reclassified
// as misses so Hits counts only verdicts actually served.
func (c *verdictCache) stats() CacheStats {
	s := c.cache.Stats()
	inv := c.invalidations.Load()
	return CacheStats{
		Hits:          s.Hits - inv,
		Misses:        s.Misses + inv,
		Evictions:     s.Evictions,
		Refused:       s.Refused,
		Invalidations: inv,
		Entries:       s.Entries,
	}
}
