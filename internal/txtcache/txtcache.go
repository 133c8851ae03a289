// Package txtcache provides a sharded, bounded, string-keyed cache with
// second-chance ("clock") eviction. It is the memoization substrate for
// the hot path that sees the same query text over and over: the engine's
// statement cache, which holds query texts and the shape keys they index
// in one instance, and whose statement entries carry everything a
// deployment remembers about a statement — the AST, its plan and the
// guard's verdict.
//
// Design constraints, in order:
//
//   - A hit must be allocation-free: Lookup takes a shard read-lock for one
//     map probe, reads the value, and touches only an atomic reference
//     bit afterwards. Repeated queries from parallel sessions land on
//     independent shards and never serialize on one lock.
//   - Memory is bounded, and a key seen once evicts nothing: a shard with
//     room stores a key at first sight, a full shard only remembers a
//     32-bit tag of it and stores it when it is offered again while the
//     tag survives (about a capacity of distinct keys). A flood of
//     never-repeating queries therefore costs one tag write each — no
//     entry, no map insert, no eviction — and every resident stays. Tags
//     sit two to a bucket, the newer first, so two keys offered in turn —
//     a text and its shape — both survive to their second offer. Two
//     keys sharing a tag can only admit one of them at its first sight;
//     a hit is decided by the map's full key, never by a tag. Among
//     admitted keys the second-chance sweep evicts the unreferenced first.
//   - Values are published once and treated as immutable by readers;
//     callers that need to replace a value Put a fresh one.
package txtcache

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// shardCount partitions the key space so unrelated sessions rarely touch
// the same lock. Kept equal to the model store's shard count: the same
// reasoning (the critical section is a map probe, the win is cacheline
// spread) applies.
const shardCount = 16

// Cache is a bounded string-keyed cache. The zero value is not usable;
// construct with New.
type Cache[V any] struct {
	shards   [shardCount]shard[V]
	perShard int
	seed     maphash.Seed

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	refused   atomic.Int64
}

type shard[V any] struct {
	mu sync.RWMutex
	m  map[string]*entry[V]
	// ring is the clock: every resident entry occupies one slot, and the
	// hand sweeps it looking for an unreferenced victim.
	ring []*entry[V]
	hand int
	// door is the admission filter of a full shard: tags of the absent
	// keys last offered to it, about one per resident, in buckets of two.
	door []uint32
}

type entry[V any] struct {
	key string
	val V
	// ref is the second-chance bit: set on every hit, cleared by the
	// sweeping hand, entries found clear are evicted.
	ref atomic.Bool
}

// New builds a cache bounded to roughly capacity entries (rounded up to a
// multiple of the shard count). A capacity of zero disables the cache:
// Lookup always misses and Put is a no-op, which gives callers a natural
// off switch for ablation benchmarks.
func New[V any](capacity int) *Cache[V] {
	c := &Cache[V]{seed: maphash.MakeSeed()}
	if capacity > 0 {
		c.perShard = (capacity + shardCount - 1) / shardCount
	}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*entry[V])
		c.shards[i].door = make([]uint32, (c.perShard+1)&^1)
	}
	return c
}

// shardOf derives the shard from the low bits of a key's hash; the
// doorkeeper takes the admission slot and tag from the rest.
func (c *Cache[V]) shardOf(h uint64) *shard[V] { return &c.shards[h%shardCount] }

// Lookup returns the cached value for key; a hit marks the entry
// referenced so the clock hand passes over it once before eviction. On a
// miss, admits says whether a Put of key would store it now, for a caller
// whose value is costly to build. False is the refusal itself — the tag is
// left at the door and counted, and the caller skips the Put; true leaves
// the door as it is for the Put that follows. The key is hashed once for
// both answers.
func (c *Cache[V]) Lookup(key string) (val V, hit, admits bool) {
	return c.lookup(maphash.String(c.seed, key), key, nil)
}

// LookupBytes is Lookup for a key held as bytes in a buffer the caller
// reuses: nothing keeps it. Put(string(key), …) stores under the same key.
func (c *Cache[V]) LookupBytes(key []byte) (val V, hit, admits bool) {
	return c.lookup(maphash.Bytes(c.seed, key), "", key)
}

// lookup finds the key hashing to h — bkey if non-nil, else skey — and, if
// it is absent, gives the admission answer.
func (c *Cache[V]) lookup(h uint64, skey string, bkey []byte) (val V, hit, admits bool) {
	if c.perShard == 0 {
		c.misses.Add(1)
		return val, false, false
	}
	sh := c.shardOf(h)
	sh.mu.RLock()
	var e *entry[V]
	var ok bool
	if bkey != nil {
		e, ok = sh.m[string(bkey)] // no copy: the compiler probes with the bytes
	} else {
		e, ok = sh.m[skey]
	}
	if !ok {
		admits = len(sh.ring) < c.perShard
		sh.mu.RUnlock()
		c.misses.Add(1)
		if !admits {
			sh.mu.Lock()
			_, first := c.refuse(sh, h)
			admits = !first
			sh.mu.Unlock()
		}
		return val, false, admits
	}
	val = e.val
	sh.mu.RUnlock()
	// Checking before storing keeps the steady state (hot entry, bit
	// already set) free of cross-core cacheline writes.
	if !e.ref.Load() {
		e.ref.Store(true)
	}
	c.hits.Add(1)
	return val, true, true
}

// refuse, with sh locked and full, is the doorkeeper: it reports whether
// an absent key hashing to h is being offered for the first time, and
// then leaves the key's tag first in its bucket, the older tag second,
// and counts the refusal. A tag found stays until Put clears its slot;
// tags are odd, so a cleared slot matches no key.
func (c *Cache[V]) refuse(sh *shard[V], h uint64) (slot *uint32, first bool) {
	b, tag := sh.door[2*((h>>4)%uint64(len(sh.door)/2)):][:2], uint32(h>>32)|1
	for i := range b {
		if b[i] == tag {
			return &b[i], false
		}
	}
	b[0], b[1] = tag, b[0]
	c.refused.Add(1)
	return &b[0], true
}

// Put inserts or replaces the value for key and reports whether the key
// is resident afterwards. A shard with room stores an absent key at once;
// a full shard refuses it at first sight, leaving only its tag at the
// door, and at the second evicts a victim via the clock sweep. A caller
// that would hang more state on the value reads the answer first: false
// means nobody will find val again.
func (c *Cache[V]) Put(key string, val V) bool {
	if c.perShard == 0 {
		return false
	}
	h := maphash.String(c.seed, key)
	sh := c.shardOf(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.m[key]; ok {
		e.val = val
		e.ref.Store(true)
		return true
	}
	if len(sh.ring) < c.perShard {
		e := &entry[V]{key: key, val: val}
		sh.m[key] = e
		sh.ring = append(sh.ring, e)
		return true
	}
	slot, first := c.refuse(sh, h)
	if first {
		return false
	}
	*slot = 0
	// New entries start with the reference bit clear: of two admitted
	// keys, the one never hit goes first.
	e := &entry[V]{key: key, val: val}
	// Clock sweep: clear reference bits until an unreferenced victim
	// turns up. Two full laps always suffice — the first lap clears
	// every bit it does not evict.
	for i := 0; i < 2*len(sh.ring); i++ {
		victim := sh.ring[sh.hand]
		if victim.ref.CompareAndSwap(true, false) {
			sh.hand = (sh.hand + 1) % len(sh.ring)
			continue
		}
		delete(sh.m, victim.key)
		sh.m[key] = e
		sh.ring[sh.hand] = e
		sh.hand = (sh.hand + 1) % len(sh.ring)
		c.evictions.Add(1)
		return true
	}
	return false // concurrent hits re-referenced every victim: the key waits for its next offer
}

// Len returns the number of resident entries.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// Refused counts Puts a full shard turned away at first sight.
	Refused int64
	Entries int
}

// Stats returns the counter snapshot.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Refused:   c.refused.Load(),
		Entries:   c.Len(),
	}
}

// Capacity returns the configured entry bound (0 when disabled).
func (c *Cache[V]) Capacity() int {
	return c.perShard * shardCount
}
