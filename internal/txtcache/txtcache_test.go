package txtcache

import (
	"fmt"
	"hash/maphash"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New[int](64)
	if _, ok, _ := c.Lookup("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok, _ := c.Lookup("a"); !ok || v != 1 {
		t.Fatalf("Lookup(a) = %d, %t", v, ok)
	}
	c.Put("a", 3) // overwrite
	if v, _, _ := c.Lookup("a"); v != 3 {
		t.Fatalf("after overwrite Lookup(a) = %d", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestZeroCapacityDisables(t *testing.T) {
	c := New[string](0)
	if c.Put("a", "x") {
		t.Fatal("disabled cache reports the key resident")
	}
	if _, ok, _ := c.Lookup("a"); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if c.Capacity() != 0 {
		t.Fatalf("Capacity = %d", c.Capacity())
	}
}

// TestBoundedUnderFlood: one-shot keys fill the cache and are then
// refused one by one; none of them displaces a resident.
func TestBoundedUnderFlood(t *testing.T) {
	const capacity = 128
	c := New[int](capacity)
	const flood = 100 * capacity
	for i := 0; i < flood; i++ {
		c.Put(fmt.Sprintf("key-%d", i), i)
	}
	s := c.Stats()
	if s.Entries > c.Capacity() {
		t.Fatalf("flood grew cache to %d entries, cap %d", s.Entries, c.Capacity())
	}
	if s.Evictions != 0 {
		t.Fatalf("one-shot keys evicted residents: %+v", s)
	}
	if s.Refused+int64(s.Entries) != flood {
		t.Fatalf("refused %d + resident %d, want every one of %d Puts stored or refused", s.Refused, s.Entries, flood)
	}
}

// fill offers distinct keys until every shard is full and returns the
// ones that became resident, without hitting any of them.
func fill(c *Cache[int], prefix string) []string {
	var resident []string
	for i := 0; c.Len() < c.Capacity(); i++ {
		key, before := fmt.Sprintf("%s-%d", prefix, i), c.Len()
		c.Put(key, i)
		if c.Len() > before {
			resident = append(resident, key)
		}
	}
	return resident
}

// TestSecondOfferIsAdmitted: a full shard stores a key the second time
// it is offered, at the price of exactly one resident.
func TestSecondOfferIsAdmitted(t *testing.T) {
	c := New[int](64)
	fill(c, "resident")
	if c.Put("twice", 1) {
		t.Fatal("full shard reports a key resident at first sight")
	}
	if _, ok, _ := c.Lookup("twice"); ok {
		t.Fatal("full shard stored a key at first sight")
	}
	if s := c.Stats(); s.Evictions != 0 {
		t.Fatalf("first offer evicted: %+v", s)
	}
	if !c.Put("twice", 2) || !c.Put("twice", 2) {
		t.Fatal("the second offer, or the overwrite after it, reports the key absent")
	}
	if v, ok, _ := c.Lookup("twice"); !ok || v != 2 {
		t.Fatalf("after the second offer Lookup = %d, %t", v, ok)
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != c.Capacity() {
		t.Fatalf("second offer: %+v, want 1 eviction at capacity %d", s, c.Capacity())
	}
}

// TestKeysOfferedInTurnAreAdmitted: two absent keys of one full shard
// offered in turn, as the engine offers a text and then its shape, do not
// push each other's tag out of the door: each is admitted at its second
// offer.
func TestKeysOfferedInTurnAreAdmitted(t *testing.T) {
	c := New[int](16) // one entry and one bucket of the door per shard
	fill(c, "resident")
	shard := func(key string) uint64 { return maphash.String(c.seed, key) % shardCount }
	other := "b-0"
	for i := 1; shard(other) != shard("a"); i++ {
		other = fmt.Sprintf("b-%d", i)
	}
	for i, key := range []string{"a", other, "a", other} {
		if _, hit, admits := c.Lookup(key); hit || admits != (i >= 2) {
			t.Fatalf("offer %d of %s: hit %t, admits %t", i, key, hit, admits)
		}
	}
}

// TestLookupGivesTheAdmissionAnswer: a miss says whether a Put would store
// the key now, and a "no" is the refusal itself — counted, the tag left, so
// the next Lookup of the key says yes and the Put that follows stores it.
// With room, and on a hit, there is nothing to refuse. The same through
// LookupBytes, which keeps nothing of the buffer it is handed.
func TestLookupGivesTheAdmissionAnswer(t *testing.T) {
	c := New[int](64)
	if _, hit, admits := c.Lookup("early"); hit || !admits {
		t.Fatalf("a cache with room: hit %t, admits %t", hit, admits)
	}
	c.Put("early", 7)
	if v, hit, admits := c.Lookup("early"); !hit || !admits || v != 7 {
		t.Fatalf("a resident key: %d, hit %t, admits %t", v, hit, admits)
	}
	fill(c, "resident")
	for _, lookup := range []func(string) (int, bool, bool){
		c.Lookup,
		func(key string) (int, bool, bool) {
			buf := []byte(key)
			v, hit, admits := c.LookupBytes(buf)
			clear(buf)
			return v, hit, admits
		},
	} {
		key := fmt.Sprintf("twice-%d", c.Stats().Evictions)
		before := c.Stats()
		if _, hit, admits := lookup(key); hit || admits {
			t.Fatalf("a full shard at first sight: hit %t, admits %t", hit, admits)
		}
		if s := c.Stats(); s.Refused != before.Refused+1 || s.Evictions != before.Evictions || s.Misses != before.Misses+1 {
			t.Fatalf("the refusal was not counted once: %+v, then %+v", before, s)
		}
		if _, hit, admits := lookup(key); hit || !admits {
			t.Fatalf("a full shard at second sight: hit %t, admits %t", hit, admits)
		}
		if !c.Put(key, 2) {
			t.Fatal("the Put after an admission reports the key absent")
		}
		if v, hit, _ := lookup(key); !hit || v != 2 {
			t.Fatalf("after the Put: %d, hit %t", v, hit)
		}
		if s := c.Stats(); s.Refused != before.Refused+1 || s.Evictions != before.Evictions+1 {
			t.Fatalf("admission: %+v, then %+v; want one refusal and one eviction", before, s)
		}
	}
	if n := testing.AllocsPerRun(100, func() { c.LookupBytes([]byte("never seen, never stored")) }); n != 0 {
		t.Errorf("LookupBytes allocates %v", n)
	}
	if _, hit, admits := New[int](0).Lookup("off"); hit || admits {
		t.Errorf("a cache of no capacity: hit %t, admits %t", hit, admits)
	}
}

// TestScanDoesNotEvictResidents: residents that are never hit still
// outlive a scan a hundred times the cache, which the clock alone did not
// give them (its hand lapped the ring).
func TestScanDoesNotEvictResidents(t *testing.T) {
	c := New[int](128)
	resident := fill(c, "resident")
	for i := 0; i < 100*c.Capacity(); i++ {
		c.Put(fmt.Sprintf("scan-%d", i), i)
	}
	for _, key := range resident {
		if _, ok, _ := c.Lookup(key); !ok {
			t.Fatalf("%s evicted by a scan of one-shot keys: %+v", key, c.Stats())
		}
	}
}

// TestRefusalAllocatesNothing: turning a key away costs no entry and no
// other allocation, and Put says so, which is how the caller knows not to
// build anything for it either.
func TestRefusalAllocatesNothing(t *testing.T) {
	c := New[int](64)
	fill(c, "resident")
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("scan-%d", i)
	}
	i, stored := 0, 0
	n := testing.AllocsPerRun(len(keys)-1, func() {
		if c.Put(keys[i], i) {
			stored++
		}
		i++
	})
	if n != 0 || stored != 0 {
		t.Errorf("a refused Put allocates %v; %d of them reported the key resident", n, stored)
	}
	if s := c.Stats(); s.Refused < int64(len(keys)) || s.Evictions != 0 {
		t.Fatalf("the %d offers above were not all refused: %+v", len(keys), s)
	}
}

// TestShardChoiceReadsWholeKey: keys of one length that share their last
// 16 bytes, as the address book's search texts do, spread over the shards.
func TestShardChoiceReadsWholeKey(t *testing.T) {
	c := New[int](1 << 16)
	for i := 0; i < 1000; i++ {
		c.Put(fmt.Sprintf("SELECT * FROM contacts WHERE name LIKE '%%%04d%%' ORDER BY name", i), i)
	}
	used := 0
	for i := range c.shards {
		if len(c.shards[i].m) > 0 {
			used++
		}
	}
	if used < 12 {
		t.Fatalf("1000 keys with one 16-byte tail occupy %d of %d shards", used, shardCount)
	}
}

// TestSecondChanceKeepsHotEntry: an entry that is hit between floods
// survives eviction pressure that removes one-shot keys, because the
// sweep finds unreferenced cold entries first.
func TestSecondChanceKeepsHotEntry(t *testing.T) {
	const capacity = 256
	c := New[int](capacity)
	c.Put("hot", 42)
	for i := 0; i < 10*capacity; i++ {
		c.Put(fmt.Sprintf("cold-%d", i), i)
		if _, ok, _ := c.Lookup("hot"); !ok {
			t.Fatalf("hot entry evicted at flood step %d despite constant hits", i)
		}
	}
}

func TestStatsCounts(t *testing.T) {
	c := New[int](64)
	c.Put("a", 1)
	c.Lookup("a")
	c.Lookup("a")
	c.Lookup("missing")
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestConcurrent(t *testing.T) {
	c := New[int](256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("key-%d", i%100)
				if i%3 == 0 {
					c.Put(key, i)
				} else {
					c.Lookup(key)
				}
				if i%7 == 0 {
					c.Put(fmt.Sprintf("unique-%d-%d", g, i), i)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > c.Capacity() {
		t.Fatalf("Len = %d exceeds capacity %d", n, c.Capacity())
	}
}
