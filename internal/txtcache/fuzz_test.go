package txtcache

import "testing"

// FuzzCacheModel drives one small cache from a byte string — each byte is
// a Get or a Put over a 64-key alphabet, twice the capacity, so shards
// fill, refuse, admit and evict — and holds it to a plain map: a hit
// returns the last value put for that key, and the cache stays bounded.
// Whether a given key is resident is the cache's own business.
func FuzzCacheModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x80\x00\x81\x01\x80\x00"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := New[int](32)
		model := make(map[byte]int)
		for step, op := range ops {
			k := op & 63
			key := string([]byte{'k', 'a' + k})
			if op&0x80 != 0 {
				c.Put(key, step)
				model[k] = step
			} else if v, ok := c.Get(key); ok {
				if want, put := model[k]; !put || v != want {
					t.Fatalf("step %d: Get(%s) = %d, last put %d (ever put: %t)", step, key, v, want, put)
				}
			}
			if n := c.Len(); n > c.Capacity() {
				t.Fatalf("step %d: Len %d exceeds capacity %d", step, n, c.Capacity())
			}
		}
	})
}
