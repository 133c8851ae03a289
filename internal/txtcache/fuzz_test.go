package txtcache

import "testing"

// FuzzCacheModel drives one small cache from a byte string — each byte is
// a Lookup, a LookupBytes with the Put it allows, or a Put over a 64-key
// alphabet, twice the capacity, so shards fill, refuse, admit and evict —
// and holds it to a plain map: a hit returns the last value put for that
// key, a lookup that admits is followed by a Put that stores, and the cache
// stays bounded. Whether a given key is resident is otherwise the cache's
// own business.
func FuzzCacheModel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x80\x00\x81\x01\x80\x00"))
	f.Add([]byte("\x40\x41\x00\x40\x01\xc1\x41"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := New[int](32)
		model := make(map[byte]int)
		for step, op := range ops {
			k := op & 63
			key := string([]byte{'k', 'a' + k})
			check := func(v int) {
				if want, put := model[k]; !put || v != want {
					t.Fatalf("step %d: %s holds %d, last put %d (ever put: %t)", step, key, v, want, put)
				}
			}
			switch {
			case op&0x80 != 0:
				c.Put(key, step)
				model[k] = step
			case op&0x40 != 0:
				v, hit, admits := c.LookupBytes([]byte(key))
				if hit {
					check(v)
				} else if admits {
					if !c.Put(key, step) {
						t.Fatalf("step %d: Lookup(%s) admits and the Put does not store", step, key)
					}
					model[k] = step
				}
			default:
				if v, ok, _ := c.Lookup(key); ok {
					check(v)
				}
			}
			if n := c.Len(); n > c.Capacity() {
				t.Fatalf("step %d: Len %d exceeds capacity %d", step, n, c.Capacity())
			}
		}
	})
}
