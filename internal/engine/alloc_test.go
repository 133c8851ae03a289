package engine

import (
	"context"
	"fmt"
	"testing"

	"github.com/septic-db/septic/internal/obs"
	"github.com/septic-db/septic/internal/raceflag"
)

// The allocation budget of the select path. The names carry "Alloc" so
// CI's uninstrumented `go test -run Alloc ./...` step picks them up:
// they skip under the race detector, which is all the other test step
// runs.

type nopHook struct{}

func (nopHook) BeforeExecute(*HookContext) error { return nil }

// contactsDB is the address-book table wire_hit and embed_miss read,
// behind a hook that does nothing: what remains is the engine's own cost.
func contactsDB(t *testing.T, rows int, opts ...Option) *DB {
	t.Helper()
	db := New(append(opts, WithQueryHook(nopHook{}))...)
	mustExec(t, db, `CREATE TABLE contacts (id INT PRIMARY KEY AUTO_INCREMENT,
		name TEXT, phone TEXT, email TEXT, address TEXT, grp TEXT)`)
	for i := 0; i < rows; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO contacts (name, phone, email, address, grp)
			VALUES ('name%04d', '555-%04d', 'n%d@example.org', '%d Main St', 'g%d')`, (i*7919)%rows, i, i, i, i%5))
	}
	return db
}

func execAllocs(t *testing.T, db *DB, runs int, query func(i int) string, args ...Value) float64 {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("race instrumentation adds allocations")
	}
	ctx := context.Background()
	i := 0
	return testing.AllocsPerRun(runs, func() {
		q := query(i)
		i++
		if _, err := db.ExecAppContext(ctx, "ab", q, args...); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	})
}

// A cached point select allocates its result — the Result, one block of
// cells, the row windows — and nothing else: 3, measured. Nothing per
// call that the plan holds, no HookContext, and the frame it evaluates
// under stays on the stack.
func TestAllocCachedPointSelect(t *testing.T) {
	db := contactsDB(t, 500)
	// An id above 99: strconv has no cached string for it, so an index key
	// formatted per call would show.
	got := execAllocs(t, db, 1000, func(int) string {
		return "/* ab:view */ SELECT name, phone, email, address FROM contacts WHERE id = 417"
	})
	if got > 4 {
		t.Errorf("cached point select allocates %.1f objects/op, want <= 4", got)
	}
	// The same read as a prepared statement runs off the same kind of
	// stored plan and probes with the argument where it is: no copy of the
	// AST, no plan per call, no key string. What it may add is what the
	// caller adds — here nothing, the argument slice is made once.
	bound := execAllocs(t, db, 1000, func(int) string {
		return "/* ab:view */ SELECT name, phone, email, address FROM contacts WHERE id = ?"
	}, Int(417))
	if bound > got+2 {
		t.Errorf("cached parameterized point select allocates %.1f objects/op, the literal one %.1f: want at most 2 more", bound, got)
	}
}

// An ordered list is one block of cells, one of keys, the row numbers,
// the windows and the Result — 5, measured — however many rows it has:
// the sort normalises its keys in the block they are in.
func TestAllocOrderedListIndependentOfRowCount(t *testing.T) {
	const q = "/* ab:list */ SELECT id, name, phone FROM contacts ORDER BY name"
	small := execAllocs(t, contactsDB(t, 200), 200, func(int) string { return q })
	large := execAllocs(t, contactsDB(t, 2000), 50, func(int) string { return q })
	if small > 6 {
		t.Errorf("200-row ordered list allocates %.1f objects/op, want <= 6", small)
	}
	if large != small {
		t.Errorf("ordered list allocates %.1f objects/op over 200 rows and %.1f over 2000: the count depends on the row count", small, large)
	}
}

// A text seen for the first time, of a shape the cache holds, is a shape
// hit plus a stored entry of its own: its values, read off it once, beside
// its shape's statement and plan. "cache" is that path — 6, measured: the
// entry, its values, the cache's slot for it and the result — and
// "nocache" a text parsed and planned alone, which cost 38 before plans
// existed: the plan (the struct and its column names, 2 allocations) has
// to cost less than it saves on its first use. A WHERE clause the access
// path answers and a SELECT list of plain columns bind nothing, so binding
// adds nothing here. Measured 14 (30 while the parser allocated a string
// per token and a node at a time: it is 7 of the 14 now, see sqlparser's
// TestParseAllocs).
//
// "full" is what embed_miss runs: the cache holds other texts and refuses
// this one, so the text borrows the shape's AST and plan and binds its own
// literal, read for this execution only — 3, measured: the result, as for
// a cached text — and the ceiling is that figure. "full, obs" is the same
// with the stage histograms on. From the second call on every text must
// have been a shape hit: a count that comes from parsing after all is not
// this path's.
//
// "refused" is train_wal's steady state: every text has a comment of its
// own, so every shape is new and the full cache refuses it too. The text
// is then parsed and planned alone, as a refused text was before shapes
// existed — 14, measured then and now: the key is built in pooled scratch
// and a refusal is a tag.
//
// "unshareable" is a shape whose literal is structure: the first text of
// it finds that out by a template parse, the cache remembers, and every
// later one is parsed and planned alone off its one scan, as before shapes
// existed — 17 with the sort, measured then and now.
func TestAllocColdPointSelect(t *testing.T) {
	view := func(i int) string {
		return fmt.Sprintf("/* ab:view */ SELECT name, phone, email, address FROM contacts WHERE id = %d", 100+i)
	}
	ownShape := func(i int) string {
		return fmt.Sprintf("/* ab:view %d */ SELECT name, phone, email, address FROM contacts WHERE id = 417", i)
	}
	ordinal := func(i int) string {
		return fmt.Sprintf("/* ab:view */ SELECT name, phone, email, address FROM contacts WHERE id = %d ORDER BY 1", 100+i)
	}
	for name, c := range map[string]struct {
		opts    []Option
		text    func(int) string
		ceiling float64
	}{
		"cache":       {nil, view, 6},
		"nocache":     {[]Option{WithParseCacheCapacity(0)}, view, 16},
		"full":        {[]Option{WithParseCacheCapacity(16)}, view, 3},
		"full, obs":   {[]Option{WithParseCacheCapacity(16), WithObs(obs.NewHub())}, view, 3},
		"refused":     {[]Option{WithParseCacheCapacity(16)}, ownShape, 14},
		"unshareable": {[]Option{WithParseCacheCapacity(16)}, ordinal, 17},
	} {
		t.Run(name, func(t *testing.T) {
			db := contactsDB(t, 600, c.opts...) // its 601 statements are 601 texts of two shapes
			for i := 0; i < 400; i++ {          // and these 400 more shapes, or 400 more texts of one
				mustExec(t, db, c.text(1000+i)) // (not -1-i: a minus sign is another shape, and could take this one's place)
			}
			before, alone := db.stmts.Stats(), db.unshareable.Load()
			var stages [3]int64
			if db.obsHub != nil {
				stages[cacheHit], stages[shapeHit], stages[cacheMiss] = parses(db)
			}
			got := execAllocs(t, db, 400, c.text) // 401 calls, 401 texts
			// One of the counted allocations is this test's Sprintf.
			if got-1 > c.ceiling {
				t.Errorf("cold point select allocates %.1f objects/op, want <= %v", got-1, c.ceiling)
			}
			// Every call looks its text up and misses; hits are shapes found.
			after := db.stmts.Stats()
			hits, misses, refused, parsedAlone := after.Hits-before.Hits, after.Misses-before.Misses, after.Refused-before.Refused, db.unshareable.Load()-alone
			switch name {
			case "cache":
				if hits != 401 || misses != 401 || after.Entries-before.Entries != 401 || parsedAlone != 0 {
					t.Errorf("not every call was a shape hit stored under its text: %+v then %+v", before, after)
				}
			case "nocache":
				if hits != 0 || parsedAlone != 0 {
					t.Errorf("a deployment without a cache found a shape: %+v then %+v", before, after)
				}
			case "full", "full, obs":
				if after.Evictions != before.Evictions || refused != 401 || hits != 401 || misses != 401 || parsedAlone != 0 {
					t.Errorf("not every call was a shape hit behind a full cache: %+v then %+v", before, after)
				}
				if db.obsHub != nil {
					if hit, shape, miss := parses(db); hit != stages[cacheHit] || shape-stages[shapeHit] != 401 || miss != stages[cacheMiss] {
						t.Errorf("parse-stage histograms count %d hits, %d shape hits and %d misses, were %v", hit, shape, miss, stages)
					}
				}
			case "refused":
				if refused != 802 || hits != 0 || after.Entries != before.Entries || parsedAlone != 401 {
					t.Errorf("not every call was refused twice, text and shape: %+v then %+v", before, after)
				}
			case "unshareable":
				if hits != 401 || parsedAlone != 401 || after.Entries != before.Entries {
					t.Errorf("not every call found its shape remembered as unshareable: %d parsed alone, %+v then %+v", parsedAlone, before, after)
				}
			}
		})
	}
}

// A cold text is charset-decoded once: the engine decodes it for the hook
// and hands the parser the decoded text. Spelled with U+02BC for its
// quotes — the paper's confusable, which MySQL folds to ' — a statement
// costs exactly the one decoded string more than its ASCII spelling.
func TestAllocColdDecodeOnce(t *testing.T) {
	spelling := func(quote string) func(int) string {
		return func(i int) string {
			return fmt.Sprintf("/* ab:find */ SELECT id FROM contacts WHERE name = %sname%04d%s", quote, i, quote)
		}
	}
	db := contactsDB(t, 600)
	ascii := execAllocs(t, db, 200, spelling("'"))
	folded := execAllocs(t, db, 200, spelling("\u02bc"))
	if folded != ascii+1 {
		t.Errorf("U+02BC spelling allocates %.1f objects/op against %.1f in ASCII: want exactly 1 more, the decoded text", folded, ascii)
	}
}

// A search page: two case-insensitive substring tests per row. What it
// allocates depends on the rows it finds — the list of hits and their
// result, 5 for two hits, measured — never on the rows it reads: no
// operand is lowered, no scope is built, nothing is resolved per row.
func TestAllocLikeScanIndependentOfRowCount(t *testing.T) {
	// One name and one email match at either size.
	const q = "/* ab:search */ SELECT name, email FROM contacts WHERE name LIKE '%NAME0003%' OR email LIKE '%N7@Example%'"
	small := execAllocs(t, contactsDB(t, 200), 200, func(int) string { return q })
	large := execAllocs(t, contactsDB(t, 2000), 50, func(int) string { return q })
	if small > 6 {
		t.Errorf("200-row search allocates %.1f objects/op, want <= 6", small)
	}
	if large != small {
		t.Errorf("search allocates %.1f objects/op over 200 rows and %.1f over 2000: the count depends on the row count", small, large)
	}
}

// Cached keyed writes run off a plan like a point select: the UPDATE
// probes the index, evaluates its bound SET expression and allocates the
// new row and the Result, 2 measured; the DELETE and the INSERT that puts
// the row back allocate the Result, the row and its bookkeeping, 8
// measured for the pair. Neither depends on the size of the table: no
// scan finds the row, no index is rebuilt behind it.
func TestAllocKeyedWritesIndependentOfTableSize(t *testing.T) {
	var update, pair [2]float64
	for i, rows := range []int{200, 2000} {
		db := contactsDB(t, rows)
		mustExec(t, db, "CREATE TABLE counters (id INT PRIMARY KEY, n INT)")
		for id := 0; id < rows; id++ {
			mustExec(t, db, fmt.Sprintf("INSERT INTO counters (id, n) VALUES (%d, 0)", id))
		}
		update[i] = execAllocs(t, db, 200, func(int) string { return "/* ab:touch */ UPDATE counters SET n = n + 1 WHERE id = 117" })
		pair[i] = execAllocs(t, db, 100, func(k int) string {
			if k%2 == 0 {
				return "/* ab:del */ DELETE FROM contacts WHERE id = 117"
			}
			return "/* ab:add */ INSERT INTO contacts (id, name, phone, email, address, grp) VALUES (117, 'n', 'p', 'e', 'a', 'g')"
		}) * 2
	}
	if update[0] > 3 {
		t.Errorf("cached keyed UPDATE allocates %.1f objects/op, want <= 3", update[0])
	}
	if pair[0] > 10 {
		t.Errorf("cached keyed DELETE + INSERT allocate %.1f objects, want <= 10", pair[0])
	}
	if update[0] != update[1] || pair[0] != pair[1] {
		t.Errorf("keyed writes allocate %.1f / %.1f objects over 200 rows and %.1f / %.1f over 2000", update[0], pair[0], update[1], pair[1])
	}
}
