package engine

import (
	"context"
	"fmt"
	"testing"

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

// A text seen for the first time pays for parsing and for building its
// plan. The same select cost 38 before plans existed; the plan (the
// struct and its column names, 2 allocations) has to cost less than it
// saves on its first use. A WHERE clause the access path answers and a
// SELECT list of plain columns bind nothing, so binding adds nothing
// here. Measured 15 with the parse cache, 14 without (31 and 30 while the
// parser allocated a string per token and a node at a time: it is 7 of the
// 15 now, see sqlparser's TestParseAllocs).
//
// "full" is what embed_miss runs: the parse cache holds other texts and
// refuses this one, so it pays for no entry — 14, measured, and the
// ceiling is that figure: a refusal that allocates again fails here.
func TestAllocColdPointSelect(t *testing.T) {
	view := func(i int) string {
		return fmt.Sprintf("/* ab:view */ SELECT name, phone, email, address FROM contacts WHERE id = %d", 100+i)
	}
	for name, c := range map[string]struct {
		opts    []Option
		ceiling float64
	}{
		"cache":   {nil, 16},
		"nocache": {[]Option{WithParseCacheCapacity(0)}, 16},
		"full":    {[]Option{WithParseCacheCapacity(16)}, 14},
	} {
		t.Run(name, func(t *testing.T) {
			db := contactsDB(t, 600, c.opts...) // its 601 statements are 601 texts
			got := execAllocs(t, db, 400, view) // 401 calls, 401 texts
			// One of the counted allocations is this test's Sprintf.
			if got-1 > c.ceiling {
				t.Errorf("cold point select allocates %.1f objects/op, want <= %v", got-1, c.ceiling)
			}
			if s := db.parsed.Stats(); name == "full" && (s.Evictions != 0 || s.Refused < 401) {
				t.Errorf("the parse cache was not full throughout: %+v", s)
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
