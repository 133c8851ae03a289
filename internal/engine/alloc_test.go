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

func execAllocs(t *testing.T, db *DB, runs int, query func(i int) string) float64 {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("race instrumentation adds allocations")
	}
	ctx := context.Background()
	i := 0
	return testing.AllocsPerRun(runs, func() {
		q := query(i)
		i++
		if _, err := db.ExecAppContext(ctx, "ab", q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	})
}

// A cached point select allocates its result — the Result, one block of
// cells, the row windows — and the scope it evaluates under: 4, measured.
// Nothing per call that the plan holds, and no HookContext.
func TestAllocCachedPointSelect(t *testing.T) {
	db := contactsDB(t, 500)
	// An id above 99: strconv has no cached string for it, so an index key
	// formatted per call would show.
	got := execAllocs(t, db, 1000, func(int) string {
		return "/* ab:view */ SELECT name, phone, email, address FROM contacts WHERE id = 417"
	})
	if got > 5 {
		t.Errorf("cached point select allocates %.1f objects/op, want <= 5", got)
	}
}

// An ordered list is one block of cells, one of keys, the row numbers,
// the windows, the Result and the scope — 6, measured — however many
// rows it has.
func TestAllocOrderedListIndependentOfRowCount(t *testing.T) {
	const q = "/* ab:list */ SELECT id, name, phone FROM contacts ORDER BY name"
	small := execAllocs(t, contactsDB(t, 200), 200, func(int) string { return q })
	large := execAllocs(t, contactsDB(t, 2000), 50, func(int) string { return q })
	if small > 7 {
		t.Errorf("200-row ordered list allocates %.1f objects/op, want <= 7", small)
	}
	if large != small {
		t.Errorf("ordered list allocates %.1f objects/op over 200 rows and %.1f over 2000: the count depends on the row count", small, large)
	}
}

// A text seen for the first time pays for parsing and for building its
// plan. The same select cost 38 before plans existed; the plan (the
// struct and its column names, 2 allocations) has to cost less than it
// saves on its first use. Measured 31 with the parse cache, 32 without.
func TestAllocColdPointSelect(t *testing.T) {
	for name, opts := range map[string][]Option{
		"cache":   nil,
		"nocache": {WithParseCacheCapacity(0)},
	} {
		t.Run(name, func(t *testing.T) {
			db := contactsDB(t, 600, opts...)
			got := execAllocs(t, db, 400, func(i int) string { // 401 calls, 401 texts
				return fmt.Sprintf("/* ab:view */ SELECT name, phone, email, address FROM contacts WHERE id = %d", 100+i)
			})
			// One of the counted allocations is this test's Sprintf.
			if got-1 > 33 {
				t.Errorf("cold point select allocates %.1f objects/op, want <= 33", got-1)
			}
		})
	}
}
