package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/septic-db/septic/internal/obs"
	"github.com/septic-db/septic/internal/sqlparser"
)

// parses reads the parse-stage histograms of db, which has a hub: how many
// texts were served a resident entry, their shape's template, or a parse.
func parses(db *DB) (hit, shape, miss int64) {
	h := db.obsHub.Metrics.Snapshot().Histograms
	return h["engine.stage.parse.cache_hit"].Count, h["engine.stage.parse.shape_hit"].Count, h["engine.stage.parse.cache_miss"].Count
}

// fullParseCache returns a DB whose 16-entry statement cache other texts,
// all of one shape, have filled: every new text is refused and runs from
// its shape's template with values read for the one execution, and a new
// shape is admitted at its second sight at the latest.
func fullParseCache(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db := New(append(opts, WithParseCacheCapacity(16), WithObs(obs.NewHub()))...)
	mustExec(t, db, "CREATE TABLE filler (id INT PRIMARY KEY)")
	for i := 0; i < 400; i++ {
		mustExec(t, db, fmt.Sprintf("SELECT id FROM filler WHERE id = %d", i))
	}
	return db
}

// TestLeastBigintIsAnInteger: -9223372036854775808 reaches the engine as
// the integer it is — as a result cell, as the probe of a primary key and
// as a written value — spelled in a text of its own and read off a text
// through the template of "id = -n".
func TestLeastBigintIsAnInteger(t *testing.T) {
	for name, db := range map[string]*DB{"own parse": New(WithParseCacheCapacity(0)), "template": fullParseCache(t)} {
		mustExec(t, db, "CREATE TABLE big (id BIGINT PRIMARY KEY, note TEXT)")
		for _, id := range []string{"5", "6", "9223372036854775808"} { // the third finds the template
			mustExec(t, db, fmt.Sprintf("INSERT INTO big (id, note) VALUES (-%s, 'least')", id))
		}
		mustExec(t, db, "SELECT id, note FROM big WHERE id = -7")
		mustExec(t, db, "SELECT id, note FROM big WHERE id = -8")
		res := mustExec(t, db, "SELECT id, note FROM big WHERE id = -9223372036854775808")
		if len(res.Rows) != 1 || res.Rows[0][0] != Int(math.MinInt64) || res.Rows[0][1].S != "least" {
			t.Errorf("%s: WHERE id = -9223372036854775808 returns %v", name, res.Rows)
		}
		if res := mustExec(t, db, "SELECT -9223372036854775808, - -9223372036854775808"); res.Rows[0][0] != Int(math.MinInt64) || res.Rows[0][1] != Float(-math.MinInt64) {
			t.Errorf("%s: SELECT -9223372036854775808, - -9223372036854775808 returns %v", name, res.Rows)
		}
		if name == "template" {
			if _, shape, _ := parses(db); shape < 2 {
				t.Errorf("the texts did not run from templates: %d shape hits", shape)
			}
		}
	}
}

// TestShapeWithoutTemplateIsRemembered: a shape with a literal that is
// structure is tried as a template once, by the first text of it that
// parses; the texts after it find the answer and are parsed alone, each
// with its own ordinal. A text that does not parse leaves nothing behind.
func TestShapeWithoutTemplateIsRemembered(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE pairs (a INT PRIMARY KEY, b INT)")
	mustExec(t, db, "INSERT INTO pairs (a, b) VALUES (1, 9), (2, 8), (3, 7)")
	before := db.stmts.Stats()
	for i := 0; i < 4; i++ {
		if _, err := db.Exec(fmt.Sprintf("SELECT a, b FROM pairs WHERE a < %d ORDER BY %d, %d FROM", i, 1, 2)); err == nil {
			t.Fatal("a statement with a second FROM parsed")
		}
	}
	if s := db.stmts.Stats(); s.Entries != before.Entries || s.Hits != before.Hits {
		t.Fatalf("texts that do not parse left their shape behind: %+v, then %+v", before, s)
	}
	before, alone := db.stmts.Stats(), db.unshareable.Load()
	for i, want := range []int64{1, 3, 1, 3} { // ORDER BY a, then by b, in turn
		res := mustExec(t, db, fmt.Sprintf("SELECT a, b FROM pairs WHERE a < %d ORDER BY %d", 10+i, 1+i%2))
		if len(res.Rows) != 3 || res.Rows[0][0] != Int(want) {
			t.Errorf("ORDER BY %d returns %v", 1+i%2, res.Rows)
		}
	}
	// The first text stores the shape without a template; the other three
	// find it, and all four are parsed alone and stored under their text.
	s := db.stmts.Stats()
	if s.Hits-before.Hits != 3 || db.unshareable.Load()-alone != 4 || s.Entries-before.Entries != 5 {
		t.Errorf("the shape was not remembered as one without a template: %+v, then %+v, %d texts parsed alone", before, s, db.unshareable.Load()-alone)
	}
}

// TestShapeKeyIsNoText: a text byte-equal to the shape key of another — a
// mark and a token kind where the literal stood — is not served that
// shape's entry, though it is found under its bytes: it fails to scan.
func TestShapeKeyIsNoText(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE pairs (a INT PRIMARY KEY, b INT)")
	const text = "SELECT b FROM pairs WHERE a = 1"
	mustExec(t, db, text)
	p := sqlparser.Scan(text)
	key := string(p.ShapeKey())
	p.Release()
	if _, hit, _ := db.stmts.Lookup(key); !hit {
		t.Fatalf("the shape of %q is not held under %q", text, key)
	}
	_, want := New(WithParseCacheCapacity(0)).Exec(key)
	if _, err := db.Exec(key); err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("the shape key as a text: err = %v, want %v", err, want)
	}
}

// TestShapeErrorsAreTheTextsOwn: a text that fails as the template of its
// new shape, or whose value the known template cannot read, fails as it
// does parsed alone, and leaves nothing behind.
func TestShapeErrorsAreTheTextsOwn(t *testing.T) {
	alone, db := New(WithParseCacheCapacity(0)), New()
	for _, q := range []string{
		"CREATE TABLE pairs (a INT PRIMARY KEY, b INT)",
		"SELECT b FROM pairs WHERE a = 1.5",
		"SELECT b FROM pairs WHERE a = 1e999",
		"SELECT b FROM pairs WHERE a = 1 FROM pairs",
	} {
		_, want := alone.Exec(q)
		before := db.stmts.Len()
		if _, err := db.Exec(q); fmt.Sprint(err) != fmt.Sprint(want) {
			t.Errorf("%s: err = %v, alone %v", q, err, want)
		} else if err != nil && db.stmts.Len() != before {
			t.Errorf("%s failed and left %d entries behind", q, db.stmts.Len()-before)
		}
	}
}

// TestShapeRaceStress: eight goroutines run one template, each with its
// own values — a point read that must come back with the id it asked for,
// and a write of a value it alone writes — while another drops and
// re-creates the table, so the template's plan goes stale and is replaced
// under them, and a third floods the statement cache with shapes of its own,
// so the template is evicted and parsed again. Run with -race: the
// template, its slot table and its plan are shared, and so are the values
// of a resident text; nothing writes to any of them.
func TestShapeRaceStress(t *testing.T) {
	var sawArgs, reads, floods atomic.Int64
	db := fullParseCache(t, WithQueryHook(hookFunc(func(ctx *HookContext) error {
		if len(ctx.Args) != ctx.Stmt.NumParams() {
			return fmt.Errorf("hook saw %d values for %d placeholders: %s", len(ctx.Args), ctx.Stmt.NumParams(), ctx.Raw)
		}
		sawArgs.Add(int64(len(ctx.Args)))
		return nil
	})))
	const create = "CREATE TABLE s (id INT PRIMARY KEY, owner INT, v TEXT)"
	mustExec(t, db, create)
	ctx := context.Background()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; !stop.Load(); i++ {
				id := w*1000 + r.Intn(1000)
				_, err := db.ExecAppContext(ctx, "", fmt.Sprintf("INSERT INTO s (id, owner, v) VALUES (%d, %d, 'w%d-%d')", id, w, w, i))
				if err != nil && !errors.Is(err, ErrNoSuchTable) && !errors.Is(err, ErrDuplicate) {
					t.Errorf("insert: %v", err)
				}
				res, err := db.ExecAppContext(ctx, "", fmt.Sprintf("SELECT id, owner FROM s WHERE id = %d", id))
				reads.Add(1)
				switch {
				case errors.Is(err, ErrNoSuchTable):
				case err != nil:
					t.Errorf("select: %v", err)
				case len(res.Rows) > 1 || (len(res.Rows) == 1 && (res.Rows[0][0].I != int64(id) || res.Rows[0][1].I != int64(w))):
					t.Errorf("worker %d asked for id %d and got %v", w, id, res.Rows)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // floods the statement cache
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			_, _ = db.ExecAppContext(ctx, "", fmt.Sprintf("/* flood %d */ SELECT id FROM s WHERE owner = %d", i/2, i)) // each shape twice: the second is admitted
			floods.Add(1)
		}
	}()
	for reads.Load() < 4000 || floods.Load() < 1000 { // plan generations
		mustExec(t, db, "DROP TABLE s")
		mustExec(t, db, create)
	}
	stop.Store(true)
	wg.Wait()
	if _, shape, _ := parses(db); shape == 0 || db.stmts.Stats().Evictions == 0 || sawArgs.Load() == 0 {
		t.Errorf("no template was shared, or none was evicted: %d shape hits, %+v, %d values bound", shape, db.stmts.Stats(), sawArgs.Load())
	}
}
