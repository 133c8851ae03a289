package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestValidatedCatalogIsExecuted: a statement runs against the catalog it
// was validated on. A hook drops t and creates another t between
// validation and execution; INSERT, UPDATE, DELETE and SELECT still answer
// from the table they were validated on — they are linearized before the
// DROP — and each counts as executed once. The next statement sees the
// new, empty t.
func TestValidatedCatalogIsExecuted(t *testing.T) {
	for _, c := range []struct {
		query string
		want  string // affected rows, then rows
	}{
		{"INSERT INTO t (a) VALUES (1)", "1 []"},
		{"UPDATE t SET a = 2 WHERE a = 1", "1 []"},
		{"DELETE FROM t WHERE a = 1", "1 []"},
		{"SELECT a FROM t WHERE a = 1", "0 [[1]]"},
	} {
		var db *DB
		var armed bool
		var mid Stats
		db = New(WithQueryHook(hookFunc(func(ctx *HookContext) error {
			if armed && ctx.Raw == c.query {
				armed = false
				mustExec(t, db, "DROP TABLE t")
				mustExec(t, db, "CREATE TABLE t (b INT)")
				mid = db.Stats()
			}
			return nil
		})))
		mustExec(t, db, "CREATE TABLE t (a INT)")
		mustExec(t, db, "INSERT INTO t VALUES (1)")
		armed = true
		res, err := db.Exec(c.query)
		if err != nil {
			t.Errorf("%s with t re-created after validation: %v", c.query, err)
			continue
		}
		if got := fmt.Sprintf("%d %v", res.Affected, res.Rows); got != c.want {
			t.Errorf("%s with t re-created after validation: got %s, want %s", c.query, got, c.want)
		}
		if got := db.Stats(); got.Executed != mid.Executed+1 || got.Failed != mid.Failed {
			t.Errorf("%s: stats %+v after the DDL, %+v after the statement", c.query, mid, got)
		}
		if res := mustExec(t, db, "SELECT * FROM t"); !reflect.DeepEqual(res.Columns, []string{"b"}) || len(res.Rows) != 0 {
			t.Errorf("after %s, t is %v %v, want the new, empty t (b)", c.query, res.Columns, res.Rows)
		}
	}
}

// TestChaosCatalogSwap: readers and writers of cached and '?'-bound texts
// run against a loop that drops t and creates it again in one of two
// schemas, which have the same columns in another order and of another
// type. Every statement either fails for want of t or answers from one
// schema: the columns of a SELECT * and the type of every cell agree on
// which.
func TestChaosCatalogSwap(t *testing.T) {
	schemas := []string{
		"CREATE TABLE t (id INT PRIMARY KEY, v INT)",
		"CREATE TABLE t (v TEXT, id INT PRIMARY KEY)",
	}
	orders := [][]string{{"id", "v"}, {"v", "id"}}
	kinds := []map[string]Kind{{"id": KindInt, "v": KindInt}, {"id": KindInt, "v": KindString}}
	fits := func(res *Result, star bool, s int) bool {
		if star && !slices.Equal(res.Columns, orders[s]) {
			return false
		}
		for _, row := range res.Rows {
			for i, c := range res.Columns {
				if want, ok := kinds[s][c]; ok && row[i].Kind != want {
					return false
				}
			}
		}
		return true
	}
	type stmt struct {
		text string
		bind bool // one '?', bound to an id
		star bool
	}
	reads := []stmt{
		{"SELECT * FROM t WHERE id = ?", true, true},
		{"SELECT * FROM t ORDER BY id", false, true},
		{"SELECT v FROM t WHERE id = 2", false, false},
		{"SELECT id, v FROM t WHERE v > 0 ORDER BY v", false, false},
	}
	writes := []stmt{
		{"INSERT INTO t (id, v) VALUES (? + 3, 40)", true, false}, // above the ids the loop inserts
		{"UPDATE t SET v = v + 1 WHERE id = ?", true, false},
		{"UPDATE t SET v = v + 1 WHERE id > 2", false, false},
		{"DELETE FROM t WHERE id = ?", true, false},
	}
	db := New()
	mustExec(t, db, schemas[0])
	var ran atomic.Int64
	run := func(r *rand.Rand, s stmt) {
		ran.Add(1)
		var res *Result
		var err error
		if s.bind {
			res, err = db.ExecArgs(s.text, Int(int64(1+r.Intn(6))))
		} else {
			res, err = db.Exec(s.text)
		}
		switch {
		case errors.Is(err, ErrNoSuchTable), errors.Is(err, ErrDuplicate) && s.text == writes[0].text:
		case err != nil:
			t.Errorf("%s: %v", s.text, err)
		case !fits(res, s.star, 0) && !fits(res, s.star, 1):
			t.Errorf("%s answers %v %v, of neither schema", s.text, res.Columns, res.Rows)
		}
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w, list := range [][]stmt{reads, reads, writes} {
		wg.Add(1)
		go func(r *rand.Rand) {
			defer wg.Done()
			for !stop.Load() {
				run(r, list[r.Intn(len(list))])
			}
		}(rand.New(rand.NewSource(int64(w))))
	}
	const seed = "INSERT INTO t (id, v) VALUES (1, 10), (2, 20), (3, 30)"
	for i := 1; i <= 200 || ran.Load() < 3000; i++ { // until the statements have met the churn
		mustExec(t, db, "DROP TABLE t")
		mustExec(t, db, schemas[i%2])
		mustExec(t, db, seed)
	}
	stop.Store(true)
	wg.Wait()
	// Once more, alone: the plans the churn left answer as planning afresh.
	fresh := New(WithParseCacheCapacity(0))
	mustExec(t, db, "DROP TABLE t")
	for _, d := range []*DB{db, fresh} {
		mustExec(t, d, schemas[1])
		mustExec(t, d, seed)
	}
	for _, s := range append(reads, writes...) {
		var args []Value
		if s.bind {
			args = []Value{Int(2)}
		}
		got, gotErr := db.ExecArgs(s.text, args...)
		want, wantErr := fresh.ExecArgs(s.text, args...)
		if fmt.Sprint(got, gotErr) != fmt.Sprint(want, wantErr) {
			t.Errorf("after the churn %s answers %v %v, planned afresh %v %v", s.text, got, gotErr, want, wantErr)
		}
	}
}
