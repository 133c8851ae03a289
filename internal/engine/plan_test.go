package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/septic-db/septic/internal/sqlparser"
)

// accessType returns the access_type EXPLAIN reports for q's first source.
func accessType(t *testing.T, db *DB, q string) string {
	t.Helper()
	return mustExec(t, db, "EXPLAIN "+q).Rows[0][1].S
}

// literalArg returns the value a '?' has to be bound to to stand for the
// literal spelled lit.
func literalArg(t *testing.T, lit string) Value {
	t.Helper()
	stmt, err := sqlparser.Parse("SELECT " + lit)
	if err != nil {
		t.Fatal(err)
	}
	return LiteralValue(stmt.(*sqlparser.SelectStmt).Fields[0].Expr.(*sqlparser.Literal))
}

// TestIndexProbeIsTheScansAnswer: the unique index is probed only when
// that provably finds what the scan's weakly typed comparison finds. The
// oracle is the same table declared without PRIMARY KEY/UNIQUE, which
// has no index to take. Every probe is put as a literal, judged when the
// plan is built, and as the argument of one cached '?' text, judged per
// execution off a plan all the probes share.
func TestIndexProbeIsTheScansAnswer(t *testing.T) {
	indexed, plain := New(), New()
	mustExec(t, indexed, "CREATE TABLE n (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, plain, "CREATE TABLE n (id INT, v TEXT)")
	mustExec(t, indexed, "CREATE TABLE s (code TEXT UNIQUE, v TEXT)")
	mustExec(t, plain, "CREATE TABLE s (code TEXT, v TEXT)")
	for _, db := range []*DB{indexed, plain} {
		mustExec(t, db, "INSERT INTO n (id, v) VALUES (0, 'zero'), (1, 'one'), (9, 'nine'), (12, 'twelve')")
		mustExec(t, db, `INSERT INTO s (code, v) VALUES ('1', 'a'), ('1.5', 'b'), ('12abc', 'c'), (' 9', 'd'),
			('9', 'e'), ('9x', 'f'), ('1e0', 'g'), ('TRUE', 'h'), ('NULL', 'i'), (NULL, 'j')`)
	}
	cases := []struct {
		probe             string
		intPath, textPath string
	}{
		{"1", "const", "ALL"},
		{"1.5", "ALL", "ALL"},         // INT: coercion truncates; TEXT: numeric comparison
		{"'12abc'", "const", "const"}, // INT: 12 either way; TEXT: string equality
		{"' 9'", "const", "const"},
		{"TRUE", "const", "ALL"},
		{"1e0", "const", "ALL"},
		{"NULL", "ALL", "ALL"}, // equals nothing; the scan says so
		{"9", "const", "ALL"},  // TEXT: ' 9', '9' and '9x' all compare equal to 9
		{"'9'", "const", "const"},
	}
	for _, c := range cases {
		for _, q := range []struct{ sql, path string }{
			{"SELECT v FROM n WHERE id = @", c.intPath},
			{"SELECT v FROM s WHERE code = @", c.textPath},
			{"SELECT v FROM s WHERE @ = code", c.textPath},
		} {
			bound, arg := strings.Replace(q.sql, "@", "?", 1), literalArg(t, c.probe)
			q.sql = strings.Replace(q.sql, "@", c.probe, 1)
			got, want := mustExec(t, indexed, q.sql), mustExec(t, plain, q.sql)
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Errorf("%s: indexed table returns %v, scan returns %v", q.sql, got.Rows, want.Rows)
			}
			if path := accessType(t, indexed, q.sql); path != q.path {
				t.Errorf("%s: access path %s, want %s", q.sql, path, q.path)
			}
			if path := accessType(t, plain, q.sql); path != "ALL" {
				t.Errorf("%s: no index, yet access path %s", q.sql, path)
			}
			for _, db := range []*DB{indexed, plain} {
				if got, err := db.ExecArgs(bound, arg); err != nil || !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Errorf("%s bound to %s: returns %v, %v; the scan for the literal returns %v", bound, c.probe, got, err, want.Rows)
				}
			}
			if res, err := indexed.ExecArgs("EXPLAIN "+bound, arg); err != nil || res.Rows[0][1].S != q.path {
				t.Errorf("%s bound to %s: access path %v, %v, want %s", bound, c.probe, res, err, q.path)
			}
		}
	}
	// The two places where equal under Compare is still not equal in the
	// index: integers float64 cannot tell apart, and the two zeros.
	mustExec(t, indexed, "CREATE TABLE f (x FLOAT UNIQUE)")
	mustExec(t, indexed, "INSERT INTO f (x) VALUES (0 - 0.0), (2.5)")
	for q, path := range map[string]string{
		"SELECT v FROM n WHERE id = 9007199254740993": "ALL",
		"SELECT x FROM f WHERE x = 0":                 "ALL",
		"SELECT x FROM f WHERE x = '2.5'":             "const",
	} {
		if got := accessType(t, indexed, q); got != path {
			t.Errorf("%s: access path %s, want %s", q, got, path)
		}
	}
	if res := mustExec(t, indexed, "SELECT x FROM f WHERE x = 0"); len(res.Rows) != 1 {
		t.Errorf("x = 0 does not find the stored -0: %v", res.Rows)
	}
	// What the fix is about, spelled out.
	if res := mustExec(t, indexed, "SELECT v FROM n WHERE id = 1.5"); len(res.Rows) != 0 {
		t.Errorf("id = 1.5 found %v", res.Rows)
	}
	if res := mustExec(t, indexed, "SELECT v FROM s WHERE code = 9"); len(res.Rows) != 3 {
		t.Errorf("code = 9 found %v, want the three rows whose numeric prefix is 9", res.Rows)
	}
}

// TestDMLProbeIsTheScansAnswer: UPDATE and DELETE find their rows by the
// select's access path, so every literal form above must change the
// indexed table exactly as it changes the twin declared without an index:
// the same affected count, the same table afterwards. So must the same
// statement with the probe bound to a '?'.
func TestDMLProbeIsTheScansAnswer(t *testing.T) {
	setUp := func() (indexed, plain *DB) {
		indexed, plain = New(), New()
		mustExec(t, indexed, "CREATE TABLE n (id INT PRIMARY KEY, v TEXT)")
		mustExec(t, plain, "CREATE TABLE n (id INT, v TEXT)")
		mustExec(t, indexed, "CREATE TABLE s (code TEXT UNIQUE, v TEXT)")
		mustExec(t, plain, "CREATE TABLE s (code TEXT, v TEXT)")
		mustExec(t, indexed, "CREATE TABLE f (x FLOAT UNIQUE, v TEXT)")
		mustExec(t, plain, "CREATE TABLE f (x FLOAT, v TEXT)")
		for _, db := range []*DB{indexed, plain} {
			mustExec(t, db, `INSERT INTO n (id, v) VALUES (0, 'zero'), (1, 'one'), (9, 'nine'), (42, 'answer'),
				(9007199254740992, 'big'), (9007199254740993, 'bigger')`)
			mustExec(t, db, `INSERT INTO s (code, v) VALUES ('1', 'a'), ('1.5', 'b'), ('42', 'c'), (' 9', 'd'),
				('9', 'e'), ('9x', 'f'), ('1e0', 'g'), ('TRUE', 'h'), ('NULL', 'i'), (NULL, 'j'), ('0', 'k')`)
			mustExec(t, db, "INSERT INTO f (x, v) VALUES (0 - 0.0, 'negative zero'), (2.5, 'two and a half'), (1, 'one')")
		}
		return indexed, plain
	}
	probes := []string{"'42'", "42", "TRUE", "1.5", "NULL", "' 9'", "9", "'9'", "9007199254740993", "0", "0.0", "'2.5'", "1e0"}
	for _, probe := range probes {
		for _, tmpl := range []string{
			"UPDATE n SET v = 'hit' WHERE id = @",
			"UPDATE s SET v = 'hit' WHERE code = @",
			"UPDATE s SET v = 'hit' WHERE @ = code",
			"UPDATE f SET v = 'hit' WHERE x = @",
			"UPDATE n SET id = id + 100 WHERE id = @",
			"UPDATE s SET v = 'hit' WHERE code = @ ORDER BY v DESC LIMIT 1",
			"DELETE FROM n WHERE id = @",
			"DELETE FROM s WHERE code = @",
			"DELETE FROM f WHERE x = @",
			"DELETE FROM s WHERE code = @ ORDER BY v LIMIT 1",
		} {
			stmt := strings.Replace(tmpl, "@", probe, 1)
			// The indexed side runs the literal text, then the text with the
			// probe bound; the scan's side always runs the literal text.
			for _, run := range []struct {
				text string
				args []Value
			}{{text: stmt}, {strings.Replace(tmpl, "@", "?", 1), []Value{literalArg(t, probe)}}} {
				indexed, plain := setUp()
				for i := 0; i < 2; i++ { // built plan, then stored plan (which finds less: the first run changed the table)
					got, gotErr := indexed.ExecArgs(run.text, run.args...)
					want, wantErr := plain.Exec(stmt)
					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("%s %v: indexed err %v, scan err %v", run.text, run.args, gotErr, wantErr)
					}
					if gotErr == nil && got.Affected != want.Affected {
						t.Errorf("%s %v (run %d): %d rows affected on the indexed table, %d by the scan",
							run.text, run.args, i, got.Affected, want.Affected)
					}
					for _, table := range []string{"n", "s", "f"} {
						all := "SELECT * FROM " + table
						if got, want := mustExec(t, indexed, all), mustExec(t, plain, all); !reflect.DeepEqual(got.Rows, want.Rows) {
							t.Errorf("%s %v (run %d) leaves %s as\n %v on the indexed table\n %v by the scan",
								run.text, run.args, i, table, got.Rows, want.Rows)
						}
					}
				}
			}
		}
	}
	// The probe is taken where it is the scan's answer, and only there.
	indexed, _ := setUp()
	mustExec(t, indexed, "DELETE FROM n WHERE id = 42")
	if res := mustExec(t, indexed, "SELECT v FROM n WHERE id = 42"); len(res.Rows) != 0 {
		t.Errorf("deleted by key, still found by key: %v", res.Rows)
	}
	if res := mustExec(t, indexed, "UPDATE s SET v = 'three' WHERE code = 9"); res.Affected != 3 {
		t.Errorf("code = 9 updated %d rows, want the three whose numeric prefix is 9", res.Affected)
	}
}

// TestPlanFollowsSchema: one cached text, executed before and after the
// table it names is dropped and recreated with its columns in another
// order and another unique column. The result follows the new schema and
// the access path is decided again.
func TestPlanFollowsSchema(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT, tag TEXT)")
	mustExec(t, db, "INSERT INTO t (id, name, tag) VALUES (1, 'ann', 'x'), (2, 'bob', 'y')")
	const star, point, bound = "SELECT * FROM t", "SELECT name FROM t WHERE id = 2", "SELECT name FROM t WHERE id = ?"
	for i := 0; i < 2; i++ { // the second run executes the stored plans
		if res := mustExec(t, db, star); !reflect.DeepEqual(res.Columns, []string{"id", "name", "tag"}) || len(res.Rows) != 2 {
			t.Fatalf("before: %v %v", res.Columns, res.Rows)
		}
		if res := mustExec(t, db, point); len(res.Rows) != 1 || res.Rows[0][0].S != "bob" {
			t.Fatalf("before: %v", res.Rows)
		}
		if res, err := db.ExecArgs(bound, Int(2)); err != nil || !reflect.DeepEqual(res, mustExec(t, db, point)) {
			t.Fatalf("before: id = ? bound to 2 returns %v, %v", res, err)
		}
	}
	if got := accessType(t, db, point); got != "const" {
		t.Fatalf("before: access path %s", got)
	}

	mustExec(t, db, "DROP TABLE t")
	mustExec(t, db, "CREATE TABLE t (tag TEXT, name TEXT UNIQUE, id INT)")
	mustExec(t, db, "INSERT INTO t (tag, name, id) VALUES ('p', 'cal', 2), ('q', 'dee', 2), ('r', 'eve', 3)")
	for i := 0; i < 2; i++ {
		res := mustExec(t, db, star)
		if !reflect.DeepEqual(res.Columns, []string{"tag", "name", "id"}) || len(res.Rows) != 3 || res.Rows[0][0].S != "p" {
			t.Fatalf("after: %v %v", res.Columns, res.Rows)
		}
		// id is no longer unique: both rows with id 2, by a scan.
		if res := mustExec(t, db, point); len(res.Rows) != 2 || res.Rows[0][0].S != "cal" || res.Rows[1][0].S != "dee" {
			t.Fatalf("after: %v", res.Rows)
		}
		if res, err := db.ExecArgs(bound, Int(2)); err != nil || !reflect.DeepEqual(res, mustExec(t, db, point)) {
			t.Fatalf("after: id = ? bound to 2 returns %v, %v", res, err)
		}
	}
	if got := accessType(t, db, point); got != "ALL" {
		t.Fatalf("after: access path %s", got)
	}
	if got := accessType(t, db, "SELECT id FROM t WHERE name = 'eve'"); got != "const" {
		t.Fatalf("after: the new unique column is not probed: %s", got)
	}

	// A dropped table fails validation, and the text works again once the
	// table is back.
	mustExec(t, db, "DROP TABLE t")
	if _, err := db.Exec(star); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("dropped: err = %v", err)
	}
	mustExec(t, db, "CREATE TABLE t (only INT)")
	if res := mustExec(t, db, star); !reflect.DeepEqual(res.Columns, []string{"only"}) {
		t.Fatalf("recreated: %v", res.Columns)
	}
}

// TestUnknownColumnSurfacesAtExecute pins a deliberate choice: a plan
// leaves a column it cannot resolve to evaluation, so an unknown column
// is an error when a row is evaluated — from the execute stage, after
// the hook has seen and counted the statement — and not for an empty
// result (MySQL would raise 1054 there; this engine never has).
func TestUnknownColumnSurfacesAtExecute(t *testing.T) {
	hook := &blockingHook{}
	db := New(WithQueryHook(hook))
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
	for _, q := range []string{"SELECT nosuch FROM t", "SELECT nosuch FROM t WHERE id = 1", "SELECT id FROM t ORDER BY nosuch"} {
		if res := mustExec(t, db, q); len(res.Rows) != 0 {
			t.Fatalf("%s on an empty table: %v", q, res.Rows)
		}
	}
	// DML binds the same way: what does not resolve is silent until a row
	// is evaluated.
	dml := []string{
		"UPDATE t SET name = 'x' WHERE nosuch = 1", "UPDATE t SET name = nosuch", "UPDATE t SET name = nosuch WHERE id = 1",
		"UPDATE t SET name = 'x' ORDER BY nosuch LIMIT 1", "DELETE FROM t WHERE nosuch = 1", "DELETE FROM t ORDER BY nosuch LIMIT 1",
		"DELETE FROM t WHERE id = 1 ORDER BY nosuch",
	}
	for _, q := range dml {
		if res := mustExec(t, db, q); res.Affected != 0 {
			t.Fatalf("%s on an empty table: %d rows affected", q, res.Affected)
		}
	}
	mustExec(t, db, "INSERT INTO t (id, name) VALUES (1, 'ann')")
	for _, q := range append([]string{"SELECT nosuch FROM t", "SELECT nosuch FROM t WHERE id = 1", "SELECT id FROM t ORDER BY nosuch"}, dml...) {
		calls, failed := hook.calls, db.Stats().Failed
		for i := 0; i < 2; i++ { // built plan, then stored plan
			if _, err := db.Exec(q); !errors.Is(err, ErrNoSuchColumn) {
				t.Fatalf("%s: err = %v, want ErrNoSuchColumn", q, err)
			}
		}
		if hook.calls != calls+2 || db.Stats().Failed != failed+2 {
			t.Errorf("%s: hook ran %d times and %d failures were counted, want 2 and 2",
				q, hook.calls-calls, db.Stats().Failed-failed)
		}
	}
	if res := mustExec(t, db, "SELECT name FROM t"); len(res.Rows) != 1 || res.Rows[0][0].S != "ann" {
		t.Errorf("a failed statement changed the table: %v", res.Rows)
	}
	// A WHERE that holds for no row never reaches the SET clause.
	if res := mustExec(t, db, "UPDATE t SET name = nosuch WHERE id = 2"); res.Affected != 0 {
		t.Errorf("UPDATE of no row: %d affected", res.Affected)
	}
	// An unknown column on the left of SET is the one thing validation
	// knows: an error always, before the hook, on any table.
	calls := hook.calls
	for _, q := range []string{"UPDATE t SET nosuch = 1", "UPDATE t SET nosuch = 1 WHERE id = 2"} {
		if _, err := db.Exec(q); !errors.Is(err, ErrNoSuchColumn) {
			t.Errorf("%s: err = %v, want ErrNoSuchColumn", q, err)
		}
	}
	if hook.calls != calls {
		t.Errorf("the hook saw %d statements that failed validation", hook.calls-calls)
	}
}

// TestResultIsolation: what a caller does to a Result reaches neither
// the rows beside it, nor the table, nor the next execution.
func TestResultIsolation(t *testing.T) {
	db := testDB(t)
	const q = "SELECT id, name FROM users ORDER BY id"
	first := mustExec(t, db, q)
	want := mustExec(t, db, q)

	first.Rows[0][1] = Str("mutated")
	grown := append(first.Rows[0], Str("appended")) // must reallocate, not spill into row 1
	grown[0] = Int(-1)
	if got := first.Rows[1][0]; got.I != want.Rows[1][0].I {
		t.Errorf("appending to row 0 overwrote row 1: %v", got)
	}
	if cap(first.Rows[0]) != len(first.Rows[0]) {
		t.Errorf("row window has cap %d beyond its %d cells", cap(first.Rows[0]), len(first.Rows[0]))
	}
	if cap(first.Columns) != len(first.Columns) {
		t.Errorf("Columns has spare capacity: an append would write into the plan's slice")
	}
	again := mustExec(t, db, q)
	if !reflect.DeepEqual(again, want) {
		t.Errorf("a mutated result leaked into the next execution:\n got %v\nwant %v", again, want)
	}

	// DML after the fact does not reach a result already handed out.
	mustExec(t, db, "UPDATE users SET name = 'renamed' WHERE id = 2")
	mustExec(t, db, "DELETE FROM users WHERE id = 1")
	if want.Rows[0][1].S != "ann" || want.Rows[1][1].S != "bob" {
		t.Errorf("DML changed a returned result: %v", want.Rows)
	}
}

// TestOrderByAliasAfterStar: an output alias names its result column
// even when a * before it widens the row.
func TestOrderByAliasAfterStar(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "SELECT *, 0 - age AS k FROM users ORDER BY k")
	var names []string
	for _, row := range res.Rows {
		names = append(names, row[1].S)
	}
	// By k = -age, NULL first: not by name, the column at the alias's
	// position in the SELECT list.
	if want := []string{"dee", "bob", "ann", "cal"}; !reflect.DeepEqual(names, want) {
		t.Errorf("order = %v, want %v", names, want)
	}
}

// TestGroupedOperatorsMatchRowOperators: the grouping evaluator applies
// the operators the row evaluator does.
func TestGroupedOperatorsMatchRowOperators(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "SELECT city, COUNT(*) FROM users GROUP BY city HAVING city LIKE 'lis%'")
	if len(res.Rows) != 1 || res.Rows[0][1].I != 2 {
		t.Errorf("HAVING ... LIKE: %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT -MAX(pass) FROM users WHERE pass IS NULL")
	if !res.Rows[0][0].IsNull() {
		t.Errorf("-NULL over a group = %v, want NULL", res.Rows[0][0])
	}
}

// TestEmptyGroupErrors: over a group with no rows an expression reads
// NULL, an unknown column included, but what is wrong with the statement
// itself — an ordinal outside the SELECT list, * beside an aggregate — is
// an error with or without rows.
func TestEmptyGroupErrors(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "SELECT nosuch, COUNT(*) FROM users WHERE 1 = 0 ORDER BY nosuch")
	if len(res.Rows) != 1 || !res.Rows[0][0].IsNull() || res.Rows[0][1].I != 0 {
		t.Errorf("unknown column over an empty group: %v", res.Rows)
	}
	for q, want := range map[string]string{
		"SELECT COUNT(*) FROM users WHERE 1 = 0 ORDER BY 9": "ORDER BY position 9 out of range",
		"SELECT *, COUNT(*) FROM users WHERE 1 = 0":         "cannot mix * with aggregates",
		"SELECT COUNT(*), users.* FROM users":               "cannot mix * with aggregates",
	} {
		if _, err := db.Exec(q); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %s", q, err, want)
		}
	}
	// No group, no projection, no error.
	if res := mustExec(t, db, "SELECT *, COUNT(*) FROM users WHERE 1 = 0 GROUP BY city ORDER BY 99"); len(res.Rows) != 0 || len(res.Columns) != 7 {
		t.Errorf("no groups: %v %v", res.Columns, res.Rows)
	}
}

// selectGen generates single-table selects over table g (id INT PRIMARY
// KEY, k INT, s TEXT) — or whatever shape DDL churn left it in.
type selectGen struct{ r *rand.Rand }

func (g selectGen) pick(xs ...string) string { return xs[g.r.Intn(len(xs))] }

func (g selectGen) query() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if g.r.Intn(4) == 0 {
		b.WriteString("DISTINCT ")
	}
	b.WriteString(g.pick("*", "g.*", "id, s", "s AS label, k", "k + 1, UPPER(s)", "k", "id AS k, s", "x.id, *", "nosuch"))
	b.WriteString(" FROM g")
	if g.r.Intn(3) == 0 {
		b.WriteString(" x")
	} else {
		b.WriteString(" g")
	}
	switch g.r.Intn(6) {
	case 0:
		fmt.Fprintf(&b, " WHERE id = %d", g.r.Intn(12))
	case 1:
		fmt.Fprintf(&b, " WHERE id = %s", g.pick("'3'", "2.5", "NULL", "'x'", "TRUE"))
	case 2:
		fmt.Fprintf(&b, " WHERE k > %d", g.r.Intn(5))
	case 3:
		fmt.Fprintf(&b, " WHERE s LIKE '%%%d%%' OR k = %d", g.r.Intn(3), g.r.Intn(5))
	}
	if g.r.Intn(2) == 0 {
		fmt.Fprintf(&b, " ORDER BY %s", g.pick("1", "2 DESC", "k, id DESC", "label", "k * -1, 1", "s DESC", "9"))
	}
	if g.r.Intn(3) == 0 {
		fmt.Fprintf(&b, " LIMIT %d", g.r.Intn(4))
		if g.r.Intn(2) == 0 {
			fmt.Fprintf(&b, " OFFSET %d", g.r.Intn(12))
		}
	}
	return b.String()
}

// key is a literal to look a row of g up by: mostly one the index can
// serve, sometimes one only the scan's weak typing answers.
func (g selectGen) key() string {
	if g.r.Intn(4) == 0 {
		return g.pick("'3'", "2.5", "NULL", "' 4'", "TRUE", "'s1'")
	}
	return fmt.Sprint(g.r.Intn(12))
}

func (g selectGen) write() string {
	switch g.r.Intn(8) {
	case 0, 1, 2:
		return fmt.Sprintf("INSERT INTO g (id, k, s) VALUES (%d, %d, 's%d')", g.r.Intn(12), g.r.Intn(5), g.r.Intn(4))
	case 3:
		return fmt.Sprintf("UPDATE g SET k = k + 1, s = 'u%d' WHERE id = %s", g.r.Intn(4), g.key())
	case 4:
		return fmt.Sprintf("UPDATE g SET k = k + 1, s = CONCAT(s, 'x') WHERE s LIKE '%%%d%%' OR k = %d ORDER BY %s LIMIT %d",
			g.r.Intn(4), g.r.Intn(5), g.pick("id", "k DESC, id", "s, id DESC", "nosuch"), g.r.Intn(3))
	case 5:
		if g.r.Intn(2) == 0 {
			return fmt.Sprintf("DELETE FROM g WHERE s LIKE '%%U%d%%' ORDER BY %s LIMIT %d", g.r.Intn(4), g.pick("id DESC", "k, id"), 1+g.r.Intn(2))
		}
		return fmt.Sprintf("DELETE FROM g WHERE id = %s", g.key())
	case 6:
		return "DROP TABLE g"
	default:
		return g.pick("CREATE TABLE g (id INT PRIMARY KEY, k INT, s TEXT)",
			"CREATE TABLE g (s TEXT UNIQUE, k INT, id INT)",
			"CREATE TABLE g (k INT, id INT, s TEXT, extra BOOL DEFAULT TRUE)")
	}
}

// TestCachedPlansMatchPlanningPerExec is the property behind the plan
// cache: a DB that stores plans and one that builds a plan per execution
// return identical Results — columns, rows, nil versus empty, rows
// affected — and fail alike, over generated selects interleaved with
// DML (keyed, scanning, ordered and limited) and DDL. Texts repeat (the
// generator's space is small), so stored plans of all three statement
// kinds are reused across schema changes. A third DB has a parse cache of
// 16 entries, soon full: most of its texts are refused and run from the
// template of their shape with their own literals bound — or alone, the
// ORDER BY positions and SELECT-list constants the generator writes being
// structure — off plans that outlive the same schema changes.
func TestCachedPlansMatchPlanningPerExec(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := selectGen{rand.New(rand.NewSource(seed))}
		planning := New(WithParseCacheCapacity(0))
		cached := map[string]*DB{"caching": New(), "shaping": New(WithParseCacheCapacity(16))}
		for step := 0; step < 1500; step++ {
			q := g.query()
			if step%5 == 0 {
				q = g.write()
			}
			want, wantErr := planning.Exec(q)
			for name, db := range cached {
				got, gotErr := db.Exec(q)
				if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
					t.Fatalf("seed %d step %d %s:\n %s err %v\nplanning err %v", seed, step, q, name, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d %s:\n %s %+v\nplanning %+v", seed, step, q, name, got, want)
				}
			}
		}
		if st := cached["caching"].parsed.Stats(); st.Hits == 0 {
			t.Fatal("no text repeated: the property never exercised a stored plan")
		}
		if db := cached["shaping"]; db.shapes.Stats().Hits == 0 || db.unshareable.Load() == 0 {
			t.Fatalf("no text ran from a template, or none had to run alone: %+v, %d unshareable", db.shapes.Stats(), db.unshareable.Load())
		}
	}
}

// TestPlanRaceStress: readers execute a handful of cached texts while
// one goroutine churns DDL and another DML. Run with -race. A reader
// checks what it can without knowing the schema of the moment: a result
// row is as wide as its columns and, for the point read, holds the id it
// asked for — a plan executed against a dropped table's rows or index
// breaks one or the other.
func TestPlanRaceStress(t *testing.T) {
	var hookCalls atomic.Int64
	db := New(WithQueryHook(hookFunc(func(ctx *HookContext) error {
		hookCalls.Add(1)
		if ctx.Stmt == nil || ctx.Raw == "" || ctx.Raw != ctx.Decoded || ctx.App != "stress" {
			return fmt.Errorf("hook saw a recycled context: %+v", *ctx)
		}
		return nil
	})))
	shapes := []string{
		"CREATE TABLE r (id INT PRIMARY KEY, a TEXT, b TEXT)",
		"CREATE TABLE r (b TEXT, id INT, a TEXT UNIQUE)",
	}
	reads := []string{
		"SELECT id, a FROM r WHERE id = 3",
		"SELECT * FROM r ORDER BY a",
		"SELECT b, id FROM r WHERE a = 'a5'",
		"SELECT DISTINCT b FROM r ORDER BY 1 LIMIT 3",
		"SELECT COUNT(*), MAX(id) FROM r",
	}
	const iterations = 300
	var wg sync.WaitGroup
	var stop atomic.Bool
	seed := int64(0)
	run := func(f func(r *rand.Rand)) {
		seed++
		wg.Add(1)
		go func(r *rand.Rand) {
			defer wg.Done()
			f(r)
		}(rand.New(rand.NewSource(seed)))
	}
	exec := func(q string) (*Result, error) { return db.ExecAppContext(context.Background(), "stress", q) }
	if _, err := exec(shapes[0]); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		run(func(r *rand.Rand) {
			for !stop.Load() {
				q := reads[r.Intn(len(reads))]
				res, err := exec(q)
				if err != nil {
					if !errors.Is(err, ErrNoSuchTable) {
						t.Errorf("%s: %v", q, err)
					}
					continue
				}
				for _, row := range res.Rows {
					if len(row) != len(res.Columns) {
						t.Errorf("%s: row %v under columns %v", q, row, res.Columns)
					}
				}
				if q == reads[0] && len(res.Rows) == 1 && res.Rows[0][0].I != 3 {
					t.Errorf("%s returned %v", q, res.Rows)
				}
			}
		})
	}
	run(func(r *rand.Rand) { // DML
		for i := 0; i < iterations*4; i++ {
			id := r.Intn(8)
			_, _ = exec(fmt.Sprintf("INSERT INTO r (id, a, b) VALUES (%d, 'a%d', 'b%d')", id, id, id%3))
			_, _ = exec(fmt.Sprintf("UPDATE r SET b = 'c%d' WHERE id = %d", i%3, r.Intn(8)))
			_, _ = exec(fmt.Sprintf("UPDATE r SET b = CONCAT(b, 'x') WHERE a LIKE '%%A%d%%' ORDER BY id DESC LIMIT 2", r.Intn(8)))
			if i%3 == 0 {
				_, _ = exec(fmt.Sprintf("DELETE FROM r WHERE id = %d", r.Intn(8)))
				_, _ = exec(fmt.Sprintf("DELETE FROM r WHERE b LIKE 'c%d%%' ORDER BY a LIMIT 1", r.Intn(3)))
			}
		}
	})
	run(func(r *rand.Rand) { // DDL
		for i := 0; i < iterations; i++ {
			_, _ = exec("DROP TABLE r")
			_, _ = exec(shapes[i%2])
		}
		_, _ = exec("DROP TABLE r")
		_, _ = exec("CREATE TABLE r (a TEXT, z INT, b TEXT, id INT PRIMARY KEY)") // a shape of its own
		stop.Store(true)
	})
	wg.Wait()
	if hookCalls.Load() == 0 {
		t.Fatal("hook never ran")
	}
	// Every plan stored during the churn is stale or current, never
	// wrong: the cached texts now read the table the last CREATE made.
	res, err := exec(reads[1])
	if want := []string{"a", "z", "b", "id"}; err != nil || !reflect.DeepEqual(res.Columns, want) {
		t.Errorf("after the churn %s returns columns %v (err %v), want %v", reads[1], res.Columns, err, want)
	}
}

type hookFunc func(*HookContext) error

func (f hookFunc) BeforeExecute(ctx *HookContext) error { return f(ctx) }

// TestBoundEqualsWrittenOut: a text whose '?' placeholders are bound to
// values answers as the text with the values written out as literals
// does — results, rows affected, errors, the tables afterwards — in every
// clause a placeholder can stand in, run twice so the second execution is
// off the stored plan, then once more with other values off that same
// plan. It is what binding into a copy of the AST gave by construction.
func TestBoundEqualsWrittenOut(t *testing.T) {
	bound, written := testDB(t), testDB(t)
	for _, c := range []struct {
		text string // '@' where a value goes
		vals [][]string
	}{
		{"SELECT name FROM users WHERE city = @ AND age > @ ORDER BY name", [][]string{{"'lisbon'", "30"}, {"'porto'", "'4x'"}, {"NULL", "0"}}},
		{"SELECT name, age + @ FROM users WHERE name LIKE @ OR city LIKE @ ORDER BY id", [][]string{{"1", "'A%'", "'%OR%'"}, {"2.5", "'%'", "NULL"}, {"'3'", "'b_b'", "'ÃO'"}}},
		{"SELECT name FROM users WHERE age IN (@, 42, @) AND id NOT IN (SELECT uid FROM tickets WHERE creditCard = @) ORDER BY name", [][]string{{"31", "27", "1234"}, {"'31'", "NULL", "0"}}},
		{"SELECT name FROM users WHERE age BETWEEN @ AND @ ORDER BY name LIMIT @ OFFSET @", [][]string{{"20", "40", "1", "1"}, {"'27'", "31.5", "5", "0"}}},
		{"SELECT name FROM users ORDER BY id LIMIT @, @", [][]string{{"1", "2"}, {"0", "1"}}},
		{"SELECT city, COUNT(*), MAX(age) + @ FROM users WHERE vip = @ OR @ GROUP BY city HAVING COUNT(*) >= @ ORDER BY city", [][]string{{"1", "TRUE", "FALSE", "1"}, {"0.5", "FALSE", "TRUE", "2"}}},
		{"SELECT CASE WHEN age > @ THEN @ ELSE @ END, (SELECT COUNT(*) FROM tickets WHERE uid = users.id AND reservID <> @) FROM users WHERE EXISTS (SELECT 1 FROM logs WHERE ts > @) ORDER BY id", [][]string{{"30", "'old'", "'young'", "'x'", "0"}, {"NULL", "1", "2", "'ID34FG'", "99999"}}},
		{"SELECT u.name FROM users u JOIN tickets k ON k.uid = u.id + @ WHERE k.creditCard > @ UNION SELECT msg FROM (SELECT msg FROM logs WHERE ts > @) d ORDER BY 1", [][]string{{"0", "0", "0"}, {"1", "'1000'", "150"}}},
		{"INSERT INTO logs (ts, msg) VALUES (@, @), (@ + 1, 'lit')", [][]string{{"700", "'seven'", "700"}, {"'800'", "NULL", "1.5"}}},
		{"INSERT INTO logs (ts, msg) SELECT age + @, name FROM users WHERE city = @", [][]string{{"1000", "'lisbon'"}, {"2000", "'nowhere'"}}},
		{"UPDATE users SET age = age + @, city = @ WHERE id = @", [][]string{{"1", "'braga'", "2"}, {"0", "'braga'", "'2'"}, {"1", "NULL", "2.5"}}},
		{"UPDATE users SET pass = @ WHERE city = @ ORDER BY age DESC LIMIT @", [][]string{{"'reset'", "'lisbon'", "1"}, {"NULL", "'lisbon'", "5"}}},
		{"DELETE FROM logs WHERE ts = @ OR msg = @", [][]string{{"700", "'lit'"}, {"NULL", "'seven'"}}},
		{"DELETE FROM tickets WHERE id = @", [][]string{{"1"}, {"'2abc'"}, {"TRUE"}}},
		{"INSERT INTO users (name, age) VALUES (@, @)", [][]string{{"'eve'", "'abc'"}, {"NULL", "1"}}}, // errors at execute
		{"SELECT name FROM users WHERE nosuch = @", [][]string{{"1"}}},
	} {
		param := strings.ReplaceAll(c.text, "@", "?")
		for run, vals := range append(c.vals[:1:1], c.vals...) { // the first values twice
			lit, args := c.text, make([]Value, len(vals))
			for i, v := range vals {
				lit, args[i] = strings.Replace(lit, "@", v, 1), literalArg(t, v)
			}
			got, gotErr := bound.ExecArgs(param, args...)
			want, wantErr := written.Exec(lit)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s (run %d): bound err %v, written out err %v", lit, run, gotErr, wantErr)
			}
			if gotErr == nil && (!reflect.DeepEqual(got.Rows, want.Rows) || got.Affected != want.Affected || got.LastInsertID != want.LastInsertID) {
				t.Errorf("%s (run %d):\n      bound %+v\nwritten out %+v", lit, run, got, want)
			}
			for _, table := range []string{"users", "tickets", "logs"} {
				all := "SELECT * FROM " + table
				if got, want := mustExec(t, bound, all), mustExec(t, written, all); !reflect.DeepEqual(got.Rows, want.Rows) {
					t.Fatalf("%s (run %d) leaves %s as\n %v bound\n %v written out", lit, run, table, got.Rows, want.Rows)
				}
			}
		}
		// Nothing of an execution stays in the cached statement or its plan.
		if n := strings.Count(c.text, "@"); n > 0 {
			if _, err := bound.ExecArgs(param, make([]Value, n-1)...); err == nil || !strings.Contains(err.Error(), "not enough arguments") {
				t.Errorf("%s with an argument short: err = %v", param, err)
			}
		}
	}
}
