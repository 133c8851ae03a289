package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/septic-db/septic/internal/sqlparser"
)

// testDB builds a DB pre-loaded with the demo schema used across tests.
func testDB(t *testing.T) *DB {
	t.Helper()
	db := New(WithClock(func() time.Time {
		return time.Date(2017, 6, 26, 12, 0, 0, 0, time.UTC)
	}))
	ddl := []string{
		`CREATE TABLE users (
			id INT PRIMARY KEY AUTO_INCREMENT,
			name TEXT NOT NULL,
			pass TEXT,
			age INT,
			city TEXT,
			vip BOOL DEFAULT FALSE)`,
		`CREATE TABLE tickets (
			id INT PRIMARY KEY AUTO_INCREMENT,
			reservID TEXT,
			creditCard INT,
			uid INT)`,
		`CREATE TABLE logs (id INT PRIMARY KEY AUTO_INCREMENT, ts INT, msg TEXT)`,
	}
	for _, q := range ddl {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("setup %q: %v", q, err)
		}
	}
	seed := []string{
		`INSERT INTO users (name, pass, age, city, vip) VALUES
			('ann', 'pw1', 31, 'lisbon', TRUE),
			('bob', 'pw2', 42, 'porto', FALSE),
			('cal', 'pw3', 27, 'lisbon', FALSE),
			('dee', NULL, NULL, 'faro', TRUE)`,
		`INSERT INTO tickets (reservID, creditCard, uid) VALUES
			('ID34FG', 1234, 1), ('ZZ91AB', 5678, 2), ('QQ17CD', 1234, 1)`,
		`INSERT INTO logs (ts, msg) VALUES (10, 'boot'), (20, 'login'), (30, 'logout')`,
	}
	for _, q := range seed {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("seed %q: %v", q, err)
		}
	}
	return db
}

func mustExec(t *testing.T, db *DB, q string) *Result {
	t.Helper()
	res, err := db.Exec(q)
	if err != nil {
		t.Fatalf("Exec(%q): %v", q, err)
	}
	return res
}

func TestCreateInsertSelect(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "SELECT name, age FROM users WHERE city = 'lisbon' ORDER BY name")
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
	if res.Rows[0][0].S != "ann" || res.Rows[1][0].S != "cal" {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Columns[0] != "name" || res.Columns[1] != "age" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestSelectStar(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "SELECT * FROM users WHERE id = 1")
	if len(res.Rows) != 1 || len(res.Rows[0]) != 6 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Columns[1] != "name" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestAutoIncrementAndLastInsertID(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "INSERT INTO users (name) VALUES ('eve')")
	if res.LastInsertID != 5 {
		t.Errorf("LastInsertID = %d, want 5", res.LastInsertID)
	}
	res = mustExec(t, db, "SELECT id FROM users WHERE name = 'eve'")
	if res.Rows[0][0].I != 5 {
		t.Errorf("id = %v", res.Rows[0][0])
	}
}

func TestAutoIncrementSkipsExplicitValues(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "INSERT INTO users (id, name) VALUES (100, 'explicit')")
	res := mustExec(t, db, "INSERT INTO users (name) VALUES ('after')")
	if res.LastInsertID != 101 {
		t.Errorf("LastInsertID = %d, want 101", res.LastInsertID)
	}
}

func TestInsertDefaultsAndNotNull(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "INSERT INTO users (name) VALUES ('nodetails')")
	res := mustExec(t, db, "SELECT vip, age FROM users WHERE name = 'nodetails'")
	if res.Rows[0][0].AsBool() {
		t.Errorf("vip default should be FALSE, got %v", res.Rows[0][0])
	}
	if !res.Rows[0][1].IsNull() {
		t.Errorf("age should default to NULL, got %v", res.Rows[0][1])
	}
	if _, err := db.Exec("INSERT INTO users (age) VALUES (5)"); err == nil {
		t.Error("INSERT without NOT NULL column must fail")
	}
}

func TestUniqueViolation(t *testing.T) {
	db := testDB(t)
	_, err := db.Exec("INSERT INTO users (id, name) VALUES (1, 'dup')")
	if !errors.Is(err, ErrDuplicate) {
		t.Errorf("err = %v, want ErrDuplicate", err)
	}
}

func TestWhereOperators(t *testing.T) {
	db := testDB(t)
	tests := []struct {
		q    string
		want int
	}{
		{"SELECT id FROM users WHERE age > 30", 2},
		{"SELECT id FROM users WHERE age >= 31", 2},
		{"SELECT id FROM users WHERE age < 30", 1},
		{"SELECT id FROM users WHERE age <> 31", 2},
		{"SELECT id FROM users WHERE age IS NULL", 1},
		{"SELECT id FROM users WHERE age IS NOT NULL", 3},
		{"SELECT id FROM users WHERE name LIKE 'a%'", 1},
		{"SELECT id FROM users WHERE name LIKE '%n%'", 1},
		{"SELECT id FROM users WHERE name LIKE '_ob'", 1},
		{"SELECT id FROM users WHERE age BETWEEN 27 AND 31", 2},
		{"SELECT id FROM users WHERE age NOT BETWEEN 27 AND 31", 1},
		{"SELECT id FROM users WHERE city IN ('lisbon', 'faro')", 3},
		{"SELECT id FROM users WHERE city NOT IN ('lisbon')", 2},
		{"SELECT id FROM users WHERE vip = TRUE AND city = 'lisbon'", 1},
		{"SELECT id FROM users WHERE vip = TRUE OR city = 'porto'", 3},
		{"SELECT id FROM users WHERE NOT vip = TRUE AND age IS NOT NULL", 2},
	}
	for _, tt := range tests {
		res := mustExec(t, db, tt.q)
		if len(res.Rows) != tt.want {
			t.Errorf("%q returned %d rows, want %d", tt.q, len(res.Rows), tt.want)
		}
	}
}

// TestMySQLWeakTyping covers the numeric-context coercions attackers rely
// on: strings compare numerically against numbers via numeric prefix.
func TestMySQLWeakTyping(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "SELECT id FROM tickets WHERE creditCard = '1234'")
	if len(res.Rows) != 2 {
		t.Errorf("string/int compare: %d rows, want 2", len(res.Rows))
	}
	res = mustExec(t, db, "SELECT id FROM tickets WHERE creditCard = '1234abc'")
	if len(res.Rows) != 2 {
		t.Errorf("numeric-prefix compare: %d rows, want 2", len(res.Rows))
	}
	// Tautology through weak typing: 1='1' is true.
	res = mustExec(t, db, "SELECT id FROM users WHERE 1 = '1'")
	if len(res.Rows) != 4 {
		t.Errorf("1='1' should be a tautology, got %d rows", len(res.Rows))
	}
}

func TestNullSemantics(t *testing.T) {
	db := testDB(t)
	// NULL never equals anything, including itself.
	res := mustExec(t, db, "SELECT id FROM users WHERE pass = NULL")
	if len(res.Rows) != 0 {
		t.Errorf("= NULL matched %d rows, want 0", len(res.Rows))
	}
	res = mustExec(t, db, "SELECT id FROM users WHERE NULL = NULL")
	if len(res.Rows) != 0 {
		t.Errorf("NULL = NULL matched %d rows, want 0", len(res.Rows))
	}
}

func TestOrderByDirections(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "SELECT name FROM users WHERE age IS NOT NULL ORDER BY age DESC")
	if res.Rows[0][0].S != "bob" || res.Rows[2][0].S != "cal" {
		t.Errorf("rows = %v", res.Rows)
	}
	// ORDER BY ordinal (the "ORDER BY 2" form).
	res = mustExec(t, db, "SELECT name, age FROM users WHERE age IS NOT NULL ORDER BY 2")
	if res.Rows[0][0].S != "cal" {
		t.Errorf("ordinal order rows = %v", res.Rows)
	}
	// NULLs sort first ascending.
	res = mustExec(t, db, "SELECT name FROM users ORDER BY age")
	if res.Rows[0][0].S != "dee" {
		t.Errorf("NULL should sort first: %v", res.Rows)
	}
}

func TestOrderByAlias(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "SELECT age * 2 AS doubled FROM users WHERE age IS NOT NULL ORDER BY doubled DESC")
	if res.Rows[0][0].I != 84 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestLimitOffset(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "SELECT id FROM logs ORDER BY ts LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 1 {
		t.Errorf("rows = %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT id FROM logs ORDER BY ts LIMIT 2 OFFSET 2")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT id FROM logs ORDER BY ts LIMIT 1, 2")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 2 {
		t.Errorf("comma-limit rows = %v", res.Rows)
	}
}

func TestDistinct(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "SELECT DISTINCT city FROM users ORDER BY city")
	if len(res.Rows) != 3 {
		t.Errorf("got %d rows, want 3: %v", len(res.Rows), res.Rows)
	}
}

func TestJoins(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT u.name, t.reservID FROM users u
		JOIN tickets t ON u.id = t.uid ORDER BY t.reservID`)
	if len(res.Rows) != 3 {
		t.Fatalf("inner join rows = %v", res.Rows)
	}
	if res.Rows[0][0].S != "ann" {
		t.Errorf("rows = %v", res.Rows)
	}
	// LEFT JOIN null-extends users without tickets.
	res = mustExec(t, db, `SELECT u.name, t.id FROM users u
		LEFT JOIN tickets t ON u.id = t.uid WHERE t.id IS NULL ORDER BY u.name`)
	if len(res.Rows) != 2 {
		t.Fatalf("left join rows = %v", res.Rows)
	}
	if res.Rows[0][0].S != "cal" || res.Rows[1][0].S != "dee" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestCrossJoinComma(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "SELECT COUNT(*) FROM users, logs")
	if res.Rows[0][0].I != 12 {
		t.Errorf("cross product = %v, want 12", res.Rows[0][0])
	}
}

func TestAggregates(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "SELECT COUNT(*), COUNT(age), SUM(age), AVG(age), MIN(age), MAX(age) FROM users")
	row := res.Rows[0]
	if row[0].I != 4 || row[1].I != 3 {
		t.Errorf("counts = %v", row)
	}
	if row[2].I != 100 {
		t.Errorf("sum = %v, want 100", row[2])
	}
	if row[4].AsInt() != 27 || row[5].AsInt() != 42 {
		t.Errorf("min/max = %v / %v", row[4], row[5])
	}
}

func TestGroupByHaving(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT city, COUNT(*) AS n FROM users
		GROUP BY city HAVING COUNT(*) > 1 ORDER BY city`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "lisbon" || res.Rows[0][1].I != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestGroupConcatAndDistinctAggregates(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "SELECT COUNT(DISTINCT creditCard) FROM tickets")
	if res.Rows[0][0].I != 2 {
		t.Errorf("distinct count = %v, want 2", res.Rows[0][0])
	}
	res = mustExec(t, db, "SELECT GROUP_CONCAT(name) FROM users WHERE city = 'lisbon'")
	if res.Rows[0][0].S != "ann,cal" {
		t.Errorf("group_concat = %v", res.Rows[0][0])
	}
}

func TestEmptyAggregate(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "SELECT COUNT(*), SUM(age) FROM users WHERE city = 'nowhere'")
	if res.Rows[0][0].I != 0 || !res.Rows[0][1].IsNull() {
		t.Errorf("empty aggregate = %v", res.Rows[0])
	}
}

func TestUnion(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "SELECT name FROM users WHERE vip = TRUE UNION SELECT name FROM users WHERE city = 'lisbon'")
	if len(res.Rows) != 3 {
		t.Errorf("union dedupe: %d rows, want 3 (%v)", len(res.Rows), res.Rows)
	}
	res = mustExec(t, db, "SELECT name FROM users WHERE vip = TRUE UNION ALL SELECT name FROM users WHERE city = 'lisbon'")
	if len(res.Rows) != 4 {
		t.Errorf("union all: %d rows, want 4", len(res.Rows))
	}
	if _, err := db.Exec("SELECT name, id FROM users UNION SELECT name FROM users"); err == nil {
		t.Error("mismatched union width must fail")
	}
}

// TestUnionExtractsOtherTable is the attack shape UNION injections use:
// pull another table's data through the original projection.
func TestUnionExtractsOtherTable(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "SELECT reservID FROM tickets WHERE id = 1 UNION SELECT pass FROM users")
	if len(res.Rows) != 4 { // 1 ticket + 3 non-null passes + dedupe of NULL... NULL kept too
		// rows: ID34FG, pw1, pw2, pw3, NULL -> 5 distinct
		if len(res.Rows) != 5 {
			t.Errorf("rows = %v", res.Rows)
		}
	}
}

func TestScalarSubquery(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "SELECT name FROM users WHERE age = (SELECT MAX(age) FROM users)")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "bob" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestInSubquery(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "SELECT reservID FROM tickets WHERE uid IN (SELECT id FROM users WHERE vip = TRUE) ORDER BY reservID")
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestCorrelatedSubquery(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT name FROM users u WHERE EXISTS
		(SELECT 1 FROM tickets t WHERE t.uid = u.id) ORDER BY name`)
	if len(res.Rows) != 2 || res.Rows[0][0].S != "ann" || res.Rows[1][0].S != "bob" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestDerivedTable(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT n FROM (SELECT name AS n, age FROM users WHERE age > 26) AS adults ORDER BY n`)
	if len(res.Rows) != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestScalarFunctions(t *testing.T) {
	db := testDB(t)
	tests := []struct {
		q    string
		want string
	}{
		{"SELECT CONCAT('a', 'b', 1)", "ab1"},
		{"SELECT CONCAT_WS('-', 'a', NULL, 'b')", "a-b"},
		{"SELECT UPPER('abc')", "ABC"},
		{"SELECT LOWER('ABC')", "abc"},
		{"SELECT LENGTH('hello')", "5"},
		{"SELECT TRIM('  x  ')", "x"},
		{"SELECT REPLACE('aXa', 'X', 'b')", "aba"},
		{"SELECT SUBSTRING('hello', 2, 3)", "ell"},
		{"SELECT SUBSTRING('hello', 2)", "ello"},
		{"SELECT SUBSTRING('hello', -3)", "llo"},
		{"SELECT ABS(-4)", "4"},
		{"SELECT ROUND(2.567, 1)", "2.6"},
		{"SELECT FLOOR(2.9)", "2"},
		{"SELECT CEIL(2.1)", "3"},
		{"SELECT MOD(7, 3)", "1"},
		{"SELECT IF(1 > 2, 'yes', 'no')", "no"},
		{"SELECT IFNULL(NULL, 'fallback')", "fallback"},
		{"SELECT COALESCE(NULL, NULL, 3)", "3"},
		{"SELECT NULLIF(1, 1)", "NULL"},
		{"SELECT GREATEST(1, 9, 4)", "9"},
		{"SELECT LEAST(5, 2, 8)", "2"},
		{"SELECT MD5('abc')", "900150983cd24fb0d6963f7d28e17f72"},
		{"SELECT HEX('AB')", "4142"},
		{"SELECT NOW()", "2017-06-26 12:00:00"},
		{"SELECT CURDATE()", "2017-06-26"},
		{"SELECT VERSION()", "5.7.0-septic"},
	}
	for _, tt := range tests {
		res := mustExec(t, db, tt.q)
		if got := res.Rows[0][0].String(); got != tt.want {
			t.Errorf("%s = %q, want %q", tt.q, got, tt.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	db := testDB(t)
	tests := []struct {
		q    string
		want string
	}{
		{"SELECT 1 + 2", "3"},
		{"SELECT 7 - 10", "-3"},
		{"SELECT 3 * 4", "12"},
		{"SELECT 7 / 2", "3.5"},
		{"SELECT 7 % 3", "1"},
		{"SELECT 1 / 0", "NULL"},
		{"SELECT 1.5 + 1", "2.5"},
	}
	for _, tt := range tests {
		res := mustExec(t, db, tt.q)
		if got := res.Rows[0][0].String(); got != tt.want {
			t.Errorf("%s = %q, want %q", tt.q, got, tt.want)
		}
	}
}

func TestUpdate(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "UPDATE users SET age = age + 1 WHERE city = 'lisbon'")
	if res.Affected != 2 {
		t.Errorf("affected = %d, want 2", res.Affected)
	}
	check := mustExec(t, db, "SELECT age FROM users WHERE name = 'ann'")
	if check.Rows[0][0].I != 32 {
		t.Errorf("age = %v, want 32", check.Rows[0][0])
	}
}

func TestUpdateUnchangedNotCounted(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "UPDATE users SET city = 'lisbon' WHERE city = 'lisbon'")
	if res.Affected != 0 {
		t.Errorf("affected = %d, want 0 (values unchanged)", res.Affected)
	}
}

func TestUpdateWithLimitAndOrder(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "UPDATE logs SET msg = 'x' ORDER BY ts DESC LIMIT 1")
	if res.Affected != 1 {
		t.Fatalf("affected = %d, want 1", res.Affected)
	}
	check := mustExec(t, db, "SELECT msg FROM logs WHERE ts = 30")
	if check.Rows[0][0].S != "x" {
		t.Errorf("wrong row updated: %v", check.Rows)
	}
}

func TestDelete(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "DELETE FROM logs WHERE ts < 25")
	if res.Affected != 2 {
		t.Errorf("affected = %d, want 2", res.Affected)
	}
	check := mustExec(t, db, "SELECT COUNT(*) FROM logs")
	if check.Rows[0][0].I != 1 {
		t.Errorf("remaining = %v", check.Rows[0][0])
	}
}

func TestDropAndShowTables(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "DROP TABLE logs")
	res := mustExec(t, db, "SHOW TABLES")
	if len(res.Rows) != 2 {
		t.Errorf("tables = %v", res.Rows)
	}
	if _, err := db.Exec("SELECT * FROM logs"); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("err = %v, want ErrNoSuchTable", err)
	}
	mustExec(t, db, "DROP TABLE IF EXISTS logs")
}

func TestDescribe(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "DESCRIBE users")
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][3].S != "PRI" || res.Rows[0][4].S != "auto_increment" {
		t.Errorf("id row = %v", res.Rows[0])
	}
}

func TestValidationErrors(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		q    string
		want error
	}{
		{"SELECT * FROM missing", ErrNoSuchTable},
		{"INSERT INTO missing (a) VALUES (1)", ErrNoSuchTable},
		{"INSERT INTO users (nope) VALUES (1)", ErrNoSuchColumn},
		{"UPDATE missing SET a = 1", ErrNoSuchTable},
		{"UPDATE users SET nope = 1", ErrNoSuchColumn},
		{"DELETE FROM missing", ErrNoSuchTable},
		{"CREATE TABLE users (id INT)", ErrTableExists},
		{"DROP TABLE missing", ErrNoSuchTable},
	}
	for _, tt := range cases {
		if _, err := db.Exec(tt.q); !errors.Is(err, tt.want) {
			t.Errorf("%q: err = %v, want %v", tt.q, err, tt.want)
		}
	}
	if _, err := db.Exec("SELECT nope FROM users"); !errors.Is(err, ErrNoSuchColumn) {
		t.Errorf("unknown column in projection: %v", err)
	}
}

func TestInsertWrongArity(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("INSERT INTO users (name, age) VALUES ('x')"); err == nil {
		t.Error("arity mismatch must fail")
	}
}

// blockingHook drops every query whose text the filter flags.
type blockingHook struct {
	mu      sync.Mutex
	calls   int
	blocked int
	filter  func(*HookContext) bool
}

func (h *blockingHook) BeforeExecute(ctx *HookContext) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.calls++
	if h.filter != nil && h.filter(ctx) {
		h.blocked++
		return fmt.Errorf("%w: test filter", ErrQueryBlocked)
	}
	return nil
}

func TestQueryHookObservesValidatedQueries(t *testing.T) {
	var got *HookContext
	hook := &blockingHook{}
	db := New(WithQueryHook(hook))
	mustExec(t, db, "CREATE TABLE t (id INT)")
	hook.filter = func(ctx *HookContext) bool {
		seen := *ctx // the pointer is the engine's again once the hook returns
		got = &seen
		return false
	}
	// The no-break space folds to a plain space inside the DBMS, so Raw
	// and Decoded differ while the statement stays valid. (A confusable
	// quote inside the literal would legitimately change the parse —
	// that IS the semantic mismatch, covered by the SEPTIC tests.)
	mustExec(t, db, "/* q7 */ SELECT * FROM t WHERE id = 1")
	if got == nil {
		t.Fatal("hook not called")
	}
	if got.Raw == got.Decoded {
		t.Error("decoded text should differ for confusable input")
	}
	if len(got.Comments) != 1 || got.Comments[0] != "q7" {
		t.Errorf("comments = %v", got.Comments)
	}
	if got.Stmt == nil {
		t.Error("statement missing")
	}
}

func TestQueryHookBlocks(t *testing.T) {
	hook := &blockingHook{filter: func(ctx *HookContext) bool { return true }}
	db := New(WithQueryHook(hook))
	// CREATE passes through the hook too; install filter after setup.
	hook.filter = nil
	mustExec(t, db, "CREATE TABLE t (id INT)")
	mustExec(t, db, "INSERT INTO t (id) VALUES (1)")
	hook.filter = func(ctx *HookContext) bool { return true }
	_, err := db.Exec("SELECT * FROM t")
	if !errors.Is(err, ErrQueryBlocked) {
		t.Fatalf("err = %v, want ErrQueryBlocked", err)
	}
	stats := db.Stats()
	if stats.Blocked != 1 {
		t.Errorf("stats = %+v, want Blocked=1", stats)
	}
	// The data was not touched.
	hook.filter = nil
	res := mustExec(t, db, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].I != 1 {
		t.Errorf("table corrupted: %v", res.Rows)
	}
}

func TestHookNotCalledOnParseError(t *testing.T) {
	hook := &blockingHook{}
	db := New(WithQueryHook(hook))
	_, _ = db.Exec("NOT SQL AT ALL")
	if hook.calls != 0 {
		t.Errorf("hook called %d times on parse error, want 0", hook.calls)
	}
}

func TestExecArgsBindsPlaceholders(t *testing.T) {
	db := testDB(t)
	res, err := db.ExecArgs("SELECT name FROM users WHERE city = ? AND age > ?",
		Str("lisbon"), Int(30))
	if err != nil {
		t.Fatalf("ExecArgs: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "ann" {
		t.Errorf("rows = %v", res.Rows)
	}
}

// TestExecArgsIsInjectionProof: binding a hostile value through a
// placeholder never alters the query structure.
func TestExecArgsIsInjectionProof(t *testing.T) {
	db := testDB(t)
	res, err := db.ExecArgs("SELECT name FROM users WHERE city = ?",
		Str("lisbon' OR '1'='1"))
	if err != nil {
		t.Fatalf("ExecArgs: %v", err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("injection through placeholder returned %d rows, want 0", len(res.Rows))
	}
}

// TestExecArgsArityErrors: arguments are held to the statement's
// placeholder count before validation — the hook never sees the call —
// and a '?' executed with no arguments at all fails when a row evaluates
// it, after the hook has; each is a failed query. A resident text of a
// shape runs its template on its own values, but a client's arguments are
// held to the text's placeholders — it has none — not to the template's.
func TestExecArgsArityErrors(t *testing.T) {
	var hooked int
	db := testDB(t)
	db.SetHook(hookFunc(func(*HookContext) error { hooked++; return nil }))
	const byCity = "SELECT name FROM users WHERE city = ? AND id > ?"
	for _, c := range []struct {
		args   []Value
		err    string
		hooked int
	}{
		{[]Value{Str("lisbon")}, "not enough arguments: 2 placeholders, 1 args", 0},
		{[]Value{}, "not enough arguments: 2 placeholders, 0 args", 0},
		{[]Value{Str("lisbon"), Int(0), Int(1)}, "too many arguments: 2 placeholders, 3 args", 0},
		{nil, "unbound placeholder: use ExecArgs", 1},
	} {
		hooked = 0
		failed := db.Stats().Failed
		_, err := db.ExecArgs(byCity, c.args...)
		if err == nil || err.Error() != c.err {
			t.Errorf("%d arguments: err = %v, want %q", len(c.args), err, c.err)
		}
		if hooked != c.hooked || db.Stats().Failed != failed+1 {
			t.Errorf("%d arguments: the hook ran %d times (want %d), Failed moved by %d (want 1)",
				len(c.args), hooked, c.hooked, db.Stats().Failed-failed)
		}
	}
	for _, q := range []string{"SELECT 1 FROM users", "SELECT name FROM users WHERE id = 1"} {
		mustExec(t, db, q)
		if _, err := db.ExecArgs(q, Int(1)); err == nil || err.Error() != "too many arguments: 0 placeholders, 1 args" {
			t.Errorf("an argument for resident %q: err = %v", q, err)
		}
	}
	if _, err := db.ExecArgs("SELECT ? FROM users"); err == nil {
		t.Error("missing arg must fail")
	}
}

// TestExecArgsOfAnyKind: an argument whose kind is none the engine knows
// — a zero Value, any kind number a client put on the wire — is NULL to
// the hook and to execution, and the caller's slice is left as it was.
func TestExecArgsOfAnyKind(t *testing.T) {
	var seen []Value
	db := testDB(t)
	db.SetHook(hookFunc(func(ctx *HookContext) error { seen = ctx.Args; return nil }))
	args := []Value{{}, {Kind: 99, S: "x"}, Str("porto")}
	res, err := db.ExecArgs("SELECT ? IS NULL, ? IS NULL, ? IS NULL FROM users LIMIT 1", args...)
	if err != nil || !res.Rows[0][0].B || !res.Rows[0][1].B || res.Rows[0][2].B {
		t.Fatalf("res = %v, err = %v", res, err)
	}
	if !seen[0].IsNull() || !seen[1].IsNull() || seen[2] != Str("porto") {
		t.Errorf("the hook saw %v", seen)
	}
	if args[0].Kind != KindInvalid || args[1].Kind != 99 {
		t.Errorf("the caller's arguments were written to: %v", args)
	}
}

// TestHookMemoFollowsTheParseEntry: the hook's slot is the entry of the
// Stmt — the template's for every text of a shape that has one, resident
// or not, and a resident text's own for a statement of its own or one that
// writes its values — holding what was left in it, and there is none when
// the engine will not find the statement again or the text does not fix its
// values' kinds: the cache off, a refused text whose shape has no template
// or was refused too, a refused text that writes its values, values a
// client bound.
func TestHookMemoFollowsTheParseEntry(t *testing.T) {
	var memo *Memo
	var bound bool // the last statement ran with arguments beside it
	hook := hookFunc(func(ctx *HookContext) error { memo, bound = ctx.Memo, ctx.Args != nil; return nil })
	exec := func(db *DB, q string, args ...Value) *Memo {
		t.Helper()
		memo = nil
		if _, err := db.ExecArgs(q, args...); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return memo
	}
	const byCity, byCityArg = "SELECT name FROM users WHERE city = 'porto'", "SELECT name FROM users WHERE city = ?"

	db := testDB(t)
	db.SetHook(hook)
	first := exec(db, byCity)
	if first == nil || !bound {
		t.Fatalf("a text the cache stored, of a shape with a template: slot %p, bound %t", first, bound)
	}
	left := any("left by the hook")
	first.Store(&left)
	if again := exec(db, byCity); again != first || again.Load() != &left {
		t.Errorf("second execution: slot %p holding %v, want %p holding what the first left", again, again.Load(), first)
	}
	if exec(db, byCity, []Value{}...) != first {
		t.Error("an empty argument list is no bound value: same text, same slot")
	}
	if exec(db, "SELECT name FROM users WHERE city = 'braga'") != first {
		t.Error("two resident texts of one shape: not the template's slot both times")
	}
	if exec(db, byCityArg, Str("porto")) != nil || exec(db, byCityArg, Str("porto")) != nil {
		t.Error("a slot for an execution that binds values: their kinds may change from call to call")
	}
	own := exec(db, "SELECT name FROM users WHERE city = 'c' ORDER BY 1")
	if own == nil || bound || exec(db, "SELECT name FROM users WHERE city = 'c' ORDER BY 1") != own {
		t.Error("a resident text whose shape has no template: not a slot of its own, the same one")
	}
	const insert = "INSERT INTO users (name, city) VALUES ('n%d', 'c')"
	written := exec(db, fmt.Sprintf(insert, 1))
	if written == nil || !bound || exec(db, fmt.Sprintf(insert, 1)) != written || exec(db, fmt.Sprintf(insert, 2)) == written {
		t.Error("a resident text that writes its values: not a slot of its own, the same one")
	}

	off := New(WithParseCacheCapacity(0), WithQueryHook(hook))
	mustExec(t, off, "CREATE TABLE users (name TEXT, city TEXT)")
	if exec(off, byCity) != nil || exec(off, byCity) != nil {
		t.Error("a slot with the cache off: nothing would ever find it again")
	}

	full := New(WithParseCacheCapacity(16), WithQueryHook(hook))
	mustExec(t, full, "CREATE TABLE users (name TEXT, city TEXT)")
	for i := 0; full.stmts.Len() < full.stmts.Capacity(); i++ {
		exec(full, fmt.Sprintf("SELECT name FROM users WHERE city = 'c%d'", i))
	}
	shaped := exec(full, byCity)
	if shaped == nil || !bound {
		t.Fatalf("a text the full cache refused, of a shape with a template: slot %p, bound %t", shaped, bound)
	}
	if exec(full, byCity) != shaped || exec(full, "SELECT name FROM users WHERE city = 'braga'") != shaped {
		t.Error("a read admitted at its second offer, or another refused text of its shape: not the template's slot")
	}
	for _, write := range []string{"INSERT INTO users (name, city) VALUES ('n%d', 'c')", "UPDATE users SET city = 'c%d' WHERE name = 'n'"} {
		for i := 0; i < 3; i++ { // the shape is admitted at its second sight at the latest
			if exec(full, fmt.Sprintf(write, 10+i)) != nil {
				t.Errorf("a slot for refused %q: its verdict reads the values it writes", fmt.Sprintf(write, 10+i))
			}
		}
		if !bound {
			t.Errorf("%q did not run from its template", write)
		}
	}
	alone := full.unshareable.Load()
	for i := 0; i < 3; i++ {
		if exec(full, fmt.Sprintf("SELECT name FROM users WHERE city = 'c%d' ORDER BY 1", i)) != nil {
			t.Error("a slot for a refused text whose shape has no template")
		}
	}
	if n := full.unshareable.Load() - alone; n != 3 {
		t.Errorf("%d of 3 texts ORDER BY a position were parsed alone", n)
	}
	if exec(full, "SELECT city FROM users WHERE name = 'n'") != nil || bound {
		t.Error("a slot for a text whose shape the full cache refused")
	}
}

// TestResidentTextsShareTheirShape: two resident texts of one shape hand
// the hook the same Stmt, run the same plan and are found in one parse;
// each keeps its own values, read off it once.
func TestResidentTextsShareTheirShape(t *testing.T) {
	var stmt sqlparser.Statement
	var args []Value
	db := testDB(t)
	db.SetHook(hookFunc(func(ctx *HookContext) error { stmt, args = ctx.Stmt, ctx.Args; return nil }))
	texts := []string{"SELECT name FROM users WHERE city = 'porto'", "SELECT name FROM users WHERE city = 'braga'"}
	values := []Value{Str("porto"), Str("braga")}
	var stmts [2]sqlparser.Statement
	var plans [2]*plan
	for round := 0; round < 2; round++ {
		for i, q := range texts {
			mustExec(t, db, q)
			te, hit, _ := db.stmts.Lookup(q)
			if !hit || te.shape == nil {
				t.Fatalf("%s is not resident as a text of its shape", q)
			}
			if len(args) != 1 || &args[0] != &te.args[0] || args[0] != values[i] {
				t.Errorf("%s bound %v, not its values as stored", q, args)
			}
			if round == 0 {
				stmts[i], plans[i] = stmt, te.shape.plan.Load()
			} else if stmt != stmts[i] {
				t.Errorf("%s: another Stmt at its second execution", q)
			}
		}
	}
	if stmts[0] != stmts[1] || plans[0] == nil || plans[0] != plans[1] {
		t.Errorf("two resident texts of one shape: Stmts %p and %p, plans %p and %p", stmts[0], stmts[1], plans[0], plans[1])
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := testDB(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				q := fmt.Sprintf("INSERT INTO logs (ts, msg) VALUES (%d, 'w%d')", 100+n*100+j, n)
				if _, err := db.Exec(q); err != nil {
					errs <- err
					return
				}
			}
		}(i)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := db.Exec("SELECT COUNT(*) FROM logs WHERE ts > 0"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent access error: %v", err)
	}
	res := mustExec(t, db, "SELECT COUNT(*) FROM logs")
	if res.Rows[0][0].I != 3+8*20 {
		t.Errorf("row count = %v, want %d", res.Rows[0][0], 3+8*20)
	}
}

func TestStatsCounters(t *testing.T) {
	db := testDB(t)
	before := db.Stats()
	mustExec(t, db, "SELECT 1")
	_, _ = db.Exec("BROKEN")
	after := db.Stats()
	if after.Executed != before.Executed+1 {
		t.Errorf("Executed = %d, want %d", after.Executed, before.Executed+1)
	}
	if after.Failed != before.Failed+1 {
		t.Errorf("Failed = %d, want %d", after.Failed, before.Failed+1)
	}
}
