package engine

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestGroupByMultipleColumns(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "INSERT INTO users (name, age, city, vip) VALUES ('eli', 31, 'lisbon', TRUE)")
	res := mustExec(t, db, `SELECT city, vip, COUNT(*) FROM users
		WHERE age IS NOT NULL GROUP BY city, vip ORDER BY city, vip`)
	// lisbon/false(cal), lisbon/true(ann,eli), porto/false(bob)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	var lisbonVIP int64
	for _, row := range res.Rows {
		if row[0].S == "lisbon" && row[1].AsBool() {
			lisbonVIP = row[2].I
		}
	}
	if lisbonVIP != 2 {
		t.Errorf("lisbon vip count = %d, want 2", lisbonVIP)
	}
}

func TestOrderByMultipleKeysMixedDirections(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT city, name FROM users ORDER BY city ASC, name DESC`)
	// faro:dee, lisbon:cal, lisbon:ann, porto:bob
	want := [][2]string{{"faro", "dee"}, {"lisbon", "cal"}, {"lisbon", "ann"}, {"porto", "bob"}}
	for i, w := range want {
		if res.Rows[i][0].S != w[0] || res.Rows[i][1].S != w[1] {
			t.Fatalf("row %d = %v, want %v", i, res.Rows[i], w)
		}
	}
}

func TestInsertSelect(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "CREATE TABLE vips (name TEXT, age INT)")
	res := mustExec(t, db, "INSERT INTO vips (name, age) SELECT name, age FROM users WHERE vip = TRUE")
	if res.Affected != 2 {
		t.Fatalf("affected = %d, want 2", res.Affected)
	}
	check := mustExec(t, db, "SELECT COUNT(*) FROM vips")
	if check.Rows[0][0].I != 2 {
		t.Errorf("count = %v", check.Rows[0][0])
	}
}

func TestUpdateWithScalarSubquery(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, "UPDATE users SET age = (SELECT MAX(ts) FROM logs) WHERE name = 'ann'")
	res := mustExec(t, db, "SELECT age FROM users WHERE name = 'ann'")
	if res.Rows[0][0].I != 30 {
		t.Errorf("age = %v, want 30 (max log ts)", res.Rows[0][0])
	}
}

func TestDeleteWithInSubquery(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `DELETE FROM tickets WHERE uid IN
		(SELECT id FROM users WHERE vip = TRUE)`)
	if res.Affected != 2 {
		t.Errorf("affected = %d, want 2", res.Affected)
	}
}

func TestLikeEscapedWildcards(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `INSERT INTO logs (ts, msg) VALUES (99, '100%')`)
	res := mustExec(t, db, `SELECT msg FROM logs WHERE msg LIKE '100\%'`)
	if len(res.Rows) != 1 {
		t.Fatalf("escaped %% did not match literally: %v", res.Rows)
	}
	// Unescaped % would also match "100x".
	mustExec(t, db, `INSERT INTO logs (ts, msg) VALUES (98, '100x')`)
	res = mustExec(t, db, `SELECT COUNT(*) FROM logs WHERE msg LIKE '100%'`)
	if res.Rows[0][0].I != 2 {
		t.Errorf("unescaped match count = %v, want 2", res.Rows[0][0])
	}
	res = mustExec(t, db, `SELECT COUNT(*) FROM logs WHERE msg LIKE '100\%'`)
	if res.Rows[0][0].I != 1 {
		t.Errorf("escaped match count = %v, want 1", res.Rows[0][0])
	}
}

func TestStringFunctionsPropagateNull(t *testing.T) {
	db := testDB(t)
	for _, q := range []string{
		"SELECT CONCAT('a', NULL)",
		"SELECT UPPER(NULL)",
		"SELECT LENGTH(NULL)",
	} {
		res := mustExec(t, db, q)
		if !res.Rows[0][0].IsNull() {
			t.Errorf("%s = %v, want NULL", q, res.Rows[0][0])
		}
	}
}

func TestScalarSubqueryMultiRowFails(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("SELECT (SELECT id FROM users) FROM logs"); err == nil {
		t.Error("multi-row scalar subquery must fail")
	}
}

func TestOrderByOrdinalOutOfRange(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("SELECT name FROM users ORDER BY 5"); err == nil {
		t.Error("out-of-range ordinal must fail")
	}
}

// TestOrderByPlaceholderIsAValue: a '?' is a value wherever it stands, as
// in MySQL's prepared statements — in ORDER BY a constant sort key, never
// the ordinal its value would be as a literal — and a result column that
// is one is named "?".
func TestOrderByPlaceholderIsAValue(t *testing.T) {
	db := testDB(t)
	res, err := db.ExecArgs("SELECT name, ? FROM users ORDER BY ?, id", Str("x"), Int(5))
	if err != nil {
		t.Fatalf("ORDER BY ? bound to 5 on a two-column list: %v", err)
	}
	if len(res.Rows) != 4 || res.Rows[0][0].S != "ann" || res.Rows[3][0].S != "dee" || res.Columns[1] != "?" {
		t.Errorf("columns %v, rows %v: want the four users by id", res.Columns, res.Rows)
	}
}

func TestExecArgsInLimit(t *testing.T) {
	db := testDB(t)
	res, err := db.ExecArgs("SELECT id FROM logs ORDER BY ts LIMIT ?", Int(2))
	if err != nil {
		t.Fatalf("ExecArgs: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestUpdateToNullNotCountedWhenAlreadyNull(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "UPDATE users SET age = NULL WHERE name = 'dee'")
	if res.Affected != 0 {
		t.Errorf("affected = %d, want 0 (NULL -> NULL)", res.Affected)
	}
}

func TestKeywordishColumnNames(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE kv (`key` TEXT, `datetime` TEXT)")
	mustExec(t, db, "INSERT INTO kv (`key`, `datetime`) VALUES ('k1', 'now')")
	res := mustExec(t, db, "SELECT `key` FROM kv WHERE `datetime` = 'now'")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "k1" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT a.name, b.name FROM users a
		JOIN users b ON a.city = b.city AND a.id < b.id ORDER BY a.name`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "ann" || res.Rows[0][1].S != "cal" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestUnknownFunctionFails(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("SELECT FROBNICATE(1)"); err == nil {
		t.Error("unknown function must fail")
	}
}

func TestFunctionArityErrors(t *testing.T) {
	db := testDB(t)
	bad := []string{
		"SELECT LOWER()",
		"SELECT LOWER('a', 'b')",
		"SELECT REPLACE('a', 'b')",
		"SELECT SUBSTRING('a')",
		"SELECT IF(1, 2)",
		"SELECT MOD(1)",
	}
	for _, q := range bad {
		if _, err := db.Exec(q); err == nil {
			t.Errorf("%s must fail", q)
		}
	}
}

func TestAggregateMixedWithStarFails(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("SELECT *, COUNT(*) FROM users"); err == nil {
		t.Error("* mixed with aggregates must fail")
	}
}

func TestDerivedTableColumnScoping(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `SELECT sub.n FROM
		(SELECT city, COUNT(*) AS n FROM users GROUP BY city) AS sub
		WHERE sub.city = 'lisbon'`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestBetweenStringRange(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, "SELECT name FROM users WHERE name BETWEEN 'a' AND 'c' ORDER BY name")
	if len(res.Rows) != 2 { // ann, bob ("cal" > "c")
		t.Errorf("rows = %v", res.Rows)
	}
}

// TestInsertSelectRoundTripProperty: any ASCII value written through
// ExecArgs must come back byte-identical through a SELECT — the engine
// must not re-interpret stored data.
func TestStoreRoundTripProperty(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE rt (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)")
	id := int64(0)
	f := func(s string) bool {
		ascii := make([]byte, 0, len(s))
		for _, r := range s {
			if r >= 0x20 && r < 0x7f {
				ascii = append(ascii, byte(r))
			}
		}
		v := string(ascii)
		res, err := db.ExecArgs("INSERT INTO rt (v) VALUES (?)", Str(v))
		if err != nil {
			return false
		}
		id = res.LastInsertID
		got, err := db.ExecArgs("SELECT v FROM rt WHERE id = ?", Int(id))
		if err != nil || len(got.Rows) != 1 {
			return false
		}
		return got.Rows[0][0].S == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEscapedLiteralRoundTripProperty: the same property through the
// text path — escape, embed, parse, store, read.
func TestEscapedLiteralRoundTripProperty(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE rt (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)")
	f := func(s string) bool {
		ascii := make([]byte, 0, len(s))
		for _, r := range s {
			if r >= 0x20 && r < 0x7f {
				ascii = append(ascii, byte(r))
			}
		}
		v := string(ascii)
		escaped := escapeForTest(v)
		res, err := db.Exec("INSERT INTO rt (v) VALUES ('" + escaped + "')")
		if err != nil {
			return false
		}
		got, err := db.ExecArgs("SELECT v FROM rt WHERE id = ?", Int(res.LastInsertID))
		if err != nil || len(got.Rows) != 1 {
			return false
		}
		return got.Rows[0][0].S == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// escapeForTest mirrors mysql_real_escape_string for the property test.
func escapeForTest(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `'`, `\'`, `"`, `\"`)
	return r.Replace(s)
}

func TestCreateTableDuplicateColumn(t *testing.T) {
	db := New()
	if _, err := db.Exec("CREATE TABLE t (a INT, a TEXT)"); err == nil {
		t.Error("duplicate column must fail")
	}
}

func TestCreateTableIfNotExistsIdempotent(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "CREATE TABLE IF NOT EXISTS t (a INT)")
	if _, err := db.Exec("CREATE TABLE t (a INT)"); !errors.Is(err, ErrTableExists) {
		t.Errorf("err = %v", err)
	}
}

func TestHookErrorNotWrappedAsBlocked(t *testing.T) {
	hook := &blockingHook{filter: nil}
	db := New(WithQueryHook(hook))
	mustExec(t, db, "CREATE TABLE t (a INT)")
	hook.filter = func(*HookContext) bool { return false }
	// A hook returning a non-blocked error aborts without counting as a
	// security block.
	failing := &failingHook{}
	db.SetHook(failing)
	_, err := db.Exec("SELECT * FROM t")
	if err == nil || errors.Is(err, ErrQueryBlocked) {
		t.Errorf("err = %v, want plain failure", err)
	}
	stats := db.Stats()
	if stats.Blocked != 0 {
		t.Errorf("blocked = %d, want 0", stats.Blocked)
	}
}

type failingHook struct{}

func (failingHook) BeforeExecute(*HookContext) error {
	return errors.New("hook infrastructure failure")
}
