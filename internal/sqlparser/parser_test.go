package sqlparser

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, q string) Statement {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return stmt
}

func TestParseSelectBasic(t *testing.T) {
	stmt := mustParse(t, "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234")
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("got %T, want *SelectStmt", stmt)
	}
	if len(sel.Fields) != 1 || !sel.Fields[0].Star {
		t.Errorf("fields = %+v, want [*]", sel.Fields)
	}
	if len(sel.From) != 1 || sel.From[0].Name != "tickets" {
		t.Errorf("from = %+v, want tickets", sel.From)
	}
	and, ok := sel.Where.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("where = %+v, want AND", sel.Where)
	}
	left, ok := and.Left.(*BinaryExpr)
	if !ok || left.Op != "=" {
		t.Fatalf("where.left = %+v, want =", and.Left)
	}
	if col, ok := left.Left.(*ColumnRef); !ok || col.Name != "reservID" {
		t.Errorf("where.left.left = %+v, want reservID", left.Left)
	}
	if lit, ok := left.Right.(*Literal); !ok || lit.Kind != LiteralString || lit.Str != "ID34FG" {
		t.Errorf("where.left.right = %+v, want 'ID34FG'", left.Right)
	}
}

func TestParseSelectFieldList(t *testing.T) {
	stmt := mustParse(t, "SELECT id, name AS n, t.email, COUNT(*) total FROM users t")
	sel := stmt.(*SelectStmt)
	if len(sel.Fields) != 4 {
		t.Fatalf("got %d fields, want 4", len(sel.Fields))
	}
	if sel.Fields[1].Alias != "n" {
		t.Errorf("field 1 alias = %q, want n", sel.Fields[1].Alias)
	}
	if col := sel.Fields[2].Expr.(*ColumnRef); col.Table != "t" || col.Name != "email" {
		t.Errorf("field 2 = %+v, want t.email", col)
	}
	fc, ok := sel.Fields[3].Expr.(*FuncCall)
	if !ok || fc.Name != "COUNT" || !fc.Star {
		t.Errorf("field 3 = %+v, want COUNT(*)", sel.Fields[3].Expr)
	}
	if sel.Fields[3].Alias != "total" {
		t.Errorf("field 3 alias = %q, want total (implicit AS)", sel.Fields[3].Alias)
	}
}

func TestParseSelectTableStar(t *testing.T) {
	stmt := mustParse(t, "SELECT u.*, id FROM users u")
	sel := stmt.(*SelectStmt)
	if sel.Fields[0].TableStar != "u" {
		t.Errorf("field 0 = %+v, want u.*", sel.Fields[0])
	}
}

func TestParseOperatorPrecedence(t *testing.T) {
	stmt := mustParse(t, "SELECT 1 WHERE a = 1 OR b = 2 AND c = 3")
	sel := stmt.(*SelectStmt)
	or, ok := sel.Where.(*BinaryExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("top op = %+v, want OR (AND binds tighter)", sel.Where)
	}
	and, ok := or.Right.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("or.right = %+v, want AND", or.Right)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	stmt := mustParse(t, "SELECT 1 + 2 * 3")
	sel := stmt.(*SelectStmt)
	add := sel.Fields[0].Expr.(*BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("top = %q, want +", add.Op)
	}
	mul, ok := add.Right.(*BinaryExpr)
	if !ok || mul.Op != "*" {
		t.Fatalf("right = %+v, want *", add.Right)
	}
}

func TestParseParenthesesOverridePrecedence(t *testing.T) {
	stmt := mustParse(t, "SELECT (1 + 2) * 3")
	sel := stmt.(*SelectStmt)
	mul := sel.Fields[0].Expr.(*BinaryExpr)
	if mul.Op != "*" {
		t.Fatalf("top = %q, want *", mul.Op)
	}
	if add, ok := mul.Left.(*BinaryExpr); !ok || add.Op != "+" {
		t.Fatalf("left = %+v, want +", mul.Left)
	}
}

func TestParseUnaryMinusFoldsIntoLiteral(t *testing.T) {
	stmt := mustParse(t, "SELECT -5, -2.5, -x")
	sel := stmt.(*SelectStmt)
	if lit := sel.Fields[0].Expr.(*Literal); lit.Kind != LiteralInt || lit.Int != -5 {
		t.Errorf("field 0 = %+v, want -5 literal", sel.Fields[0].Expr)
	}
	if lit := sel.Fields[1].Expr.(*Literal); lit.Kind != LiteralFloat || lit.Float != -2.5 {
		t.Errorf("field 1 = %+v, want -2.5 literal", sel.Fields[1].Expr)
	}
	if _, ok := sel.Fields[2].Expr.(*UnaryExpr); !ok {
		t.Errorf("field 2 = %+v, want unary expr", sel.Fields[2].Expr)
	}
}

func TestParseInLikeBetweenIsNull(t *testing.T) {
	stmt := mustParse(t, `SELECT 1 FROM t WHERE a IN (1, 2, 3) AND b NOT IN ('x')
		AND c LIKE '%q%' AND d NOT LIKE 'z' AND e BETWEEN 1 AND 10
		AND f NOT BETWEEN 2 AND 3 AND g IS NULL AND h IS NOT NULL`)
	sel := stmt.(*SelectStmt)
	var (
		ins, likes, betweens, isnulls int
	)
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *BinaryExpr:
			if x.Op == "LIKE" {
				likes++
			}
			walk(x.Left)
			walk(x.Right)
		case *UnaryExpr:
			walk(x.Operand)
		case *InExpr:
			ins++
		case *BetweenExpr:
			betweens++
		case *IsNullExpr:
			isnulls++
		}
	}
	walk(sel.Where)
	if ins != 2 || likes != 2 || betweens != 2 || isnulls != 2 {
		t.Errorf("in=%d like=%d between=%d isnull=%d, want 2 each", ins, likes, betweens, isnulls)
	}
}

func TestParseSubqueries(t *testing.T) {
	stmt := mustParse(t, `SELECT * FROM orders WHERE uid IN (SELECT id FROM users WHERE vip = 1)
		AND total > (SELECT AVG(total) FROM orders) AND EXISTS (SELECT 1 FROM audit)`)
	sel := stmt.(*SelectStmt)
	var inSub, scalarSub, existsSub int
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *InExpr:
			if x.Subquery != nil {
				inSub++
			}
		case *SubqueryExpr:
			scalarSub++
		case *ExistsExpr:
			existsSub++
		}
	}
	walk(sel.Where)
	if inSub != 1 || scalarSub != 1 || existsSub != 1 {
		t.Errorf("inSub=%d scalarSub=%d existsSub=%d, want 1 each", inSub, scalarSub, existsSub)
	}
}

func TestParseDerivedTable(t *testing.T) {
	stmt := mustParse(t, "SELECT n FROM (SELECT name n FROM users) AS sub")
	sel := stmt.(*SelectStmt)
	if sel.From[0].Subquery == nil || sel.From[0].Alias != "sub" {
		t.Fatalf("from = %+v, want derived table aliased sub", sel.From[0])
	}
}

func TestParseJoins(t *testing.T) {
	stmt := mustParse(t, `SELECT * FROM a JOIN b ON a.id = b.aid
		LEFT JOIN c ON b.id = c.bid, d`)
	sel := stmt.(*SelectStmt)
	if len(sel.From) != 4 {
		t.Fatalf("got %d table refs, want 4", len(sel.From))
	}
	if sel.From[1].Join != "INNER" || sel.From[1].On == nil {
		t.Errorf("ref 1 = %+v, want INNER join with ON", sel.From[1])
	}
	if sel.From[2].Join != "LEFT" {
		t.Errorf("ref 2 join = %q, want LEFT", sel.From[2].Join)
	}
	if sel.From[3].Join != "CROSS" {
		t.Errorf("ref 3 join = %q, want CROSS (comma)", sel.From[3].Join)
	}
}

func TestParseGroupByHavingOrderByLimit(t *testing.T) {
	stmt := mustParse(t, `SELECT city, COUNT(*) FROM users GROUP BY city
		HAVING COUNT(*) > 2 ORDER BY city DESC, id LIMIT 10 OFFSET 5`)
	sel := stmt.(*SelectStmt)
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Errorf("group by/having missing: %+v / %+v", sel.GroupBy, sel.Having)
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("order by = %+v", sel.OrderBy)
	}
	if sel.Limit == nil || sel.Limit.Offset == nil {
		t.Fatalf("limit = %+v, want count+offset", sel.Limit)
	}
}

func TestParseLimitCommaForm(t *testing.T) {
	stmt := mustParse(t, "SELECT 1 FROM t LIMIT 5, 10")
	sel := stmt.(*SelectStmt)
	if lit := sel.Limit.Count.(*Literal); lit.Int != 10 {
		t.Errorf("count = %+v, want 10", sel.Limit.Count)
	}
	if lit := sel.Limit.Offset.(*Literal); lit.Int != 5 {
		t.Errorf("offset = %+v, want 5", sel.Limit.Offset)
	}
}

func TestParseUnion(t *testing.T) {
	stmt := mustParse(t, "SELECT id FROM a UNION ALL SELECT id FROM b UNION SELECT id FROM c")
	sel := stmt.(*SelectStmt)
	if sel.Union == nil || !sel.Union.All {
		t.Fatalf("first union = %+v, want ALL", sel.Union)
	}
	second := sel.Union.Next
	if second.Union == nil || second.Union.All {
		t.Fatalf("second union = %+v, want DISTINCT", second.Union)
	}
}

func TestParseInsert(t *testing.T) {
	stmt := mustParse(t, "INSERT INTO users (name, age) VALUES ('ann', 31), ('bob', 42)")
	ins := stmt.(*InsertStmt)
	if ins.Table != "users" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("insert = %+v", ins)
	}
	if lit := ins.Rows[1][0].(*Literal); lit.Str != "bob" {
		t.Errorf("rows[1][0] = %+v, want bob", ins.Rows[1][0])
	}
}

func TestParseInsertSelect(t *testing.T) {
	stmt := mustParse(t, "INSERT INTO archive (id) SELECT id FROM users WHERE old = 1")
	ins := stmt.(*InsertStmt)
	if ins.Select == nil {
		t.Fatal("want INSERT ... SELECT")
	}
}

func TestParseUpdate(t *testing.T) {
	stmt := mustParse(t, "UPDATE users SET name = 'x', age = age + 1 WHERE id = 7 LIMIT 1")
	up := stmt.(*UpdateStmt)
	if up.Table != "users" || len(up.Sets) != 2 || up.Where == nil || up.Limit == nil {
		t.Fatalf("update = %+v", up)
	}
	if up.Sets[0].Column != "name" {
		t.Errorf("set 0 = %+v", up.Sets[0])
	}
}

func TestParseDelete(t *testing.T) {
	stmt := mustParse(t, "DELETE FROM logs WHERE ts < 100 ORDER BY ts LIMIT 50")
	del := stmt.(*DeleteStmt)
	if del.Table != "logs" || del.Where == nil || len(del.OrderBy) != 1 || del.Limit == nil {
		t.Fatalf("delete = %+v", del)
	}
}

func TestParseCreateTable(t *testing.T) {
	stmt := mustParse(t, `CREATE TABLE IF NOT EXISTS users (
		id INT PRIMARY KEY AUTO_INCREMENT,
		name VARCHAR(255) NOT NULL,
		email TEXT UNIQUE,
		age INT DEFAULT 0,
		score DOUBLE,
		active BOOL,
		created DATETIME)`)
	ct := stmt.(*CreateTableStmt)
	if !ct.IfNotExists || ct.Table != "users" || len(ct.Columns) != 7 {
		t.Fatalf("create = %+v", ct)
	}
	id := ct.Columns[0]
	if !id.PrimaryKey || !id.AutoIncrement || id.Type != "INT" {
		t.Errorf("id column = %+v", id)
	}
	if ct.Columns[1].Type != "TEXT" || !ct.Columns[1].NotNull {
		t.Errorf("name column = %+v", ct.Columns[1])
	}
	if ct.Columns[3].Default == nil {
		t.Errorf("age column default missing: %+v", ct.Columns[3])
	}
}

func TestParseDropShowDescribe(t *testing.T) {
	if s := mustParse(t, "DROP TABLE IF EXISTS users").(*DropTableStmt); !s.IfExists || s.Table != "users" {
		t.Errorf("drop = %+v", s)
	}
	if _, ok := mustParse(t, "SHOW TABLES").(*ShowTablesStmt); !ok {
		t.Error("SHOW TABLES failed")
	}
	if s := mustParse(t, "DESCRIBE users").(*DescribeStmt); s.Table != "users" {
		t.Errorf("describe = %+v", s)
	}
}

func TestParseAttachesComments(t *testing.T) {
	stmt := mustParse(t, "/* app:login:42 */ SELECT 1")
	got := stmt.StatementComments()
	if len(got) != 1 || got[0] != "app:login:42" {
		t.Errorf("comments = %v, want [app:login:42]", got)
	}
}

func TestParseAllMultipleStatements(t *testing.T) {
	stmts, err := ParseAll("SELECT 1; SELECT 2; DELETE FROM t")
	if err != nil {
		t.Fatalf("ParseAll: %v", err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements, want 3", len(stmts))
	}
}

func TestParseRejectsMultipleStatements(t *testing.T) {
	// mysql_query semantics: piggy-backed statements are a parse error
	// for the single-statement API.
	_, err := Parse("SELECT 1; DROP TABLE users")
	if err == nil {
		t.Fatal("Parse must reject piggy-backed statements")
	}
}

func TestParseDecodesCharsetBeforeLexing(t *testing.T) {
	// The U+02BC quote becomes a live quote at parse time: the string
	// literal ends early and "-- " comments out the remainder, exactly
	// as in the paper's second-order example.
	stmt := mustParse(t, "SELECT * FROM tickets WHERE reservID = 'ID34FGʼ-- ' AND creditCard = 0")
	sel := stmt.(*SelectStmt)
	eq, ok := sel.Where.(*BinaryExpr)
	if !ok || eq.Op != "=" {
		t.Fatalf("where = %+v, want plain equality (rest commented out)", sel.Where)
	}
	lit, ok := eq.Right.(*Literal)
	if !ok || lit.Str != "ID34FG" {
		t.Fatalf("right = %+v, want truncated string ID34FG", eq.Right)
	}
}

// TestParseCommentBeforeDotAttachedOnce: looking ahead for "ident.*" in a
// select list and rewinding must not count the comments it passed twice.
// (When the look-ahead re-ran the lexer it did: the statement after "t /* c
// */ . a" got the comment two times. It is the one output of the token-slice
// parser that differs from its predecessor's.)
func TestParseCommentBeforeDotAttachedOnce(t *testing.T) {
	stmts, err := ParseAll("SELECT t /* c */ . a, t /* d */ . * FROM t; SELECT 2")
	if err != nil {
		t.Fatal(err)
	}
	if got := stmts[1].StatementComments(); len(got) != 2 || got[0] != "c" || got[1] != "d" {
		t.Errorf("second statement's comments = %q, want [c d]", got)
	}
	if got, want := Format(stmts[0]), "SELECT t.a, t.* FROM t"; got != want {
		t.Errorf("first statement = %q, want %q", got, want)
	}
}

// TestParseDecodedIsParseAfterDecode: the two entries differ only in who
// applies DecodeCharset.
func TestParseDecodedIsParseAfterDecode(t *testing.T) {
	for _, q := range fuzzSeeds {
		a, aerr := Parse(q)
		b, berr := ParseDecoded(DecodeCharset(q))
		if (aerr == nil) != (berr == nil) || (aerr != nil && aerr.Error() != berr.Error()) {
			t.Errorf("%q: Parse error %v, ParseDecoded error %v", q, aerr, berr)
		}
		if aerr == nil && Format(a) != Format(b) {
			t.Errorf("%q: Parse gives %s, ParseDecoded %s", q, Format(a), Format(b))
		}
	}
	// Undecoded, the confusable is just a byte the scanner does not know.
	if _, err := ParseDecoded("SELECT * FROM t WHERE a = \u02bcx\u02bc"); err == nil {
		t.Error("ParseDecoded folded U+02BC itself")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"SELEC 1",
		"SELECT FROM",
		"SELECT * FROM",
		"INSERT users VALUES (1)",
		"UPDATE SET a = 1",
		"DELETE users",
		"CREATE TABLE t",
		"CREATE TABLE t (a BLOB)",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE a = ",
		"SELECT (1",
		"SELECT 'unterminated",
		"SELECT * FROM t WHERE a NOT 5",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", q)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234",
		"SELECT DISTINCT id, name AS n FROM users WHERE age > 18 ORDER BY name DESC LIMIT 10",
		"INSERT INTO users (name, age) VALUES ('ann', 31)",
		"UPDATE users SET age = 32 WHERE name = 'ann'",
		"DELETE FROM logs WHERE ts < 100",
		"SELECT a FROM t WHERE b IN (1, 2) AND c LIKE '%x%'",
		"SELECT id FROM a UNION ALL SELECT id FROM b",
		"SELECT x FROM t WHERE y BETWEEN 1 AND 2 OR z IS NOT NULL",
		"SELECT COUNT(*) FROM t GROUP BY city HAVING COUNT(*) > 1",
		"CREATE TABLE t (id INT PRIMARY KEY, s TEXT)",
		"SELECT * FROM a JOIN b ON a.id = b.aid",
		"SELECT u.*, id FROM users AS u",
		"SELECT COUNT(DISTINCT x) FROM t",
		"SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u)",
		"SELECT a FROM t WHERE x IN (SELECT y FROM u)",
		"SELECT a FROM t WHERE x NOT IN (1, 2)",
		"SELECT n FROM (SELECT a AS n FROM t) AS d",
		"SELECT * FROM a LEFT JOIN b ON a.id = b.aid",
		"INSERT INTO t VALUES (1, 'x'), (2, 'y')",
		"INSERT INTO archive (id) SELECT id FROM t WHERE old = 1",
		"UPDATE t SET a = a + 1 WHERE b = 2 ORDER BY c LIMIT 3",
		"DELETE FROM t WHERE a = 1 ORDER BY b DESC LIMIT 2",
		"DROP TABLE IF EXISTS t",
		"SHOW TABLES",
		"DESCRIBE t",
		"CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, n TEXT UNIQUE NOT NULL, v INT DEFAULT 0)",
		"SELECT - x FROM t",
		"SELECT NOT a FROM t",
		"SELECT NULL, TRUE, FALSE",
		"SELECT a FROM t LIMIT 5 OFFSET 2",
		"SELECT 1 XOR 0",
		"SELECT a FROM t WHERE s LIKE '%it''s%'",
		"EXPLAIN SELECT a FROM t WHERE b = 1",
		"SELECT CASE WHEN a > 1 THEN 'hi' ELSE 'lo' END FROM t",
		"SELECT CASE a WHEN 1 THEN 'one' WHEN 2 THEN 'two' END FROM t",
		"SELECT x FROM t ORDER BY CASE WHEN y = 1 THEN a ELSE b END",
	}
	for _, q := range queries {
		stmt1, err := Parse(q)
		if err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		text := Format(stmt1)
		stmt2, err := Parse(text)
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", text, q, err)
		}
		if Format(stmt2) != text {
			t.Errorf("format not stable: %q -> %q", text, Format(stmt2))
		}
	}
}

func TestFormatEscapesStrings(t *testing.T) {
	stmt := mustParse(t, `SELECT 'a\'b'`)
	text := Format(stmt)
	if !strings.Contains(text, `\'`) {
		t.Errorf("Format should re-escape quote: %q", text)
	}
}

// TestParseErrorPaths drives every production into its error returns and
// pins the message: a rule that fails must say what it wanted and where.
func TestParseErrorPaths(t *testing.T) {
	for q, want := range map[string]string{
		"SELECT a FROM":                  `syntax error at byte 13: expected identifier, found end of input ""`,
		"SELECT a FROM t WHERE":          `syntax error at byte 21: unexpected end of input "" in expression`,
		"SELECT a FROM t GROUP a":        `syntax error at byte 22: expected BY, found identifier "a"`,
		"SELECT a FROM t GROUP BY":       `syntax error at byte 24: unexpected end of input "" in expression`,
		"SELECT a FROM t HAVING":         `syntax error at byte 22: unexpected end of input "" in expression`,
		"SELECT a FROM t ORDER a":        `syntax error at byte 22: expected BY, found identifier "a"`,
		"SELECT a FROM t ORDER BY":       `syntax error at byte 24: unexpected end of input "" in expression`,
		"SELECT a FROM t LIMIT":          `syntax error at byte 21: unexpected end of input "" in expression`,
		"SELECT a FROM t LIMIT 1,":       `syntax error at byte 24: unexpected end of input "" in expression`,
		"SELECT a FROM t LIMIT 1 OFFSET": `syntax error at byte 30: unexpected end of input "" in expression`,
		"SELECT a FROM t UNION DELETE":   `syntax error at byte 22: expected SELECT, found keyword "DELETE"`,
		"SELECT a AS FROM t":             `syntax error at byte 12: expected identifier, found keyword "FROM"`,
		"SELECT a FROM t AS":             `syntax error at byte 18: expected identifier, found end of input ""`,
		"SELECT a FROM (DELETE)":         `syntax error at byte 15: expected SELECT, found keyword "DELETE"`,
		"SELECT a FROM (SELECT 1":        `syntax error at byte 23: expected right parenthesis, found end of input ""`,
		"SELECT a FROM t LEFT u":         `syntax error at byte 21: expected JOIN, found identifier "u"`,
		"SELECT a FROM t JOIN":           `syntax error at byte 20: expected identifier, found end of input ""`,
		"SELECT a FROM t JOIN u":         `syntax error at byte 22: expected ON, found end of input ""`,
		"SELECT a FROM t JOIN u ON":      `syntax error at byte 25: unexpected end of input "" in expression`,
		"SELECT a FROM t,":               `syntax error at byte 16: expected identifier, found end of input ""`,
		"INSERT t":                       `syntax error at byte 7: expected INTO, found identifier "t"`,
		"INSERT INTO":                    `syntax error at byte 11: expected identifier, found end of input ""`,
		"INSERT INTO t (":                `syntax error at byte 15: expected identifier, found end of input ""`,
		"INSERT INTO t (a":               `syntax error at byte 16: expected right parenthesis, found end of input ""`,
		"INSERT INTO t (a) SELECT":       `syntax error at byte 24: unexpected end of input "" in expression`,
		"INSERT INTO t (a) 1":            `syntax error at byte 18: expected VALUES, found integer "1"`,
		"INSERT INTO t VALUES 1":         `syntax error at byte 21: expected left parenthesis, found integer "1"`,
		"INSERT INTO t VALUES (":         `syntax error at byte 22: unexpected end of input "" in expression`,
		"INSERT INTO t VALUES (1":        `syntax error at byte 23: expected right parenthesis, found end of input ""`,
		"UPDATE":                         `syntax error at byte 6: expected identifier, found end of input ""`,
		"UPDATE t a":                     `syntax error at byte 9: expected SET, found identifier "a"`,
		"UPDATE t SET":                   `syntax error at byte 12: expected identifier, found end of input ""`,
		"UPDATE t SET a":                 `syntax error at byte 14: expected '=' in SET clause, found ""`,
		"UPDATE t SET a =":               `syntax error at byte 16: unexpected end of input "" in expression`,
		"UPDATE t SET a = 1 WHERE":       `syntax error at byte 24: unexpected end of input "" in expression`,
		"UPDATE t SET a = 1 ORDER BY":    `syntax error at byte 27: unexpected end of input "" in expression`,
		"UPDATE t SET a = 1 LIMIT":       `syntax error at byte 24: unexpected end of input "" in expression`,
		"DELETE t":                       `syntax error at byte 7: expected FROM, found identifier "t"`,
		"DELETE FROM":                    `syntax error at byte 11: expected identifier, found end of input ""`,
		"DELETE FROM t WHERE":            `syntax error at byte 19: unexpected end of input "" in expression`,
		"CREATE t":                       `syntax error at byte 7: expected TABLE, found identifier "t"`,
		"CREATE TABLE IF t":              `syntax error at byte 16: expected NOT, found identifier "t"`,
		"CREATE TABLE IF NOT t":          `syntax error at byte 20: expected EXISTS, found identifier "t"`,
		"CREATE TABLE":                   `syntax error at byte 12: expected identifier, found end of input ""`,
		"CREATE TABLE t a":               `syntax error at byte 15: expected left parenthesis, found identifier "a"`,
		"CREATE TABLE t (":               `syntax error at byte 16: expected identifier, found end of input ""`,
		"CREATE TABLE t (a":              `syntax error at byte 17: expected column type, found end of input ""`,
		"CREATE TABLE t (a SELECT)":      `syntax error at byte 18: unsupported column type "SELECT"`,
		"CREATE TABLE t (a INT(":         `syntax error at byte 22: expected integer, found end of input ""`,
		"CREATE TABLE t (a INT(1":        `syntax error at byte 23: expected right parenthesis, found end of input ""`,
		"CREATE TABLE t (a INT PRIMARY)": `syntax error at byte 29: expected KEY, found right parenthesis ")"`,
		"CREATE TABLE t (a INT NOT)":     `syntax error at byte 25: expected NULL, found right parenthesis ")"`,
		"CREATE TABLE t (a INT DEFAULT)": `syntax error at byte 29: unexpected right parenthesis ")" in expression`,
		"CREATE TABLE t (a INT":          `syntax error at byte 21: expected right parenthesis, found end of input ""`,
		"DROP t":                         `syntax error at byte 5: expected TABLE, found identifier "t"`,
		"DROP TABLE IF t":                `syntax error at byte 14: expected EXISTS, found identifier "t"`,
		"DROP TABLE":                     `syntax error at byte 10: expected identifier, found end of input ""`,
		"SHOW t":                         `syntax error at byte 5: expected TABLES, found identifier "t"`,
		"DESCRIBE":                       `syntax error at byte 8: expected identifier, found end of input ""`,
		"EXPLAIN DELETE":                 `syntax error at byte 8: expected SELECT, found keyword "DELETE"`,
		"BEGIN":                          `syntax error at byte 0: unsupported statement "BEGIN"`,
		"SELECT a OR":                    `syntax error at byte 11: unexpected end of input "" in expression`,
		"SELECT a AND":                   `syntax error at byte 12: unexpected end of input "" in expression`,
		"SELECT NOT":                     `syntax error at byte 10: unexpected end of input "" in expression`,
		"SELECT a =":                     `syntax error at byte 10: unexpected end of input "" in expression`,
		"SELECT a LIKE":                  `syntax error at byte 13: unexpected end of input "" in expression`,
		"SELECT a IS 1":                  `syntax error at byte 12: expected NULL, found integer "1"`,
		"SELECT a IN 1":                  `syntax error at byte 12: expected left parenthesis, found integer "1"`,
		"SELECT a IN (":                  `syntax error at byte 13: unexpected end of input "" in expression`,
		"SELECT a IN (1":                 `syntax error at byte 14: expected right parenthesis, found end of input ""`,
		"SELECT a IN (SELECT":            `syntax error at byte 19: unexpected end of input "" in expression`,
		"SELECT a NOT LIKE":              `syntax error at byte 17: unexpected end of input "" in expression`,
		"SELECT a BETWEEN":               `syntax error at byte 16: unexpected end of input "" in expression`,
		"SELECT a BETWEEN 1":             `syntax error at byte 18: expected AND, found end of input ""`,
		"SELECT a BETWEEN 1 AND":         `syntax error at byte 22: unexpected end of input "" in expression`,
		"SELECT a +":                     `syntax error at byte 10: unexpected end of input "" in expression`,
		"SELECT a *":                     `syntax error at byte 10: unexpected end of input "" in expression`,
		"SELECT -":                       `syntax error at byte 8: unexpected end of input "" in expression`,
		"SELECT (SELECT":                 `syntax error at byte 14: unexpected end of input "" in expression`,
		"SELECT (1":                      `syntax error at byte 9: expected right parenthesis, found end of input ""`,
		"SELECT EXISTS 1":                `syntax error at byte 14: expected left parenthesis, found integer "1"`,
		"SELECT EXISTS (1":               `syntax error at byte 15: expected SELECT, found integer "1"`,
		"SELECT EXISTS (SELECT 1":        `syntax error at byte 23: expected right parenthesis, found end of input ""`,
		"SELECT a FROM t WHERE NOT NOT":  `syntax error at byte 29: unexpected end of input "" in expression`,
		"SELECT 1 + NOT":                 `syntax error at byte 14: unexpected end of input "" in expression`,
		"SELECT IF":                      `syntax error at byte 9: expected '(' after IF`,
		"SELECT t.":                      `syntax error at byte 9: expected identifier, found end of input ""`,
		"SELECT f(":                      `syntax error at byte 9: unexpected end of input "" in expression`,
		"SELECT f(*":                     `syntax error at byte 10: expected right parenthesis, found end of input ""`,
		"SELECT f(1":                     `syntax error at byte 10: expected right parenthesis, found end of input ""`,
		"SELECT CASE a":                  `syntax error at byte 13: CASE needs at least one WHEN arm`,
		"SELECT CASE":                    `syntax error at byte 11: unexpected end of input "" in expression`,
		"SELECT CASE WHEN":               `syntax error at byte 16: unexpected end of input "" in expression`,
		"SELECT CASE WHEN a":             `syntax error at byte 18: expected THEN, found end of input ""`,
		"SELECT CASE WHEN a THEN":        `syntax error at byte 23: unexpected end of input "" in expression`,
		"SELECT CASE WHEN a THEN 1 ELSE": `syntax error at byte 30: unexpected end of input "" in expression`,
		"SELECT CASE WHEN a THEN 1":      `syntax error at byte 25: expected END, found end of input ""`,
		"SELECT 1e999":                   `syntax error at byte 7: invalid float literal "1e999"`,
		"SELECT 1; SELECT":               `syntax error at byte 16: unexpected end of input "" in expression`,
		"SELECT 1; SELECT 2":             `expected a single statement, got 2`,
	} {
		_, err := Parse(q)
		if err == nil || err.Error() != want {
			t.Errorf("Parse(%q)\n got: %v\nwant: %s", q, err, want)
		}
	}
	if _, err := ParseAll("SELECT 1; SELEC 2"); err == nil || !strings.Contains(err.Error(), "expected statement keyword") {
		t.Errorf("ParseAll must report a later statement's error, got %v", err)
	}
	if _, err := ParseAll(" -- nothing\n"); err == nil || !strings.Contains(err.Error(), "empty statement") {
		t.Errorf("ParseAll of a comment alone: got %v, want empty statement", err)
	}
}
