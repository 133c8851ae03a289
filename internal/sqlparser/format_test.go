package sqlparser

import "testing"

// TestFormatKeepsDoublesDouble: a double with an integral value must not
// print as an integer, or the canonical text would parse back with
// another type and the query structure (REAL_ITEM against INT_ITEM) would
// differ across Format. Found by qstruct's FuzzBuildStack on "SELECT
// 00.000".
func TestFormatKeepsDoublesDouble(t *testing.T) {
	for q, want := range map[string]string{
		"SELECT 00.000":               "SELECT 0.0",
		"SELECT 1350.0, -2., 1.5e3":   "SELECT 1350.0, -2.0, 1500.0",
		"SELECT 1e21, 2.5e-7, .5":     "SELECT 1e+21, 2.5e-07, 0.5",
		"SELECT 18446744073709551616": "SELECT 1.8446744073709552e+19", // widened, out of int64
		"SELECT 1350, -2":             "SELECT 1350, -2",
	} {
		text := Format(mustParse(t, q))
		if text != want {
			t.Errorf("Format(Parse(%q)) = %q, want %q", q, text, want)
		}
		for i, f := range mustParse(t, text).(*SelectStmt).Fields {
			was := mustParse(t, q).(*SelectStmt).Fields[i].Expr.(*Literal)
			if now := f.Expr.(*Literal); now.Kind != was.Kind {
				t.Errorf("%q: field %d is kind %v, was %v before Format", q, i, now.Kind, was.Kind)
			}
		}
	}
}

// TestFormatQuotesIdentifiers: a name only a backticked spelling can
// produce — not a word, or a reserved one — is backticked again, so the
// canonical text parses back to the same statement (it used to come out
// bare: "SELECT `0`" as "SELECT 0", an integer; "SELECT `select`" as a
// syntax error). Found by qstruct's FuzzBuildStack.
func TestFormatQuotesIdentifiers(t *testing.T) {
	for q, want := range map[string]string{
		"SELECT `0`": "SELECT `0`",
		"SELECT `select`, `a b`.`c` x FROM `weird table` `as`":             "SELECT `select`, `a b`.c AS x FROM `weird table` AS `as`",
		"SELECT `from`.* FROM `from`":                                      "SELECT `from`.* FROM `from`",
		"INSERT INTO `t-1` (a, key, `b c`) VALUES (1, 2, 3)":               "INSERT INTO `t-1` (a, `key`, `b c`) VALUES (1, 2, 3)",
		"UPDATE t SET `x y` = 1 WHERE t.text = 2":                          "UPDATE t SET `x y` = 1 WHERE (t.`text` = 2)",
		"CREATE TABLE `order` (`group` INT, plain TEXT)":                   "CREATE TABLE `order` (`group` INT, plain TEXT)",
		"SELECT `my fn`(1), if(a, 1, 2), left(s, 1), `IF`(b, 1, 2) FROM t": "SELECT `MY FN`(1), IF(a, 1, 2), LEFT(s, 1), IF(b, 1, 2) FROM t",
		"SELECT plain, _x, $y, t.z FROM t u":                               "SELECT plain, _x, $y, t.z FROM t AS u",
	} {
		text := Format(mustParse(t, q))
		if text != want {
			t.Errorf("Format(Parse(%q))\n got: %s\nwant: %s", q, text, want)
		}
		if again := Format(mustParse(t, text)); again != text {
			t.Errorf("Format is not a fixed point on %q: %q", text, again)
		}
	}
}

// TestFormatKeepsBinaryStringsBinary: a hex literal may decode to bytes
// that are not UTF-8. Written between quotes they would be replaced by
// U+FFFD when the text is charset-decoded again, so Format spells such a
// value as the hex literal it came from. Found by FuzzParse on "SELECT
// 0X0080X00".
func TestFormatKeepsBinaryStringsBinary(t *testing.T) {
	for q, want := range map[string]string{
		"SELECT 0X0080X00":                      "SELECT 0x0080 AS X00",
		"SELECT a FROM t WHERE b = 0xfffe":      "SELECT a FROM t WHERE (b = 0xfffe)",
		"SELECT 0x6f70657261746f72, 0xc3a9, ''": "SELECT 'operator', 'é', ''",
	} {
		stmt := mustParse(t, q)
		text := Format(stmt)
		if text != want {
			t.Errorf("Format(Parse(%q)) = %q, want %q", q, text, want)
		}
		again := mustParse(t, text)
		for i, f := range again.(*SelectStmt).Fields {
			if lit, ok := f.Expr.(*Literal); ok && lit.Str != stmt.(*SelectStmt).Fields[i].Expr.(*Literal).Str {
				t.Errorf("%q: field %d came back as %q", q, i, lit.Str)
			}
		}
	}
}
