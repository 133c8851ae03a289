package sqlparser_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/qstruct"
	"github.com/septic-db/septic/internal/sqlparser"
)

// "template ≡ cold", at the parser: whatever text a template serves, the
// template read with that text's values is the statement a parse of the
// text alone gives — node for node in the query structure, character for
// character once formatted — and where the text alone does not parse, the
// template path reports the same error. The engine's half of the guarantee
// (what the statement then does) is core.TestCacheOnEqualsCacheOff.

// goldenTexts reads the statement texts recorded in parse_golden.txt.
func goldenTexts(tb testing.TB) []string {
	tb.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, `"`) {
			q, err := strconv.Unquote(line)
			if err != nil {
				tb.Fatalf("%s: %q: %v", goldenPath, line, err)
			}
			out = append(out, q)
		}
	}
	return out
}

// inline replaces every Placeholder under v by the literal it stands for.
func inline(v reflect.Value, lits []sqlparser.Literal) {
	switch v.Kind() {
	case reflect.Interface:
		if v.IsNil() {
			return
		}
		if ph, ok := v.Interface().(*sqlparser.Placeholder); ok {
			lit := lits[ph.Index]
			v.Set(reflect.ValueOf(&lit))
			return
		}
		inline(v.Elem(), lits)
	case reflect.Pointer:
		if !v.IsNil() {
			inline(v.Elem(), lits)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				inline(v.Field(i), lits)
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			inline(v.Index(i), lits)
		}
	}
}

// errText renders an error for comparison; nil is "".
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// template parses text as the template of its shape. The key is nil for a
// text that has none; the error is what ParseTemplate said.
func template(text string) (key []byte, tmpl *sqlparser.Template, err error) {
	p := sqlparser.Scan(text)
	defer p.Release()
	if key = bytes.Clone(p.ShapeKey()); key == nil {
		return nil, nil, nil
	}
	tmpl, err = p.ParseTemplate()
	return key, tmpl, err
}

// servedBy holds text, whose shape key is from's, to the guarantee: from's
// template with text's values is text's own parse.
func servedBy(t *testing.T, from, text string) {
	t.Helper()
	_, tmpl, err := template(from)
	if err != nil {
		t.Fatalf("template of %q: %v", from, err)
	}
	p := sqlparser.Scan(text)
	defer p.Release()
	var lits []sqlparser.Literal
	var args []engine.Value
	var valueErr error
	for i := 0; i < tmpl.Stmt.NumParams() && valueErr == nil; i++ {
		var lit sqlparser.Literal
		lit, valueErr = p.Value(tmpl, i)
		lits = append(lits, lit)
		args = append(args, engine.LiteralValue(&lit))
	}
	cold, coldErr := sqlparser.ParseDecoded(text)
	if errText(valueErr) != errText(coldErr) {
		t.Fatalf("%q through the template of %q: values fail with %v, its own parse with %v", text, from, valueErr, coldErr)
	}
	if coldErr != nil {
		return
	}
	if got, want := qstruct.BuildStack(tmpl.Stmt, args...), qstruct.BuildStack(cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("%q through the template of %q: query structure\n%v\nits own parse gives\n%v", text, from, got, want)
	}
	if !reflect.DeepEqual(tmpl.Stmt.StatementComments(), cold.StatementComments()) {
		t.Fatalf("%q through the template of %q: comments %q, its own %q", text, from,
			tmpl.Stmt.StatementComments(), cold.StatementComments())
	}
	inline(reflect.ValueOf(tmpl.Stmt), lits)
	if got, want := sqlparser.Format(tmpl.Stmt), sqlparser.Format(cold); got != want {
		t.Fatalf("%q through the template of %q formats as\n%s\nits own parse as\n%s", text, from, got, want)
	}
}

// checkShape holds one text, and a second one if it has the same shape
// key, to every property of a shape. It reports what the first text is.
func checkShape(t *testing.T, text, other string) (keyed, shareable bool) {
	t.Helper()
	key, tmpl, err := template(text)
	if key == nil {
		return false, false
	}
	_, coldErr := sqlparser.ParseDecoded(text)
	unshareable := errors.Is(err, sqlparser.ErrUnshareable)
	if !unshareable && errText(err) != errText(coldErr) {
		t.Fatalf("%q as a template: %v; on its own: %v", text, err, coldErr)
	}
	if err == nil {
		servedBy(t, text, text)
	}
	otherKey, otherTmpl, otherErr := template(other)
	if !bytes.Equal(key, otherKey) {
		return true, err == nil
	}
	// Equal keys: equal token streams but for what the literals spell.
	toks, _ := sqlparser.Tokenize(text)
	otherToks, _ := sqlparser.Tokenize(other)
	if len(toks) == 0 || len(toks) != len(otherToks) {
		t.Fatalf("%q and %q share a key and scan to %d and %d tokens", text, other, len(toks), len(otherToks))
	}
	for i := range toks {
		if toks[i].Kind != otherToks[i].Kind {
			t.Fatalf("%q and %q share a key; token %d is a %s in one and a %s in the other", text, other, i, toks[i].Kind, otherToks[i].Kind)
		}
	}
	switch {
	case unshareable != errors.Is(otherErr, sqlparser.ErrUnshareable):
		t.Fatalf("%q and %q share a key; as templates: %v and %v", text, other, err, otherErr)
	case err == nil && otherErr == nil:
		if a, b := sqlparser.Format(tmpl.Stmt), sqlparser.Format(otherTmpl.Stmt); a != b {
			t.Fatalf("%q and %q share a key; their templates are\n%s\n%s", text, other, a, b)
		}
	}
	if err == nil {
		servedBy(t, text, other)
	}
	return true, err == nil
}

// spellings are what a literal is respelled as, per token kind first (the
// key stays) and then across kinds (it must not).
var spellings = []string{
	"7", "0", "9223372036854775807", "9223372036854775808", "18446744073709551616", "007",
	"1.5", ".5", "1e3", "2.5e-7", "1e999", "0.0",
	"'x'", "''", "'it''s'", `'a\'b\\'`, `'100\%_'`, `"d'q"`, "0x41", "0x4", "'<script>alert(1)</script>'",
}

// sameKind is the spelling that keeps a literal's kind, and so the key.
var sameKind = map[sqlparser.TokenKind]string{sqlparser.TokenInt: "42", sqlparser.TokenFloat: "4.25", sqlparser.TokenString: "'other'"}

// respell returns text with literal i spelled as spellings[pick[i]], for
// as long as pick lasts; a text with no pick is returned with every
// literal respelled in its own kind.
func respell(text string, pick []byte) string {
	spans, kinds := sqlparser.LiteralSpans(text)
	var b strings.Builder
	from := 0
	for i, span := range spans {
		choice := sameKind[kinds[i]]
		if i < len(pick) {
			choice = spellings[int(pick[i])%len(spellings)]
		}
		b.WriteString(text[from:span[0]])
		b.WriteString(choice)
		from = span[1]
	}
	b.WriteString(text[from:])
	return b.String()
}

// FuzzShape: for any text and any respelling of its literals, the
// properties of checkShape.
func FuzzShape(f *testing.F) {
	for _, q := range goldenTexts(f) {
		f.Add(q, []byte(nil))
	}
	f.Add("SELECT a FROM t WHERE b = -1 AND c = - 2 AND d = -(3) AND e = - -4", []byte{3, 3, 3, 3})
	f.Add("SELECT a FROM t WHERE b = -1 AND c LIKE 'x'", []byte{12, 0})
	f.Add("UPDATE t SET a = 1.5 WHERE b IN (1, 2) LIMIT 3, 4", []byte{10, 4, 6, 14, 18})
	f.Fuzz(func(t *testing.T, query string, pick []byte) {
		text := sqlparser.DecodeCharset(query)
		checkShape(t, text, respell(text, pick))
	})
}

// TestShapeOfEveryGoldenText runs the fuzz property over the recorded
// corpus with every literal respelled in and out of its kind, and holds
// the corpus to having all three kinds of text.
func TestShapeOfEveryGoldenText(t *testing.T) {
	var keyed, shareable, total int
	for _, q := range goldenTexts(t) {
		text := sqlparser.DecodeCharset(q)
		spans, _ := sqlparser.LiteralSpans(text)
		for round := 0; round < len(spellings); round++ {
			pick := make([]byte, len(spans))
			for i := range pick {
				pick[i] = byte(round + 5*i)
			}
			if round == 0 {
				pick = nil
			}
			k, s := checkShape(t, text, respell(text, pick))
			if round == 0 {
				total++
				if k {
					keyed++
				}
				if s {
					shareable++
				}
			}
		}
	}
	t.Logf("%d texts: %d have a shape key, %d of them a template", total, keyed, shareable)
	if shareable == 0 || shareable == keyed || keyed == total {
		t.Errorf("the corpus lacks a kind of text: %d texts, %d keyed, %d shareable", total, keyed, shareable)
	}
}

// TestEveryLiteralPositionIsSlotOrStructural walks the grammar at the top
// of parser.go: every place a rule lets an int, float or string stand is
// here once, either as a value — then the template has a slot for it and
// is held to "template ≡ cold" under every respelling — or as structure,
// and then the statement has no template.
func TestEveryLiteralPositionIsSlotOrStructural(t *testing.T) {
	for _, c := range []struct {
		text       string
		slots      int
		structural bool
	}{
		// select: field, tableref subquery, join ON, WHERE, GROUP BY,
		// HAVING, ORDER BY, LIMIT in its three forms, UNION branch.
		{text: "SELECT 1 FROM t", structural: true},
		{text: "SELECT a, UPPER('x') AS u FROM t", structural: true},
		{text: "SELECT (SELECT b FROM u WHERE c = 1) FROM t", structural: true},
		{text: "SELECT a FROM (SELECT b FROM u WHERE c = 1) d", slots: 1},
		{text: "SELECT a FROM t JOIN u ON t.a = u.a + 1 LEFT JOIN v ON v.a = 'x'", slots: 2},
		{text: "SELECT a FROM t WHERE b = 1", slots: 1},
		{text: "SELECT a FROM t GROUP BY 1", structural: true},
		{text: "SELECT a FROM t GROUP BY a + 1", structural: true},
		{text: "SELECT a FROM t GROUP BY a HAVING COUNT(*) > 1", slots: 1},
		{text: "SELECT a FROM t ORDER BY 1", structural: true},
		{text: "SELECT a FROM t ORDER BY a, -1 DESC", structural: true},
		{text: "SELECT a FROM t WHERE b IN (SELECT c FROM u ORDER BY 2)", structural: true},
		{text: "SELECT a FROM t LIMIT 5", slots: 1},
		{text: "SELECT a FROM t LIMIT 5, 10", slots: 2},
		{text: "SELECT a FROM t LIMIT 5 OFFSET 10", slots: 2},
		{text: "SELECT a FROM t WHERE b = 1 UNION ALL SELECT a FROM u WHERE b = 'x'", slots: 2},
		// insert, update, delete.
		{text: "INSERT INTO t (a, b) VALUES (1, 'x'), (2.5, 0x41)", slots: 4},
		{text: "INSERT INTO t (a) SELECT b FROM u WHERE c = 1", slots: 1},
		{text: "INSERT INTO t (a) SELECT 1", structural: true},
		{text: "UPDATE t SET a = 1, b = b + 'x' WHERE c = 2 LIMIT 3", slots: 4},
		{text: "UPDATE t SET a = 1 ORDER BY 2", structural: true},
		{text: "DELETE FROM t WHERE a = 1 LIMIT 2", slots: 2},
		{text: "DELETE FROM t ORDER BY 'x'", structural: true},
		// cmp: every operator, IN, BETWEEN, LIKE and their negations.
		{text: "SELECT a FROM t WHERE b <> 1 AND c < 2 OR d >= 3 XOR e != 4 AND f <= 5 && g > 6 || h = 7", slots: 7},
		{text: "SELECT a FROM t WHERE b IN (1, 'x', 2.5) AND c NOT IN (4)", slots: 4},
		{text: "SELECT a FROM t WHERE b BETWEEN 1 AND 2 AND c NOT BETWEEN 'a' AND 'b'", slots: 4},
		{text: "SELECT a FROM t WHERE b LIKE '%x%' AND c NOT LIKE 'y_' AND 'z' LIKE d", slots: 3},
		{text: "SELECT a FROM t WHERE 1 IS NULL OR NOT 2 IS NOT NULL", slots: 2},
		// add, mul, unary: the sign folds into a number, never a string.
		{text: "SELECT a FROM t WHERE b = 1 + 2 - 3 * 4 / 5 % 6", slots: 6},
		{text: "SELECT a FROM t WHERE b = -1 AND c = - 2 AND d = -(3) AND e = - -4 AND f = +5 AND g = -(-(6.5))", slots: 6},
		{text: "SELECT a FROM t WHERE b = -'1' AND c = -(0x31) AND d = -(1 + 2)", slots: 4},
		{text: "SELECT a FROM t WHERE b = -9223372036854775808 AND c = - -9223372036854775808", slots: 2},
		// primary: parentheses, subqueries, EXISTS, NOT, CASE, calls.
		{text: "SELECT a FROM t WHERE (b = (1)) AND NOT 2 AND c = (SELECT d FROM u WHERE e = 3)", slots: 3},
		{text: "SELECT a FROM t WHERE EXISTS (SELECT b FROM u WHERE c = 1)", slots: 1},
		{text: "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u)", structural: true},
		{text: "SELECT a FROM t WHERE CASE b WHEN 1 THEN 'x' WHEN 2 THEN 'y' ELSE 'z' END = 'x'", slots: 6},
		{text: "SELECT a FROM t WHERE CASE WHEN b > 1 THEN 2 END = 3", slots: 3},
		{text: "SELECT a FROM t WHERE CONCAT(b, 'x', 1) = IF(c, 2, 3) AND LEFT(d, 4) = RIGHT('e', 5)", slots: 7},
		{text: "SELECT a FROM t WHERE COUNT(DISTINCT 1) > 0", slots: 2},
		// NULL, TRUE and FALSE are keywords, not literals of a shape.
		{text: "SELECT a FROM t WHERE b = NULL OR c = TRUE OR d = FALSE", slots: 0},
		// create: the column length and DEFAULT; with SHOW, DESCRIBE,
		// EXPLAIN and DROP the statements that have no key at all.
		{text: "CREATE TABLE t (a VARCHAR(10) DEFAULT 'x', b INT DEFAULT 1)", structural: true},
		{text: "EXPLAIN SELECT a FROM t WHERE b = 1", structural: true},
		{text: "DESCRIBE t", structural: true},
		{text: "SHOW TABLES", structural: true},
		{text: "DROP TABLE t", structural: true},
		// a client's own placeholder.
		{text: "SELECT a FROM t WHERE b = ? AND c = 1", structural: true},
	} {
		key, tmpl, err := template(c.text)
		if c.structural {
			if key != nil && !errors.Is(err, sqlparser.ErrUnshareable) {
				t.Errorf("%q: has a template (err %v); its literal is structure", c.text, err)
			}
			continue
		}
		if key == nil || err != nil {
			t.Errorf("%q: key %q, template: %v; want a template", c.text, key, err)
			continue
		}
		if spans, _ := sqlparser.LiteralSpans(c.text); tmpl.Stmt.NumParams() != c.slots || len(spans) != c.slots {
			t.Errorf("%q: %d slots for %d literals, want %d", c.text, tmpl.Stmt.NumParams(), len(spans), c.slots)
		}
		for round := 0; round < len(spellings); round++ {
			pick := make([]byte, c.slots)
			for i := range pick {
				pick[i] = byte(round + 7*i)
			}
			checkShape(t, c.text, respell(c.text, pick))
		}
		checkShape(t, c.text, respell(c.text, nil))
	}
}

// TestShapeKey pins the key's form and the texts that have none.
func TestShapeKey(t *testing.T) {
	key := func(text string) string {
		p := sqlparser.Scan(text)
		defer p.Release()
		return string(p.ShapeKey())
	}
	const mark = "\x01"
	i, f, s := mark+string(rune(sqlparser.TokenInt)), mark+string(rune(sqlparser.TokenFloat)), mark+string(rune(sqlparser.TokenString))
	for text, want := range map[string]string{
		"/* id */ SELECT a FROM t WHERE b = 12 AND c = 'x''y' -- 5": "/* id */ SELECT a FROM t WHERE b = " + i + " AND c = " + s + " -- 5",
		"select  a from t where b=-1.5e3 or c=0x4a or d = \"q\" ;":  "select  a from t where b=-" + f + " or c=" + s + " or d = " + s + " ;",
		"SELECT a FROM t WHERE b = `1` AND c = 1abc":                "SELECT a FROM t WHERE b = `1` AND c = " + i + "abc",
		"SELECT a FROM t WHERE b = ?":                               "",
		"SELECT a FROM t WHERE b = 'open":                           "",
		"SELECT a FROM t WHERE b = 1 \x01":                          "",
		"SHOW TABLES":                                               "",
		"":                                                          "",
	} {
		if got := key(text); got != want {
			t.Errorf("ShapeKey(%q) = %q, want %q", text, got, want)
		}
	}
	// A line comment opens on "--" and a blank; the mark is none, so a
	// literal's place is never read as the start of a comment.
	if a, b := key("SELECT a FROM t WHERE b = 1 --2\n"), key("SELECT a FROM t WHERE b = 1 -- \n"); a == b {
		t.Errorf("%q keys a subtraction and a comment alike", a)
	}
}

// TestMinInt64Literal: -9223372036854775808 is an integer, the sign
// folding into a literal that alone would be a double, and the same value
// read through a template's slot.
func TestMinInt64Literal(t *testing.T) {
	for text, want := range map[string]string{
		"SELECT a FROM t WHERE b = -9223372036854775808":      "INT_ITEM -9223372036854775808\n",
		"SELECT a FROM t WHERE b = -(9223372036854775808)":    "INT_ITEM -9223372036854775808\n",
		"SELECT a FROM t WHERE b = - -9223372036854775808":    "REAL_ITEM 9.223372036854776e+18\n",
		"SELECT a FROM t WHERE b = 9223372036854775808":       "REAL_ITEM 9.223372036854776e+18\n",
		"SELECT a FROM t WHERE b = -9223372036854775809":      "REAL_ITEM -9.223372036854776e+18\n",
		"SELECT a FROM t WHERE b = -9223372036854775808.0":    "REAL_ITEM -9.223372036854776e+18\n",
		"SELECT a FROM t WHERE b = -9223372036854775807":      "INT_ITEM -9223372036854775807\n",
		"SELECT a FROM t WHERE b = - - -9223372036854775808":  "INT_ITEM -9223372036854775808\n",
		"SELECT a FROM t WHERE b = -(-(9223372036854775807))": "INT_ITEM 9223372036854775807\n",
	} {
		stmt, err := sqlparser.ParseDecoded(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		if got := fmt.Sprint(qstruct.BuildStack(stmt)); !strings.Contains(got, want) {
			t.Errorf("%q: query structure %s, want a node %q", text, got, want)
		}
		servedBy(t, text, text)
	}
}
