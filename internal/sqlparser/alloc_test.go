package sqlparser

import (
	"fmt"
	"strings"
	"testing"

	"github.com/septic-db/septic/internal/raceflag"
)

func parseAllocs(t *testing.T, q string) float64 {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("race instrumentation adds allocations")
	}
	return testing.AllocsPerRun(200, func() {
		if _, err := Parse(q); err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
	})
}

// TestParseAllocs is the allocation budget of a cold text (the name
// carries "Alloc" so CI's uninstrumented `go test -run Alloc ./...` step
// runs it). The scanner allocates nothing — tokens are offsets in a pooled
// slice — and a statement pays one allocation per node *type* it uses, not
// one per node. The benchmark's two point statements come to 7: the
// SelectStmt, its comments, Fields, From, and one slab each of ColumnRefs,
// Literals and BinaryExprs (23 and 18 with a string per token and a node
// at a time).
func TestParseAllocs(t *testing.T) {
	for _, q := range []string{
		"/* ab:view */ SELECT name, phone, email, address FROM contacts WHERE id = 12345",
		"/* waspmon:profile */ SELECT username, email FROM wm_users WHERE id = 12345",
	} {
		if got := parseAllocs(t, q); got > 8 {
			t.Errorf("%.1f allocations, want <= 8: %s", got, q)
		}
	}

	// A string literal is a substring of the text unless it has to be
	// decoded, and then it is decoded into one buffer of the exact size.
	literal := func(body string) float64 {
		return parseAllocs(t, "SELECT name FROM devices WHERE location = '"+body+"'")
	}
	base := literal("x")
	if got := literal(strings.Repeat("x", 42)); got != base {
		t.Errorf("a 42-byte escape-free literal costs %.1f allocations, a 1-byte one %.1f: want the same", got, base)
	}
	if got := literal(strings.Repeat("x", 40) + `\'`); got != base+1 {
		t.Errorf("a 42-byte literal with an escape costs %.1f allocations against %.1f without: want exactly 1 more", got, base)
	}
	if got := literal(strings.Repeat("x", 40) + `''`); got != base+1 {
		t.Errorf("a 42-byte literal with a doubled quote costs %.1f allocations against %.1f without: want exactly 1 more", got, base)
	}

	// The slabs and the field list are sized from the tokens, so a wide
	// statement costs what a narrow one does: SelectStmt, Fields, From and
	// three slabs, nothing per column.
	cols := make([]string, 64)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	wide := "SELECT " + strings.Join(cols, ", ") + " FROM t WHERE " + strings.Join(cols, " = 1 AND ") + " = 1"
	if got := parseAllocs(t, wide); got > 8 {
		t.Errorf("a 64-column select costs %.1f allocations, want <= 8: the slabs fell back to per-node allocation", got)
	}
}

// TestSlabNodesOutliveTheParse: the nodes of a statement come out of
// per-statement arrays and its text fields are substrings of the decoded
// text, while the token slice it was parsed from goes back to a pool and is
// overwritten by the next text. Nothing in the tree may depend on that
// slice, and every node must be its own.
func TestSlabNodesOutliveTheParse(t *testing.T) {
	const q = "/* id */ SELECT a, t.b, -3, 'lit', 'it''s' FROM t WHERE a = 1 AND t.b < 2.5 OR c LIKE 'x%' ORDER BY a"
	stmt := mustParse(t, q)
	want := Format(stmt)

	// Reuse the pooled scratch for longer and shorter texts of other shapes.
	for i := 0; i < 8; i++ {
		mustParse(t, "INSERT INTO other (x, y, z) VALUES (9, 'nine', 9.5), (10, 'ten', 10.5)")
		mustParse(t, "DELETE FROM u")
		if _, err := Tokenize("`unterminated"); err == nil {
			t.Fatal("want a lexical error")
		}
	}
	if got := Format(stmt); got != want {
		t.Fatalf("statement changed after the scratch was reused\n got: %s\nwant: %s", got, want)
	}
	if c := stmt.StatementComments(); len(c) != 1 || c[0] != "id" {
		t.Errorf("comments = %q, want [id]", c)
	}

	seen := map[Expr]bool{}
	WalkExprs(stmt, func(e Expr) {
		if seen[e] {
			t.Errorf("node %T %+v is reachable twice", e, e)
		}
		seen[e] = true
	})
	if len(seen) != 17 {
		t.Errorf("walked %d nodes, want 17", len(seen))
	}
}

// TestSlabFallsBackPastItsBound: the sizing pass makes the slab
// capacities upper bounds, so the fallback is a safety net — a node asked
// for past the bound (or with no bound at all) gets an allocation of its
// own and never a slot that is already in use.
func TestSlabFallsBackPastItsBound(t *testing.T) {
	var lits []Literal
	a, b, c := take(&lits, 2), take(&lits, 2), take(&lits, 2)
	if a != &lits[0] || b != &lits[1] {
		t.Error("the first two nodes must come from the slab")
	}
	if c == a || c == b || len(lits) != 2 {
		t.Errorf("the third node must be its own allocation: len %d", len(lits))
	}
	var cols []ColumnRef
	if x, y := take(&cols, 0), take(&cols, 0); x == y || cols != nil {
		t.Error("a zero bound must allocate per node and leave the slab unallocated")
	}
}

// TestLongTexts: lists longer than the look-ahead that sizes them, and a
// script with more tokens than a pooled parser keeps scratch for, parse
// like any other text.
func TestLongTexts(t *testing.T) {
	vals := strings.TrimSuffix(strings.Repeat("1, ", 700), ", ")
	stmt := mustParse(t, "SELECT a FROM t WHERE a IN ("+vals+")")
	if in := stmt.(*SelectStmt).Where.(*InExpr); len(in.List) != 700 {
		t.Errorf("IN list has %d entries, want 700", len(in.List))
	}
	stmts, err := ParseAll(strings.Repeat("SELECT a, b FROM t WHERE c = 1; ", 500))
	if err != nil || len(stmts) != 500 {
		t.Fatalf("ParseAll of a 500-statement script: %d statements, %v", len(stmts), err)
	}
	for _, s := range stmts {
		if got := Format(s); got != "SELECT a, b FROM t WHERE (c = 1)" {
			t.Fatalf("statement = %q", got)
		}
	}
	mustParse(t, "SELECT 1") // the next text starts from fresh scratch
}
