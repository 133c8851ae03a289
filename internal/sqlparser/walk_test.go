package sqlparser

import (
	"fmt"
	"testing"
)

func TestWalkExprsVisitsEverything(t *testing.T) {
	stmt := mustParse(t, `SELECT a + 1, COUNT(*) FROM t
		WHERE b IN (1, 2) AND c BETWEEN 3 AND 4 AND d IS NULL
		AND EXISTS (SELECT 1 FROM u WHERE u.x = t.y)
		GROUP BY e HAVING COUNT(*) > 5 ORDER BY f DESC LIMIT 7 OFFSET 8`)
	var kinds = map[string]int{}
	WalkExprs(stmt, func(e Expr) {
		switch e.(type) {
		case *Literal:
			kinds["literal"]++
		case *ColumnRef:
			kinds["column"]++
		case *BinaryExpr:
			kinds["binary"]++
		case *FuncCall:
			kinds["func"]++
		case *InExpr:
			kinds["in"]++
		case *BetweenExpr:
			kinds["between"]++
		case *IsNullExpr:
			kinds["isnull"]++
		case *ExistsExpr:
			kinds["exists"]++
		}
	})
	for _, want := range []string{"literal", "column", "binary", "func", "in", "between", "isnull", "exists"} {
		if kinds[want] == 0 {
			t.Errorf("WalkExprs missed %s nodes (%v)", want, kinds)
		}
	}
	// The LIMIT/OFFSET literals must be visited (7 and 8).
	if kinds["literal"] < 8 {
		t.Errorf("literal count = %d, want >= 8", kinds["literal"])
	}
}

// TestPlaceholdersNumberedInSourceOrder: the parser gives each '?' its
// place among the statement's placeholders as it consumes it, in every
// clause, VALUES row and nested select, and records the count on the
// statement; an execution binds argument i to the placeholder numbered i.
// walk is the order WalkExprs meets them in, which is the source's except
// where the AST lists a clause out of it: "LIMIT offset, count".
func TestPlaceholdersNumberedInSourceOrder(t *testing.T) {
	for _, c := range []struct {
		text string
		n    int
		walk []int
	}{
		{"UPDATE t SET a = ?, b = ? WHERE c = ? ORDER BY d LIMIT ?", 4, []int{0, 1, 2, 3}},
		{"INSERT INTO t (a, b) VALUES (?, ?), (?, 4)", 3, []int{0, 1, 2}},
		{"INSERT INTO t (a) SELECT a + ? FROM u WHERE b = ?", 2, []int{0, 1}},
		{"DELETE FROM t WHERE a BETWEEN ? AND ? AND b IN (?, 2, ?) ORDER BY ? LIMIT ?", 6, []int{0, 1, 2, 3, 4, 5}},
		{"SELECT (SELECT ? FROM u) FROM t WHERE id IN (SELECT v FROM w WHERE k = ?)", 2, []int{0, 1}},
		{"SELECT ?, CASE ? WHEN ? THEN ? ELSE ? END FROM t a JOIN (SELECT ? FROM v) d ON a.x = ? WHERE -? < a.y " +
			"GROUP BY ? HAVING COUNT(*) > ? ORDER BY ? LIMIT ? OFFSET ? UNION SELECT ? FROM v WHERE EXISTS (SELECT ?)",
			15, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}},
		{"SELECT a FROM t WHERE b = ? LIMIT ?, ?", 3, []int{0, 2, 1}},
		{"EXPLAIN SELECT a FROM t WHERE id = ?", 1, nil}, // the walker has no EXPLAIN case
		{"SELECT a FROM t WHERE b = '?' /* ? */", 0, nil},
	} {
		stmt := mustParse(t, c.text)
		if stmt.NumParams() != c.n {
			t.Errorf("%s: NumParams = %d, want %d", c.text, stmt.NumParams(), c.n)
		}
		var walk []int
		WalkExprs(stmt, func(e Expr) {
			if p, ok := e.(*Placeholder); ok {
				walk = append(walk, p.Index)
			}
		})
		if fmt.Sprint(walk) != fmt.Sprint(c.walk) {
			t.Errorf("%s: placeholders walked as %v, want %v", c.text, walk, c.walk)
		}
	}
	limit := mustParse(t, "SELECT a FROM t LIMIT ?, ?").(*SelectStmt).Limit
	if off, cnt := limit.Offset.(*Placeholder).Index, limit.Count.(*Placeholder).Index; off != 0 || cnt != 1 {
		t.Errorf("LIMIT ?, ?: offset is argument %d and count argument %d, want 0 and 1", off, cnt)
	}
	// Each statement of a script counts its own.
	stmts, err := ParseAll("SELECT ?; SELECT ?, ? ; SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{1, 2, 0} {
		if stmts[i].NumParams() != want {
			t.Errorf("statement %d of the script: NumParams = %d, want %d", i, stmts[i].NumParams(), want)
		}
	}
	if second := stmts[1].(*SelectStmt).Fields[0].Expr.(*Placeholder).Index; second != 0 {
		t.Errorf("the second statement's first placeholder is numbered %d, want 0", second)
	}
}
