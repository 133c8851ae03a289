package qstruct

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/septic-db/septic/internal/sqlparser"
)

// genQuery produces a random benign query from a small grammar: the
// generative counterpart of the hand-written cases, used for the
// self-match invariant below.
func genQuery(rng *rand.Rand) string {
	tables := []string{"t1", "t2", "orders"}
	cols := []string{"a", "b", "c", "total"}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	value := func() string {
		switch rng.Intn(3) {
		case 0:
			return fmt.Sprintf("%d", rng.Intn(1000))
		case 1:
			return fmt.Sprintf("%d.%02d", rng.Intn(100), rng.Intn(100))
		default:
			return "'" + pick([]string{"x", "hello", "zz9"}) + "'"
		}
	}
	condition := func() string {
		op := pick([]string{"=", "<>", "<", ">", "<=", ">=", "LIKE"})
		return pick(cols) + " " + op + " " + value()
	}

	switch rng.Intn(4) {
	case 0: // SELECT
		var b strings.Builder
		b.WriteString("SELECT ")
		if rng.Intn(4) == 0 {
			b.WriteString("*")
		} else {
			n := 1 + rng.Intn(3)
			for i := 0; i < n; i++ {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(pick(cols))
			}
		}
		b.WriteString(" FROM ")
		b.WriteString(pick(tables))
		if rng.Intn(2) == 0 {
			b.WriteString(" WHERE ")
			b.WriteString(condition())
			for rng.Intn(3) == 0 {
				b.WriteString(" " + pick([]string{"AND", "OR"}) + " " + condition())
			}
		}
		if rng.Intn(3) == 0 {
			b.WriteString(" ORDER BY " + pick(cols))
			if rng.Intn(2) == 0 {
				b.WriteString(" DESC")
			}
		}
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&b, " LIMIT %d", 1+rng.Intn(50))
		}
		return b.String()
	case 1: // INSERT
		n := 1 + rng.Intn(3)
		colList := make([]string, n)
		vals := make([]string, n)
		for i := 0; i < n; i++ {
			colList[i] = cols[i]
			vals[i] = value()
		}
		return fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)",
			pick(tables), strings.Join(colList, ", "), strings.Join(vals, ", "))
	case 2: // UPDATE
		return fmt.Sprintf("UPDATE %s SET %s = %s WHERE %s",
			pick(tables), pick(cols), value(), condition())
	default: // DELETE
		return fmt.Sprintf("DELETE FROM %s WHERE %s", pick(tables), condition())
	}
}

// TestSelfMatchInvariant: for any query, its QS must match the QM
// derived from itself — otherwise SEPTIC would flag the very queries it
// was trained on (a false positive by construction).
func TestSelfMatchInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		q := genQuery(rng)
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			t.Fatalf("generated query does not parse: %q: %v", q, err)
		}
		qs := BuildStack(stmt)
		if v := Compare(qs, ModelOf(qs)); !v.Match {
			t.Fatalf("self-match failed for %q: %+v\nQS:\n%s", q, v, qs)
		}
	}
}

// TestDataVariantInvariant: replacing every literal with a different
// literal of the same type never changes the model, so the variant
// matches the original's model.
func TestDataVariantInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		q := genQuery(rng)
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		qm := ModelOf(BuildStack(stmt))

		// Re-parse and change the literals of the test's own copy in place.
		variant, err := sqlparser.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		sqlparser.WalkExprs(variant, func(e sqlparser.Expr) {
			if lit, ok := e.(*sqlparser.Literal); ok {
				lit.Int += 7
				lit.Float += 0.5
				if lit.Kind == sqlparser.LiteralString {
					lit.Str += "!"
				}
			}
		})
		if v := Compare(BuildStack(variant), qm); !v.Match {
			t.Fatalf("data variant of %q mismatched: %+v", q, v)
		}
	}
}

// TestStructureVariantDetected: appending a tautology to any generated
// query with a WHERE clause must mismatch its own pre-attack model.
func TestStructureVariantDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	checked := 0
	for i := 0; i < 1000 && checked < 300; i++ {
		q := genQuery(rng)
		if !strings.Contains(q, "WHERE") || strings.Contains(q, "ORDER") || strings.Contains(q, "LIMIT") {
			continue
		}
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			continue
		}
		qm := ModelOf(BuildStack(stmt))
		attacked, err := sqlparser.Parse(q + " OR 1=1")
		if err != nil {
			continue
		}
		checked++
		if v := Compare(BuildStack(attacked), qm); v.Match {
			t.Fatalf("tautology appended to %q went undetected", q)
		}
	}
	if checked < 100 {
		t.Fatalf("only %d queries checked; generator drifted", checked)
	}
}
