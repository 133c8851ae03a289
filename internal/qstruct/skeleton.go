package qstruct

import (
	"strings"

	"github.com/septic-db/septic/internal/sqlparser"
)

// Skeleton derives the coarse, injection-stable identity of a statement:
// the statement kind plus the names that an attacker cannot alter by
// injecting into a data value — target tables, INSERT/UPDATE column
// lists, and the SELECT projection list.
//
// SEPTIC's internal query identifier is a hash of this skeleton
// (paper §II-C2: "the second identifier is produced by SEPTIC based on
// the QM in order to ensure uniqueness"). It must be computed from parts
// of the query an injection leaves intact: if the identifier covered the
// full structure, an attacked query would hash to an unknown ID and be
// treated as a *new* query instead of a mismatch against the learned
// model. Hashing only the skeleton guarantees the attacked query finds
// the victim query's model and fails the comparison instead.
func Skeleton(stmt sqlparser.Statement) string {
	w := skeletonWriter{text: new(strings.Builder)}
	w.statement(stmt)
	return w.text.String()
}

// SkeletonHash returns the FNV-1a hash of the statement's skeleton,
// streamed directly into the hash state instead of materializing the
// skeleton string first. It is byte-for-byte equivalent to hashing
// Skeleton(stmt) with hash/fnv's New64a — identifiers (and therefore
// persisted model stores) are stable across the two paths — but the hot
// path allocates nothing.
func SkeletonHash(stmt sqlparser.Statement) uint64 {
	w := skeletonWriter{hash: fnv64Offset}
	w.statement(stmt)
	return w.hash
}

// FNV-1a 64-bit parameters, matching hash/fnv.
const (
	fnv64Offset = 14695981039346656037
	fnv64Prime  = 1099511628211
)

// skeletonWriter receives the skeleton's fragments: it folds them into
// the FNV-1a state and, when there is a text, appends them to it. One
// concrete type, so the hashing caller's writer stays on its stack.
type skeletonWriter struct {
	text *strings.Builder
	hash uint64
}

func (b *skeletonWriter) WriteString(s string) {
	if b.text != nil {
		b.text.WriteString(s)
	}
	for i := 0; i < len(s); i++ {
		b.hash = (b.hash ^ uint64(s[i])) * fnv64Prime
	}
}

// statement streams stmt's skeleton into the writer.
func (b *skeletonWriter) statement(stmt sqlparser.Statement) {
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		b.WriteString("SELECT|")
		for _, f := range s.Fields {
			switch {
			case f.Star:
				b.WriteString("*")
			case f.TableStar != "":
				b.WriteString(f.TableStar)
				b.WriteString(".*")
			case f.Alias != "":
				b.WriteString(f.Alias)
			default:
				if col, ok := f.Expr.(*sqlparser.ColumnRef); ok {
					b.WriteString(col.Name)
				} else {
					b.WriteString("expr")
				}
			}
			b.WriteString(",")
		}
		b.WriteString("|")
		for _, t := range s.From {
			if t.Subquery != nil {
				b.WriteString("(derived)")
			} else {
				b.WriteString(t.Name)
			}
			b.WriteString(",")
		}
	case *sqlparser.InsertStmt:
		b.WriteString("INSERT|")
		b.WriteString(s.Table)
		b.WriteString("|")
		for i, c := range s.Columns {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(c)
		}
	case *sqlparser.UpdateStmt:
		b.WriteString("UPDATE|")
		b.WriteString(s.Table)
		b.WriteString("|")
		for _, a := range s.Sets {
			b.WriteString(a.Column)
			b.WriteString(",")
		}
	case *sqlparser.DeleteStmt:
		b.WriteString("DELETE|")
		b.WriteString(s.Table)
	case *sqlparser.CreateTableStmt:
		b.WriteString("CREATE|")
		b.WriteString(s.Table)
	case *sqlparser.DropTableStmt:
		b.WriteString("DROP|")
		b.WriteString(s.Table)
	case *sqlparser.ShowTablesStmt:
		b.WriteString("SHOW TABLES")
	case *sqlparser.DescribeStmt:
		b.WriteString("DESCRIBE|")
		b.WriteString(s.Table)
	case *sqlparser.ExplainStmt:
		b.WriteString("EXPLAIN|")
		b.statement(s.Select)
	}
}
