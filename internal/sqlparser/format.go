package sqlparser

import (
	"encoding/hex"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Format renders a statement back to SQL text. The output is canonical
// (upper-case keywords, single spaces, quoted strings re-escaped) and is
// used by the logger, the shell and the examples; it is not used for
// detection, which operates on the query structure.
func Format(stmt Statement) string {
	var b strings.Builder
	formatStatement(&b, stmt)
	return b.String()
}

func formatStatement(b *strings.Builder, stmt Statement) {
	switch s := stmt.(type) {
	case *SelectStmt:
		formatSelect(b, s)
	case *InsertStmt:
		formatInsert(b, s)
	case *UpdateStmt:
		formatUpdate(b, s)
	case *DeleteStmt:
		formatDelete(b, s)
	case *CreateTableStmt:
		formatCreateTable(b, s)
	case *DropTableStmt:
		b.WriteString("DROP TABLE ")
		if s.IfExists {
			b.WriteString("IF EXISTS ")
		}
		writeIdent(b, s.Table)
	case *ShowTablesStmt:
		b.WriteString("SHOW TABLES")
	case *DescribeStmt:
		b.WriteString("DESCRIBE ")
		writeIdent(b, s.Table)
	case *ExplainStmt:
		b.WriteString("EXPLAIN ")
		formatSelect(b, s.Select)
	}
}

// writeIdent writes a name so that it scans back as the same identifier:
// bare when it is a word the scanner reads as an identifier, backticked
// when it is not one (`weird table`, `0`) or is a reserved word (`select`).
func writeIdent(b *strings.Builder, name string) {
	bare := name != "" && isIdentStart(name[0])
	for i := 1; bare && i < len(name); i++ {
		bare = isIdentPart(name[i])
	}
	if _, reserved := lookupKeyword(name); bare && !reserved {
		b.WriteString(name)
		return
	}
	b.WriteByte('`')
	b.WriteString(name)
	b.WriteByte('`')
}

func formatSelect(b *strings.Builder, s *SelectStmt) {
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, f := range s.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case f.Star:
			b.WriteString("*")
		case f.TableStar != "":
			writeIdent(b, f.TableStar)
			b.WriteString(".*")
		default:
			formatExpr(b, f.Expr)
			if f.Alias != "" {
				b.WriteString(" AS ")
				writeIdent(b, f.Alias)
			}
		}
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, t := range s.From {
			if i > 0 {
				if t.Join == "" || t.Join == "CROSS" {
					b.WriteString(", ")
				} else {
					b.WriteString(" ")
					b.WriteString(t.Join)
					b.WriteString(" JOIN ")
				}
			}
			if t.Subquery != nil {
				b.WriteString("(")
				formatSelect(b, t.Subquery)
				b.WriteString(")")
			} else {
				writeIdent(b, t.Name)
			}
			if t.Alias != "" {
				b.WriteString(" AS ")
				writeIdent(b, t.Alias)
			}
			if t.On != nil {
				b.WriteString(" ON ")
				formatExpr(b, t.On)
			}
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		formatExpr(b, s.Where)
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, e := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			formatExpr(b, e)
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		formatExpr(b, s.Having)
	}
	formatOrderLimit(b, s.OrderBy, s.Limit)
	if s.Union != nil {
		b.WriteString(" UNION ")
		if s.Union.All {
			b.WriteString("ALL ")
		}
		formatSelect(b, s.Union.Next)
	}
}

func formatOrderLimit(b *strings.Builder, orderBy []OrderItem, limit *Limit) {
	if len(orderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range orderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			formatExpr(b, o.Expr)
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if limit != nil {
		b.WriteString(" LIMIT ")
		formatExpr(b, limit.Count)
		if limit.Offset != nil {
			b.WriteString(" OFFSET ")
			formatExpr(b, limit.Offset)
		}
	}
}

func formatInsert(b *strings.Builder, s *InsertStmt) {
	b.WriteString("INSERT INTO ")
	writeIdent(b, s.Table)
	if len(s.Columns) > 0 {
		b.WriteString(" (")
		for i, col := range s.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			writeIdent(b, col)
		}
		b.WriteString(")")
	}
	if s.Select != nil {
		b.WriteString(" ")
		formatSelect(b, s.Select)
		return
	}
	b.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, e := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			formatExpr(b, e)
		}
		b.WriteString(")")
	}
}

func formatUpdate(b *strings.Builder, s *UpdateStmt) {
	b.WriteString("UPDATE ")
	writeIdent(b, s.Table)
	b.WriteString(" SET ")
	for i, a := range s.Sets {
		if i > 0 {
			b.WriteString(", ")
		}
		writeIdent(b, a.Column)
		b.WriteString(" = ")
		formatExpr(b, a.Value)
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		formatExpr(b, s.Where)
	}
	formatOrderLimit(b, s.OrderBy, s.Limit)
}

func formatDelete(b *strings.Builder, s *DeleteStmt) {
	b.WriteString("DELETE FROM ")
	writeIdent(b, s.Table)
	if s.Where != nil {
		b.WriteString(" WHERE ")
		formatExpr(b, s.Where)
	}
	formatOrderLimit(b, s.OrderBy, s.Limit)
}

func formatCreateTable(b *strings.Builder, s *CreateTableStmt) {
	b.WriteString("CREATE TABLE ")
	if s.IfNotExists {
		b.WriteString("IF NOT EXISTS ")
	}
	writeIdent(b, s.Table)
	b.WriteString(" (")
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		writeIdent(b, c.Name)
		b.WriteString(" ")
		b.WriteString(c.Type)
		if c.PrimaryKey {
			b.WriteString(" PRIMARY KEY")
		}
		if c.AutoIncrement {
			b.WriteString(" AUTO_INCREMENT")
		}
		if c.Unique {
			b.WriteString(" UNIQUE")
		}
		if c.NotNull {
			b.WriteString(" NOT NULL")
		}
		if c.Default != nil {
			b.WriteString(" DEFAULT ")
			formatExpr(b, c.Default)
		}
	}
	b.WriteString(")")
}

func formatExpr(b *strings.Builder, e Expr) {
	switch x := e.(type) {
	case *Literal:
		formatLiteral(b, x)
	case *ColumnRef:
		if x.Table != "" {
			writeIdent(b, x.Table)
			b.WriteString(".")
		}
		writeIdent(b, x.Name)
	case *BinaryExpr:
		b.WriteString("(")
		formatExpr(b, x.Left)
		b.WriteString(" ")
		b.WriteString(x.Op)
		b.WriteString(" ")
		formatExpr(b, x.Right)
		b.WriteString(")")
	case *UnaryExpr:
		b.WriteString(x.Op)
		b.WriteString(" ")
		formatExpr(b, x.Operand)
	case *FuncCall:
		switch x.Name {
		case "IF", "LEFT", "RIGHT": // reserved words that are function names too
			b.WriteString(x.Name)
		default:
			writeIdent(b, x.Name)
		}
		b.WriteString("(")
		if x.Star {
			b.WriteString("*")
		}
		if x.Distinct {
			b.WriteString("DISTINCT ")
		}
		for i, a := range x.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			formatExpr(b, a)
		}
		b.WriteString(")")
	case *InExpr:
		formatExpr(b, x.Left)
		if x.Not {
			b.WriteString(" NOT")
		}
		b.WriteString(" IN (")
		if x.Subquery != nil {
			formatSelect(b, x.Subquery)
		} else {
			for i, e := range x.List {
				if i > 0 {
					b.WriteString(", ")
				}
				formatExpr(b, e)
			}
		}
		b.WriteString(")")
	case *BetweenExpr:
		formatExpr(b, x.Expr)
		if x.Not {
			b.WriteString(" NOT")
		}
		b.WriteString(" BETWEEN ")
		formatExpr(b, x.Low)
		b.WriteString(" AND ")
		formatExpr(b, x.High)
	case *IsNullExpr:
		formatExpr(b, x.Expr)
		b.WriteString(" IS ")
		if x.Not {
			b.WriteString("NOT ")
		}
		b.WriteString("NULL")
	case *SubqueryExpr:
		b.WriteString("(")
		formatSelect(b, x.Select)
		b.WriteString(")")
	case *ExistsExpr:
		if x.Not {
			b.WriteString("NOT ")
		}
		b.WriteString("EXISTS (")
		formatSelect(b, x.Select)
		b.WriteString(")")
	case *Placeholder:
		b.WriteString("?")
	case *CaseExpr:
		b.WriteString("CASE")
		if x.Operand != nil {
			b.WriteString(" ")
			formatExpr(b, x.Operand)
		}
		for _, w := range x.Whens {
			b.WriteString(" WHEN ")
			formatExpr(b, w.Cond)
			b.WriteString(" THEN ")
			formatExpr(b, w.Result)
		}
		if x.Else != nil {
			b.WriteString(" ELSE ")
			formatExpr(b, x.Else)
		}
		b.WriteString(" END")
	}
}

func formatLiteral(b *strings.Builder, l *Literal) {
	switch l.Kind {
	case LiteralInt:
		b.WriteString(strconv.FormatInt(l.Int, 10))
	case LiteralFloat:
		text := strconv.FormatFloat(l.Float, 'g', -1, 64)
		b.WriteString(text)
		if !strings.ContainsAny(text, ".eInN") {
			// An integral double prints without a fraction; say it has
			// one, or the text would parse back as an integer and the
			// query structure would change type across Format.
			b.WriteString(".0")
		}
	case LiteralString:
		if !utf8.ValidString(l.Str) {
			// Bytes that are not UTF-8 can only have come from a hex
			// literal (a quoted string is charset-decoded before it is
			// scanned, which replaces them), and only a hex literal
			// parses back to them.
			b.WriteString("0x")
			b.WriteString(hex.EncodeToString([]byte(l.Str)))
			break
		}
		b.WriteString("'")
		b.WriteString(EscapeString(l.Str))
		b.WriteString("'")
	case LiteralBool:
		if l.Bool {
			b.WriteString("TRUE")
		} else {
			b.WriteString("FALSE")
		}
	case LiteralNull:
		b.WriteString("NULL")
	}
}

// EscapeString escapes a string value for inclusion in a single-quoted SQL
// literal, following mysql_real_escape_string's byte-level escape set.
// Note the set deliberately matches the PHP function — including what it
// does NOT escape (multi-byte confusables such as U+02BC), because that
// gap is precisely the semantic mismatch the paper exploits.
func EscapeString(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 8)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case '\'':
			b.WriteString(`\'`)
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case 0:
			b.WriteString(`\0`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case 0x1a:
			b.WriteString(`\Z`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}
