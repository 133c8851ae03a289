package engine

import (
	"fmt"
	"strings"

	"github.com/septic-db/septic/internal/sqlparser"
)

// Select plans.
//
// Most of what executing a SELECT used to work out per call depends only
// on the statement text and the schema: which tables to lock, which
// table the FROM clause names and how its columns lay out in a row,
// what the result columns are called and where each one comes from,
// whether the grouping executor is needed, and whether the WHERE clause
// is a probe of a unique index. A selectPlan holds exactly that. The
// plan of a top-level statement is stored beside its cached AST
// (parsedQuery.plan) and stamped with the catalog generation it was
// built under; CREATE TABLE and DROP TABLE bump the generation under the
// catalog write lock, and runSelect compares it under the catalog read
// lock before it touches anything the plan points to, so a plan never
// outlives the tables it resolved — the relation the verdict cache has
// to Store.Generation (DESIGN §6.2). A published plan is never modified;
// a stale one is replaced by a new one.
//
// Everything else — subqueries, UNION tails, statements bound from
// ExecArgs, a DB without a parse cache — plans the same way per
// execution and drops the plan afterwards (execSelectBranch).

// selectPlan is what one SELECT branch resolves to under one schema.
type selectPlan struct {
	// gen is the catalog generation the plan was built under, locks the
	// whole statement's sorted table-lock set. Only a top-level
	// statement's plan (planStatement) carries them.
	gen   uint64
	locks lockSet

	// table is the one base table of a single-table branch. It is nil for
	// a join, a derived table or no FROM at all, whose layout exists only
	// once the FROM clause has been materialised; such a branch plans its
	// SELECT list per execution.
	table *Table
	// layout is the scope layout of the rows the branch reads.
	layout
	// indexCol is the access path: ≥ 0 probes that column's unique index
	// with key, which answers the whole WHERE clause; -1 scans.
	indexCol int
	key      string

	// names are the result column names. They go straight into every
	// Result.Columns this plan produces and are never written again.
	names []string
	// cols says where each result column comes from: c ≥ 0 is an index
	// into the source row, c < 0 means evaluate Fields[^c].Expr. A column
	// reference that does not resolve stays an expression, so an unknown
	// column is reported when a row is evaluated — never for an empty
	// result, exactly as before plans existed.
	cols []int
	// orderPos says where each ORDER BY item's key comes from: a result
	// column position (an ordinal or an output alias), orderByExpr or
	// orderByRange.
	orderPos []int
	hasAgg   bool

	// Inline storage for the common sizes, as lockSet does: building a
	// plan allocates the plan and its names.
	aliasBuf [1]string
	colBuf   [8]int
	orderBuf [4]int
}

const (
	orderByExpr  = -1 // evaluate the item's expression over the source row
	orderByRange = -2 // an ordinal outside the SELECT list: an error once a row needs it
)

// planStatement plans a top-level SELECT. Runs under the catalog read
// lock; needs no table lock because it reads schemas only.
func (db *DB) planStatement(s *sqlparser.SelectStmt) *selectPlan {
	p := &selectPlan{gen: db.gen}
	p.locks.init()
	collectTables(&p.locks, s)
	db.planTable(p, s)
	return p
}

// planTable plans s if it reads exactly one base table; otherwise it
// leaves p.table nil. A table dropped since validation counts as
// "otherwise": the generic executor reports it.
func (db *DB) planTable(p *selectPlan, s *sqlparser.SelectStmt) {
	if len(s.From) != 1 || s.From[0].Subquery != nil {
		return
	}
	ref := &s.From[0]
	t := db.tables[strings.ToLower(ref.Name)]
	if t == nil {
		return
	}
	p.table = t
	p.layout = t.layout
	if ref.Alias != "" {
		p.aliasBuf[0] = strings.ToLower(ref.Alias)
		p.tables = p.aliasBuf[:]
	}
	p.indexCol, p.key = accessPath(t, p.tables[0], s.Where)
	p.project(s)
}

// accessPath decides how a single-table branch finds its rows: it
// returns the unique column and the index key to probe it with when the
// WHERE clause is "col = literal" and the probe is provably the scan's
// answer, else -1. EXPLAIN reports the same decision.
//
// A scan compares the stored value with the literal under Compare:
// numerically unless both are strings. The index compares the literal
// coerced to the column type with the stored value exactly. The two
// agree when coercion did not change the literal's value (1.5 on an INT
// column becomes 1: scan) and the scan's comparison is the exact one
// for that column (a TEXT column probed with a number compares numeric
// prefixes, so ' 5' and '5x' both match 5: scan).
func accessPath(t *Table, alias string, where sqlparser.Expr) (int, string) {
	eq, ok := where.(*sqlparser.BinaryExpr)
	if !ok || eq.Op != "=" {
		return -1, ""
	}
	col, _ := eq.Left.(*sqlparser.ColumnRef)
	lit, _ := eq.Right.(*sqlparser.Literal)
	if col == nil || lit == nil {
		col, _ = eq.Right.(*sqlparser.ColumnRef)
		lit, _ = eq.Left.(*sqlparser.Literal)
	}
	if col == nil || lit == nil {
		return -1, ""
	}
	// A qualified reference must name this table (or its alias).
	if col.Table != "" && !strings.EqualFold(col.Table, alias) {
		return -1, ""
	}
	ci := t.colIndex(col.Name)
	if ci < 0 || !t.Columns[ci].Unique {
		return -1, ""
	}
	probe := literalValue(lit)
	key, err := t.Columns[ci].coerce(probe)
	if err != nil || !Equal(key, probe) { // NULL equals nothing
		return -1, ""
	}
	const exactInt = 1 << 53 // below it float64, which Compare uses, tells all integers apart
	switch t.Columns[ci].Type {
	case ColText, ColDatetime:
		if probe.Kind != KindString {
			return -1, ""
		}
	case ColInt:
		if key.I <= -exactInt || key.I >= exactInt {
			return -1, ""
		}
	case ColFloat:
		if key.F == 0 { // 0 and -0 are equal but index apart
			return -1, ""
		}
	}
	return ci, indexKey(key)
}

// fieldWidth is the number of result columns a SELECT-list entry
// expands to under the layout.
func (l *layout) fieldWidth(f *sqlparser.SelectField) int {
	switch {
	case f.Star:
		return l.width()
	case f.TableStar != "":
		n := 0
		for ti, t := range l.tables {
			if strings.EqualFold(t, f.TableStar) {
				n += len(l.colNames[ti])
			}
		}
		return n
	default:
		return 1
	}
}

// project resolves the SELECT list and ORDER BY of s against p.layout:
// result column names and sources, sort key positions, and whether the
// branch aggregates.
func (p *selectPlan) project(s *sqlparser.SelectStmt) {
	p.hasAgg = hasAggregates(s)
	width := 0
	for i := range s.Fields {
		width += p.fieldWidth(&s.Fields[i])
	}
	p.names = make([]string, 0, width)
	p.cols = p.colBuf[:0]
	if width > len(p.colBuf) {
		p.cols = make([]int, 0, width)
	}
	own := scope{layout: p.layout} // no parent: an outer column stays an expression
	for fi := range s.Fields {
		f := &s.Fields[fi]
		if f.Star || f.TableStar != "" {
			for ti, t := range p.tables {
				if f.Star || strings.EqualFold(t, f.TableStar) {
					p.names = append(p.names, p.colNames[ti]...)
					for ci := range p.colNames[ti] {
						p.cols = append(p.cols, p.offsets[ti]+ci)
					}
				}
			}
			continue
		}
		src, name := ^fi, f.Alias
		if col, ok := f.Expr.(*sqlparser.ColumnRef); ok {
			if _, idx, ok := own.lookup(col.Table, col.Name); ok {
				src = idx
			}
			if name == "" {
				name = col.Name
			}
		} else if name == "" {
			name = sqlparser.Format(&sqlparser.SelectStmt{
				Fields: []sqlparser.SelectField{{Expr: f.Expr}},
			})[len("SELECT "):]
		}
		p.names = append(p.names, name)
		p.cols = append(p.cols, src)
	}

	// ORDER BY may use an ordinal (column position, a classic injection
	// surface: "ORDER BY 5"), an output alias, or any expression over the
	// source row.
	p.orderPos = p.orderBuf[:0]
	for _, o := range s.OrderBy {
		pos := orderByExpr
		if lit, ok := o.Expr.(*sqlparser.Literal); ok && lit.Kind == sqlparser.LiteralInt {
			pos = orderByRange
			if lit.Int >= 1 && lit.Int <= int64(width) {
				pos = int(lit.Int) - 1
			}
		} else if col, ok := o.Expr.(*sqlparser.ColumnRef); ok && col.Table == "" {
			if fi := aliasIndex(s.Fields, col.Name); fi >= 0 {
				pos = 0
				for i := 0; i < fi; i++ {
					pos += p.fieldWidth(&s.Fields[i])
				}
			}
		}
		p.orderPos = append(p.orderPos, pos)
	}
}

func orderRangeError(o sqlparser.OrderItem) error {
	return fmt.Errorf("ORDER BY position %d out of range", o.Expr.(*sqlparser.Literal).Int)
}
