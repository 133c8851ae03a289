package engine

import (
	"errors"
	"fmt"
	"strings"

	"github.com/septic-db/septic/internal/sqlparser"
)

// Plans.
//
// Much of executing a SELECT, UPDATE or DELETE depends only on the
// statement text and the schema: which tables to lock, which table the
// statement names and how its columns lay out in a row, whether the WHERE
// clause is a probe of a unique index, what the result columns are called
// and where each one comes from, and what every expression means: which row
// offset a column reference reads, which operator an operator is, what a
// literal LIKE pattern matches. A plan holds exactly that. The plan of a
// top-level statement is stored beside its cached AST (stmtEntry.plan, next
// to the guard's slot, stmtEntry.memo) and stamped with the catalog it was
// built against; CREATE TABLE and DROP TABLE publish a new catalog, and
// runPlanned compares the stamp with the statement's catalog before it
// touches anything the plan points to, so a plan never serves tables other
// than the ones it resolved. A published plan is never modified; a stale
// one is replaced by a new one.
//
// A plan holds nothing of one execution: a '?' placeholder binds to a leaf
// that reads the execution's arguments when it is evaluated (opParam), so
// a parameterized text runs off its stored plan like any other.
//
// Everything else — subqueries, UNION tails, a DB without a parse cache —
// plans the same way per execution and drops the plan afterwards
// (execSelectBranch).

// binder is an arena of bound expressions. Binding cannot fail: what
// does not resolve becomes a node that fails when it is evaluated.
type binder struct {
	nodes []bexpr
}

// noExpr is the node index of a clause the statement does not have.
const noExpr = -1

// plan is what one SELECT branch, UPDATE or DELETE resolves to under one
// schema.
type plan struct {
	// cat is the catalog the plan was built against, locks the whole
	// statement's sorted table-lock set. Only a top-level statement's plan
	// (planStatement) carries them.
	cat   *catalog
	locks lockSet

	// table is the one base table of a single-table branch or a DML
	// statement. It is nil for a join, a derived table or no FROM at all,
	// whose layout exists only once the FROM clause has been materialised;
	// such a branch binds per execution.
	table *Table
	// layout is the layout of the rows the statement reads.
	layout
	// indexCol is the access path: ≥ 0 is the unique column the WHERE
	// clause equates with one value, -1 scans. Probing that column's index
	// answers the whole clause if the value is provably a key (probeKey).
	// A literal was put to that proof when the plan was built and key is
	// what it coerced to; keyArg ≥ 0 is the argument a '?' stands for,
	// which is put to it per execution (probe), and -1 for a literal.
	indexCol int
	key      string
	keyArg   int

	// The statement's expressions, bound: indices into nodes, or noExpr.
	// where stays unbound when the access path is sure to answer it, the
	// GROUP BY list is nodes[groupBy:] and an UPDATE's SET values
	// nodes[sets:].
	binder
	where, having, groupBy, sets int32
	limitCount, limitOffset      int32

	// names are the result column names. They go straight into every
	// Result.Columns this plan produces and are never written again.
	names []string
	// cols says where each result column comes from: c ≥ 0 is an index
	// into the source row, c < 0 is node ^c. A plain column that resolves
	// in the branch's own layout is an index; anything else is a node. For
	// an UPDATE, cols are the positions of the assigned columns instead,
	// -1 for one the table does not have.
	cols []int32
	// orderPos says where each ORDER BY item's key comes from: pos ≥ 0 is
	// a result column position (an ordinal or an output alias), pos < 0 is
	// node ^pos — any expression over the source row, or the error an
	// ordinal outside the SELECT list raises once a row needs its key.
	orderPos []int32
	hasAgg   bool

	// Inline storage for the common sizes, as lockSet does: building a
	// plan allocates the plan, its names and, if anything needs binding,
	// the arena.
	aliasBuf [1]string
	colBuf   [8]int32
	orderBuf [4]int32
}

// planStatement plans a top-level SELECT, UPDATE or DELETE against cat.
// It needs no table lock because it reads schemas only.
func (cat *catalog) planStatement(stmt sqlparser.Statement) *plan {
	p := &plan{cat: cat}
	p.locks.init()
	collectTables(&p.locks, stmt)
	own := [1]frame{{layout: &p.layout}}
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		cat.planSelect(p, s, own[:])
	case *sqlparser.UpdateStmt:
		cat.planDML(p, s.Table, s.Where, s.OrderBy, s.Limit, s.Sets, own[:])
	case *sqlparser.DeleteStmt:
		cat.planDML(p, s.Table, s.Where, s.OrderBy, s.Limit, nil, own[:])
	}
	return p
}

// planSelect plans s if it reads exactly one base table; otherwise it
// leaves p.table nil. frames are the enclosing levels' and, last, the
// branch's own, pointing at p.layout.
func (cat *catalog) planSelect(p *plan, s *sqlparser.SelectStmt, frames []frame) {
	if len(s.From) != 1 || s.From[0].Subquery != nil {
		return
	}
	if cat.planAccess(p, s.From[0].Name, s.From[0].Alias, s.Where) {
		p.bindSelect(s, frames)
	}
}

// planDML plans an UPDATE (sets non-nil) or a DELETE.
func (cat *catalog) planDML(p *plan, table string, where sqlparser.Expr, orderBy []sqlparser.OrderItem,
	limit *sqlparser.Limit, sets []sqlparser.Assignment, own []frame) {
	if !cat.planAccess(p, table, "", where) {
		return
	}
	p.bindWhere(where, own)
	p.sets = p.reserve(len(sets))
	p.cols = p.colBuf[:0]
	for i, a := range sets {
		p.bindInto(p.sets+int32(i), a.Value, own)
		p.cols = append(p.cols, int32(p.table.colIndex(a.Column)))
	}
	// ORDER BY on DML has no SELECT list to name: every item is an
	// expression over the row.
	p.orderPos = p.orderBuf[:0]
	for _, o := range orderBy {
		p.orderPos = append(p.orderPos, ^p.bind(o.Expr, own))
	}
	p.limitCount = noExpr
	if limit != nil {
		p.limitCount = p.bind(limit.Count, nil) // no frame: LIMIT sees no row
	}
}

// planAccess resolves the table a statement names and decides the access
// path. It reports false, leaving p.table nil, for a table cat does not
// have — one named in a subquery in an expression, which validation does
// not look into: the executor reports that.
func (cat *catalog) planAccess(p *plan, name, alias string, where sqlparser.Expr) bool {
	t := cat.tables[strings.ToLower(name)]
	if t == nil {
		return false
	}
	p.table = t
	p.layout = t.layout
	if alias != "" {
		p.aliasBuf[0] = strings.ToLower(alias)
		p.tables = p.aliasBuf[:]
	}
	p.indexCol, p.keyArg = -1, -1
	ci, value := accessPath(t, p.tables[0], where)
	switch x := value.(type) {
	case *sqlparser.Literal:
		if key, ok := t.Columns[ci].probeKey(LiteralValue(x)); ok {
			p.indexCol, p.key = ci, indexKey(key)
		}
	case *sqlparser.Placeholder:
		p.indexCol, p.keyArg = ci, x.Index
	}
	return true
}

// accessPath finds the index a single-table SELECT branch, an UPDATE or a
// DELETE could reach its rows through: when the WHERE clause is "col =
// value" over a unique column of the table it returns the column and the
// value's expression, else -1. Whether the probe may stand for the scan
// depends on the value: probeKey.
func accessPath(t *Table, alias string, where sqlparser.Expr) (int, sqlparser.Expr) {
	eq, ok := where.(*sqlparser.BinaryExpr)
	if !ok || eq.Op != "=" {
		return -1, nil
	}
	col, _ := eq.Left.(*sqlparser.ColumnRef)
	value := eq.Right
	if col == nil {
		col, _ = eq.Right.(*sqlparser.ColumnRef)
		value = eq.Left
	}
	// A qualified reference must name this table (or its alias).
	if col == nil || (col.Table != "" && !strings.EqualFold(col.Table, alias)) {
		return -1, nil
	}
	ci := t.colIndex(col.Name)
	if ci < 0 || !t.Columns[ci].Unique {
		return -1, nil
	}
	return ci, value
}

// probeKey reports whether probing the column's unique index with probe
// is provably what a scan for "col = probe" finds, and returns the probe
// coerced to the column type: the key. One body judges literals when the
// plan is built and arguments when it runs; EXPLAIN reports the outcome.
//
// A scan compares the stored value with the probe under Compare:
// numerically unless both are strings. The index compares the probe
// coerced to the column type with the stored value exactly. The two
// agree when coercion did not change the probe's value (1.5 on an INT
// column becomes 1: scan) and the scan's comparison is the exact one
// for that column (a TEXT column probed with a number compares numeric
// prefixes, so ' 5' and '5x' both match 5: scan).
func (c *Column) probeKey(probe Value) (Value, bool) {
	key, err := c.coerce(probe)
	if err != nil || !Equal(key, probe) { // NULL equals nothing
		return Value{}, false
	}
	const exactInt = 1 << 53 // below it float64, which Compare uses, tells all integers apart
	switch c.Type {
	case ColText, ColDatetime:
		if probe.Kind != KindString {
			return Value{}, false
		}
	case ColInt:
		if key.I <= -exactInt || key.I >= exactInt {
			return Value{}, false
		}
	case ColFloat:
		if key.F == 0 { // 0 and -0 are equal but index apart
			return Value{}, false
		}
	}
	return key, true
}

// probe runs the access path for one execution. answered says whether the
// index stood for the WHERE clause — the plan has a unique column and the
// value is provably a key — and then found whether row ri holds it. When
// it did not the caller scans: an unbound '?' is left for the scan to
// raise, row by row, as any other expression's error is.
func (p *plan) probe(args []Value) (ri int, found, answered bool) {
	if p.indexCol < 0 {
		return 0, false, false
	}
	idx := p.table.indexes[p.indexCol]
	if p.keyArg < 0 {
		ri, found = idx[p.key]
		return ri, found, true
	}
	if p.keyArg >= len(args) {
		return 0, false, false
	}
	key, ok := p.table.Columns[p.indexCol].probeKey(args[p.keyArg])
	if !ok {
		return 0, false, false
	}
	ri, found = indexFind(idx, key)
	return ri, found, true
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

// bindWhere binds the WHERE clause unless the access path is sure to
// answer it: an argument may turn out not to be a key.
func (p *plan) bindWhere(where sqlparser.Expr, frames []frame) {
	p.where = noExpr
	if p.table == nil || p.indexCol < 0 || p.keyArg >= 0 {
		p.where = p.bind(where, frames)
	}
}

// bindSelect resolves every clause of s against p.layout: the WHERE
// clause, result column names and sources, grouping, sort key positions
// and LIMIT.
func (p *plan) bindSelect(s *sqlparser.SelectStmt, frames []frame) {
	p.bindWhere(s.Where, frames)
	p.hasAgg = hasAggregates(s)
	width := 0
	for i := range s.Fields {
		width += p.fieldWidth(&s.Fields[i])
	}
	p.names = make([]string, 0, width)
	p.cols = p.colBuf[:0]
	if width > len(p.colBuf) {
		p.cols = make([]int32, 0, width)
	}
	for fi := range s.Fields {
		f := &s.Fields[fi]
		if f.Star || f.TableStar != "" {
			first := len(p.cols)
			for ti, t := range p.tables {
				if f.Star || strings.EqualFold(t, f.TableStar) {
					p.names = append(p.names, p.colNames[ti]...)
					for ci := range p.colNames[ti] {
						p.cols = append(p.cols, int32(p.offsets[ti]+ci))
					}
				}
			}
			if p.hasAgg { // an error once a group is projected, never columns
				p.cols = append(p.cols[:first], ^p.bindFail(errors.New("cannot mix * with aggregates")))
			}
			continue
		}
		src, name := int32(-1), f.Alias
		if col, ok := f.Expr.(*sqlparser.ColumnRef); ok {
			src = int32(p.resolve(col.Table, col.Name))
			if name == "" {
				name = col.Name
			}
		} else if name == "" {
			name = sqlparser.Format(&sqlparser.SelectStmt{
				Fields: []sqlparser.SelectField{{Expr: f.Expr}},
			})[len("SELECT "):]
		}
		if src < 0 { // not a column of this branch's own row
			src = ^p.bind(f.Expr, frames)
		}
		p.names = append(p.names, name)
		p.cols = append(p.cols, src)
	}
	p.groupBy = p.reserve(len(s.GroupBy))
	for i, e := range s.GroupBy {
		p.bindInto(p.groupBy+int32(i), e, frames)
	}
	p.having = p.bind(s.Having, frames)

	p.orderPos = p.orderBuf[:0]
	for _, o := range s.OrderBy {
		p.orderPos = append(p.orderPos, p.orderKey(s, o.Expr, width, frames))
	}
	p.limitCount, p.limitOffset = noExpr, noExpr
	if s.Limit != nil { // no frame: LIMIT sees no row
		p.limitCount, p.limitOffset = p.bind(s.Limit.Count, nil), p.bind(s.Limit.Offset, nil)
	}
}

// orderKey says where an ORDER BY item's key comes from (plan.orderPos).
// The item may be an ordinal (column position, a classic injection
// surface: "ORDER BY 5"), an output alias, or any expression over the
// source row.
func (p *plan) orderKey(s *sqlparser.SelectStmt, e sqlparser.Expr, width int, frames []frame) int32 {
	if lit, ok := e.(*sqlparser.Literal); ok && lit.Kind == sqlparser.LiteralInt {
		if lit.Int >= 1 && lit.Int <= int64(width) {
			return int32(lit.Int) - 1
		}
		return ^p.bindFail(fmt.Errorf("ORDER BY position %d out of range", lit.Int))
	}
	if col, ok := e.(*sqlparser.ColumnRef); ok && col.Table == "" {
		if fi := aliasIndex(s.Fields, col.Name); fi >= 0 {
			pos := 0
			for i := 0; i < fi; i++ {
				pos += p.fieldWidth(&s.Fields[i])
			}
			return int32(pos)
		}
	}
	return ^p.bind(e, frames)
}

// reserve appends n empty nodes and returns the index of the first.
func (b *binder) reserve(n int) int32 {
	if b.nodes == nil && n > 0 {
		b.nodes = make([]bexpr, 0, 8)
	}
	first := len(b.nodes)
	b.nodes = append(b.nodes, make([]bexpr, n)...)
	return int32(first)
}

// bind binds e against frames — the enclosing levels' and, last, the
// one e is evaluated at — and returns its node, noExpr for no expression.
func (b *binder) bind(e sqlparser.Expr, frames []frame) int32 {
	if e == nil {
		return noExpr
	}
	i := b.reserve(1)
	b.bindInto(i, e, frames)
	return i
}

func (b *binder) bindFail(err error) int32 {
	i := b.reserve(1)
	b.nodes[i] = bexpr{op: opFail, err: err}
	return i
}

// operands reserves n's operands and binds the leading ones from es; the
// caller binds the rest.
func (b *binder) operands(n *bexpr, count int, frames []frame, es ...sqlparser.Expr) {
	n.kid, n.n = b.reserve(count), int32(count)
	for i, e := range es {
		b.bindInto(n.kid+int32(i), e, frames)
	}
}

// bindInto binds e into the reserved node at.
func (b *binder) bindInto(at int32, e sqlparser.Expr, frames []frame) {
	var n bexpr
	switch x := e.(type) {
	case *sqlparser.Literal:
		n = bexpr{op: opLit, val: LiteralValue(x)}
	case *sqlparser.ColumnRef:
		// Innermost level first: a correlated subquery sees its enclosing
		// queries' rows.
		n.op = opErr
		for up := 0; up < len(frames) && n.op == opErr; up++ {
			if idx := frames[len(frames)-1-up].layout.resolve(x.Table, x.Name); idx >= 0 {
				n = bexpr{op: opCol, kid: int32(up), n: int32(idx)}
			}
		}
		if n.op == opErr {
			n.err = fmt.Errorf("%w: %s", ErrNoSuchColumn, strings.TrimPrefix(x.Table+"."+x.Name, "."))
		}
	case *sqlparser.BinaryExpr:
		op, ok := binaryOps[x.Op]
		if !ok {
			n = bexpr{op: opErr, err: fmt.Errorf("unsupported operator %q", x.Op)}
			break
		}
		n.op = op
		b.operands(&n, 2, frames, x.Left, x.Right)
		if lit, ok := x.Right.(*sqlparser.Literal); ok && op == opLike && lit.Kind != sqlparser.LiteralNull {
			n.setPattern(LiteralValue(lit).String())
		}
	case *sqlparser.UnaryExpr:
		switch x.Op {
		case "NOT":
			n.op = opNot
		case "-":
			n.op = opNeg
		default:
			n = bexpr{op: opErr, err: fmt.Errorf("unsupported unary operator %q", x.Op)}
		}
		if n.op != opErr {
			b.operands(&n, 1, frames, x.Operand)
		}
	case *sqlparser.FuncCall:
		n = bexpr{op: opFunc, val: Str(x.Name)}
		if isAggregateName(x.Name) {
			n.op = opAgg
		} else if want, fixed := scalarArity[x.Name]; fixed && len(x.Args) != want {
			n.err = fmt.Errorf("%s expects %d arguments, got %d", x.Name, want, len(x.Args))
		}
		if x.Star {
			n.flags |= flagStar
		}
		if x.Distinct {
			n.flags |= flagDistinct
		}
		b.operands(&n, len(x.Args), frames, x.Args...)
	case *sqlparser.InExpr:
		n = bexpr{op: opIn, sel: x.Subquery, flags: notFlag(x.Not)}
		if x.Subquery != nil {
			n.op = opInSub
		}
		b.operands(&n, 1+len(x.List), frames, x.Left)
		for i, c := range x.List {
			b.bindInto(n.kid+1+int32(i), c, frames)
		}
	case *sqlparser.BetweenExpr:
		n = bexpr{op: opBetween, flags: notFlag(x.Not)}
		b.operands(&n, 3, frames, x.Expr, x.Low, x.High)
	case *sqlparser.IsNullExpr:
		n = bexpr{op: opIsNull, flags: notFlag(x.Not)}
		b.operands(&n, 1, frames, x.Expr)
	case *sqlparser.SubqueryExpr:
		n = bexpr{op: opSubquery, sel: x.Select}
	case *sqlparser.ExistsExpr:
		n = bexpr{op: opExists, sel: x.Select, flags: notFlag(x.Not)}
	case *sqlparser.Placeholder:
		n = bexpr{op: opParam, n: int32(x.Index)}
	case *sqlparser.CaseExpr:
		n.op = opCase
		count := 2 * len(x.Whens)
		if x.Operand != nil {
			n.flags |= flagOperand
			count++
		}
		if x.Else != nil {
			n.flags |= flagElse
			count++
		}
		b.operands(&n, count, frames)
		k := n.kid
		if x.Operand != nil {
			b.bindInto(k, x.Operand, frames)
			k++
		}
		for _, w := range x.Whens {
			b.bindInto(k, w.Cond, frames)
			b.bindInto(k+1, w.Result, frames)
			k += 2
		}
		if x.Else != nil {
			b.bindInto(k, x.Else, frames)
		}
	default:
		n = bexpr{op: opErr, err: fmt.Errorf("unsupported expression %T", e)}
	}
	b.nodes[at] = n
}

func notFlag(not bool) uint8 {
	if not {
		return flagNot
	}
	return 0
}
