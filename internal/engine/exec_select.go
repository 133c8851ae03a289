package engine

import (
	"fmt"
	"slices"
	"strings"

	"github.com/septic-db/septic/internal/sqlparser"
)

// execSelect runs a SELECT under the caller-held locks. parent is the
// enclosing scope for correlated subqueries (nil at top level); p is the
// statement's plan at top level and nil for a subquery, which plans
// itself as it runs.
func (db *DB) execSelect(s *sqlparser.SelectStmt, parent *scope, p *selectPlan) (*Result, error) {
	res, err := db.execSelectBranch(s, parent, p)
	if err != nil {
		return nil, err
	}
	// UNION chain: evaluate each branch and merge.
	for u := s.Union; u != nil; u = u.Next.Union {
		branch, err := db.execSelectBranch(u.Next, parent, nil)
		if err != nil {
			return nil, err
		}
		if len(branch.Columns) != len(res.Columns) {
			return nil, fmt.Errorf("UNION branches have %d and %d columns",
				len(res.Columns), len(branch.Columns))
		}
		res.Rows = append(res.Rows, branch.Rows...)
		if !u.All {
			res.Rows = dedupeRows(res.Rows)
		}
	}
	return res, nil
}

// execSelectBranch runs one SELECT without its UNION tail. A branch over
// one base table runs off a plan — p if the statement has one, else one
// built here and dropped; anything else materialises its FROM clause
// first and then plans the SELECT list over the layout that produced.
// Either way the rows end up in one rowBlock.
func (db *DB) execSelectBranch(s *sqlparser.SelectStmt, parent *scope, p *selectPlan) (*Result, error) {
	ev := evaluator{db: db}
	sc := &scope{parent: parent}
	if p == nil || p.table == nil {
		p = new(selectPlan)
		db.planTable(p, s)
	}
	var rows [][]Value
	var err error
	if t := p.table; t != nil {
		sc.layout = p.layout
		switch {
		case p.indexCol >= 0:
			// The probe consumed the WHERE clause; a window into the
			// table's own row headers holds the hit.
			if ri, ok := t.indexes[p.indexCol][p.key]; ok {
				rows = t.Rows[ri : ri+1]
			}
		case s.Where == nil:
			// Nothing below reorders or keeps source rows, so the table's
			// row headers are read in place.
			rows = t.Rows
		default:
			rows, err = filterRows(t.Rows, s.Where, sc, ev)
		}
	} else {
		if rows, err = db.buildRowSource(s.From, sc, ev); err == nil && s.Where != nil {
			rows, err = filterRows(rows, s.Where, sc, ev)
		}
		p.layout = sc.layout
		p.project(s)
	}
	if err != nil {
		return nil, err
	}
	if p.hasAgg {
		return execAggregate(s, p, sc, rows, ev)
	}

	b := newRowBlock(len(rows), p, s)
	for _, row := range rows {
		sc.row = row
		base := len(b.vals)
		for _, c := range p.cols {
			if c >= 0 {
				b.vals = append(b.vals, row[c])
				continue
			}
			v, err := ev.eval(s.Fields[^c].Expr, sc)
			if err != nil {
				return nil, err
			}
			b.vals = append(b.vals, v)
		}
		for i, pos := range p.orderPos {
			switch pos {
			case orderByRange:
				return nil, orderRangeError(s.OrderBy[i])
			case orderByExpr:
				// Any expression over the source row.
				v, err := ev.eval(s.OrderBy[i].Expr, sc)
				if err != nil {
					return nil, err
				}
				b.keys = append(b.keys, v)
			default:
				b.keys = append(b.keys, b.vals[base+pos])
			}
		}
	}
	return b.result(len(rows), s, p, ev)
}

// filterRows returns the rows for which where holds.
func filterRows(rows [][]Value, where sqlparser.Expr, sc *scope, ev evaluator) ([][]Value, error) {
	var kept [][]Value
	for _, row := range rows {
		sc.row = row
		v, err := ev.eval(where, sc)
		if err != nil {
			return nil, err
		}
		if !v.IsNull() && v.AsBool() {
			kept = append(kept, row)
		}
	}
	return kept, nil
}

// rowBlock is a result under construction: every row's cells in one flat
// slice of rows × width values, and the rows' ORDER BY keys in a second
// one that exists only when the statement sorts. The executors append
// cells and keys row by row; result picks, orders and windows them.
type rowBlock struct {
	width      int
	vals, keys []Value
}

// newRowBlock sizes a block for at most n rows of plan p.
func newRowBlock(n int, p *selectPlan, s *sqlparser.SelectStmt) rowBlock {
	b := rowBlock{width: len(p.names)}
	b.vals = make([]Value, 0, n*b.width)
	if len(s.OrderBy) > 0 {
		b.keys = make([]Value, 0, n*len(s.OrderBy))
	}
	return b
}

// row returns row i as a window capped at its own width, so a caller
// appending to it reallocates instead of overwriting row i+1.
func (b *rowBlock) row(i int) []Value {
	return b.vals[i*b.width : (i+1)*b.width : (i+1)*b.width]
}

// result applies DISTINCT, ORDER BY and LIMIT to the block's n rows —
// all three only pick and permute row numbers, no cell moves — and
// windows the survivors into a Result.
func (b *rowBlock) result(n int, s *sqlparser.SelectStmt, p *selectPlan, ev evaluator) (*Result, error) {
	var order []int // row numbers in output order; nil means 0..n-1
	if s.Distinct {
		order = make([]int, 0, n)
		seen := make(rowSet, n)
		for i := 0; i < n; i++ {
			if seen.add(b.row(i)) {
				order = append(order, i)
			}
		}
		n = len(order)
	}
	if len(s.OrderBy) > 0 {
		if order == nil {
			order = make([]int, n)
			for i := range order {
				order[i] = i
			}
		}
		sortByKeys(order, b.keys, s.OrderBy)
	}
	lo, hi, err := limitRange(s.Limit, n, ev)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: p.names}
	if lo < n || s.Limit == nil {
		res.Rows = make([][]Value, hi-lo)
	}
	for i := range res.Rows {
		j := lo + i
		if order != nil {
			j = order[j]
		}
		res.Rows[i] = b.row(j)
	}
	return res, nil
}

// buildRowSource materializes the FROM clause — cross/inner/left joins
// of tables and derived tables — and leaves its layout in sc.
func (db *DB) buildRowSource(from []sqlparser.TableRef, sc *scope, ev evaluator) ([][]Value, error) {
	if len(from) == 0 {
		// SELECT without FROM: one empty row.
		return [][]Value{{}}, nil
	}
	var rows [][]Value
	for i, ref := range from {
		name, cols, tblRows, err := db.resolveTableRef(ref, sc.parent)
		if err != nil {
			return nil, err
		}
		sc.addSource(name, cols)
		if i == 0 {
			rows = tblRows
			continue
		}
		joined := make([][]Value, 0, len(rows))
		width := len(cols)
		for _, left := range rows {
			matched := false
			for _, right := range tblRows {
				combined := make([]Value, 0, len(left)+width)
				combined = append(combined, left...)
				combined = append(combined, right...)
				if ref.On != nil {
					sc.row = combined
					v, err := ev.eval(ref.On, sc)
					if err != nil {
						return nil, err
					}
					if v.IsNull() || !v.AsBool() {
						continue
					}
				}
				matched = true
				joined = append(joined, combined)
			}
			if !matched && ref.Join == "LEFT" {
				combined := make([]Value, 0, len(left)+width)
				combined = append(combined, left...)
				for j := 0; j < width; j++ {
					combined = append(combined, Null())
				}
				joined = append(joined, combined)
			}
		}
		rows = joined
	}
	return rows, nil
}

// resolveTableRef returns the scope name, column names and rows of one
// FROM entry. A base table's rows are its own row headers, read in
// place: joins build new rows and sorting permutes row numbers.
func (db *DB) resolveTableRef(ref sqlparser.TableRef, parent *scope) (string, []string, [][]Value, error) {
	if ref.Subquery != nil {
		res, err := db.execSelect(ref.Subquery, parent, nil)
		if err != nil {
			return "", nil, nil, err
		}
		name := ref.Alias
		if name == "" {
			name = "derived"
		}
		return name, res.Columns, res.Rows, nil
	}
	t := db.tables[strings.ToLower(ref.Name)]
	if t == nil {
		return "", nil, nil, fmt.Errorf("%w: %s", ErrNoSuchTable, ref.Name)
	}
	name := ref.Alias
	if name == "" {
		name = ref.Name
	}
	return name, t.layout.colNames[0], t.Rows, nil
}

func aliasIndex(fields []sqlparser.SelectField, name string) int {
	for i, f := range fields {
		if f.Alias != "" && strings.EqualFold(f.Alias, name) {
			return i
		}
	}
	return -1
}

// sortByKeys stably sorts row numbers by their keys (row i's are
// keys[i*len(orderBy):]) under the ORDER BY directions, so ties keep
// insertion order like MySQL's filesort on equal keys.
func sortByKeys(order []int, keys []Value, orderBy []sqlparser.OrderItem) {
	nk := len(orderBy)
	slices.SortStableFunc(order, func(a, b int) int {
		for i := range orderBy {
			va, vb := keys[a*nk+i], keys[b*nk+i]
			c := 0
			// NULLs sort first ascending, last descending (MySQL).
			switch {
			case va.IsNull() && vb.IsNull():
			case va.IsNull():
				c = -1
			case vb.IsNull():
				c = 1
			default:
				c, _ = Compare(va, vb)
			}
			if c == 0 {
				continue
			}
			if orderBy[i].Desc {
				return -c
			}
			return c
		}
		return 0
	})
}

// limitRange returns the half-open range of n rows that LIMIT/OFFSET
// keeps. The clause may hold any primary expression, a subquery
// included, so it is evaluated per execution, under an empty scope.
func limitRange(limit *sqlparser.Limit, n int, ev evaluator) (lo, hi int, err error) {
	if limit == nil {
		return 0, n, nil
	}
	if limit.Offset != nil {
		v, err := ev.eval(limit.Offset, &noScope)
		if err != nil {
			return 0, 0, err
		}
		lo = max(int(v.AsInt()), 0)
	}
	count, err := ev.eval(limit.Count, &noScope)
	if err != nil {
		return 0, 0, err
	}
	if lo >= n {
		return n, n, nil
	}
	if c := int(count.AsInt()); c >= 0 && c < n-lo {
		return lo, lo + c, nil
	}
	return lo, n, nil
}

// rowSet is the set of rows seen so far, where two rows are the same
// exactly when every cell has the same kind and text: what DISTINCT and
// UNION mean by a duplicate.
type rowSet map[string]struct{}

// add puts row in the set and reports whether it was new.
func (rs rowSet) add(row []Value) bool {
	var buf [128]byte
	sig := buf[:0]
	for _, v := range row {
		sig = appendSig(sig, v)
	}
	if _, dup := rs[string(sig)]; dup {
		return false
	}
	rs[string(sig)] = struct{}{}
	return true
}

// appendSig appends the signature of one cell; GROUP BY keys and
// COUNT(DISTINCT) use it too.
func appendSig(sig []byte, v Value) []byte {
	sig = append(sig, byte('0'+v.Kind), ':')
	sig = v.appendText(sig)
	return append(sig, 0)
}

// dedupeRows removes duplicate rows, keeping first occurrences.
func dedupeRows(rows [][]Value) [][]Value {
	seen := make(rowSet, len(rows))
	out := rows[:0:0]
	for _, r := range rows {
		if seen.add(r) {
			out = append(out, r)
		}
	}
	return out
}

// hasAggregates reports whether the SELECT needs the grouping executor.
func hasAggregates(s *sqlparser.SelectStmt) bool {
	if len(s.GroupBy) > 0 || s.Having != nil {
		return true
	}
	for _, f := range s.Fields {
		if f.Expr != nil && exprHasAggregate(f.Expr) {
			return true
		}
	}
	return false
}

func exprHasAggregate(e sqlparser.Expr) bool {
	switch x := e.(type) {
	case *sqlparser.FuncCall:
		if isAggregateName(x.Name) {
			return true
		}
		for _, a := range x.Args {
			if exprHasAggregate(a) {
				return true
			}
		}
	case *sqlparser.BinaryExpr:
		return exprHasAggregate(x.Left) || exprHasAggregate(x.Right)
	case *sqlparser.UnaryExpr:
		return exprHasAggregate(x.Operand)
	}
	return false
}

// execAggregate implements GROUP BY / aggregate projection.
func execAggregate(s *sqlparser.SelectStmt, p *selectPlan, sc *scope, rows [][]Value, ev evaluator) (*Result, error) {
	// groups lists each group's rows in first-seen order. Without GROUP BY
	// all rows are one group, which yields a row even when it is empty
	// (COUNT(*) = 0); GROUP BY makes no empty groups.
	groups := [][][]Value{rows}
	if len(s.GroupBy) > 0 {
		groups = groups[:0]
		index := make(map[string]int)
		var sig []byte
		for _, row := range rows {
			sc.row = row
			sig = sig[:0]
			for _, e := range s.GroupBy {
				v, err := ev.eval(e, sc)
				if err != nil {
					return nil, err
				}
				sig = appendSig(sig, v)
			}
			gi, ok := index[string(sig)]
			if !ok {
				gi = len(groups)
				index[string(sig)] = gi
				groups = append(groups, nil)
			}
			groups[gi] = append(groups[gi], row)
		}
	}

	agg := aggregator{ev: ev, sc: sc}
	b := newRowBlock(len(groups), p, s)
	n := 0
	for _, g := range groups {
		if s.Having != nil {
			v, err := agg.eval(s.Having, g)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !v.AsBool() {
				continue
			}
		}
		base := len(b.vals)
		for _, f := range s.Fields {
			if f.Star || f.TableStar != "" {
				return nil, fmt.Errorf("cannot mix * with aggregates")
			}
			v, err := agg.eval(f.Expr, g)
			if err != nil {
				return nil, err
			}
			b.vals = append(b.vals, v)
		}
		for i, pos := range p.orderPos {
			switch pos {
			case orderByRange:
				return nil, orderRangeError(s.OrderBy[i])
			case orderByExpr:
				v, err := agg.eval(s.OrderBy[i].Expr, g)
				if err != nil {
					return nil, err
				}
				b.keys = append(b.keys, v)
			default:
				b.keys = append(b.keys, b.vals[base+pos])
			}
		}
		n++
	}
	return b.result(n, s, p, ev)
}

// aggregator evaluates expressions over a group of rows: aggregate calls
// consume the whole group; everything else is evaluated on the first row
// (MySQL's permissive ONLY_FULL_GROUP_BY-off behaviour).
type aggregator struct {
	ev evaluator
	sc *scope
}

func (a *aggregator) eval(e sqlparser.Expr, rows [][]Value) (Value, error) {
	switch x := e.(type) {
	case *sqlparser.FuncCall:
		if isAggregateName(x.Name) {
			return a.aggregate(x, rows)
		}
		args := make([]Value, 0, len(x.Args))
		for _, arg := range x.Args {
			v, err := a.eval(arg, rows)
			if err != nil {
				return Value{}, err
			}
			args = append(args, v)
		}
		return a.ev.callScalar(x.Name, args)
	case *sqlparser.BinaryExpr:
		left, err := a.eval(x.Left, rows)
		if err != nil {
			return Value{}, err
		}
		right, err := a.eval(x.Right, rows)
		if err != nil {
			return Value{}, err
		}
		return applyBinary(x.Op, &left, &right)
	case *sqlparser.UnaryExpr:
		v, err := a.eval(x.Operand, rows)
		if err != nil {
			return Value{}, err
		}
		return applyUnary(x.Op, v)
	default:
		if len(rows) == 0 {
			return Null(), nil
		}
		a.sc.row = rows[0]
		return a.ev.eval(e, a.sc)
	}
}

func (a *aggregator) aggregate(x *sqlparser.FuncCall, rows [][]Value) (Value, error) {
	if x.Name == "COUNT" && x.Star {
		return Int(int64(len(rows))), nil
	}
	if len(x.Args) != 1 {
		return Value{}, fmt.Errorf("%s expects one argument", x.Name)
	}
	values := make([]Value, 0, len(rows))
	var seen map[string]struct{}
	var sig []byte
	if x.Distinct {
		seen = make(map[string]struct{})
	}
	for _, row := range rows {
		a.sc.row = row
		v, err := a.ev.eval(x.Args[0], a.sc)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			continue
		}
		if x.Distinct {
			sig = appendSig(sig[:0], v)
			if _, dup := seen[string(sig)]; dup {
				continue
			}
			seen[string(sig)] = struct{}{}
		}
		values = append(values, v)
	}
	switch x.Name {
	case "COUNT":
		return Int(int64(len(values))), nil
	case "SUM":
		if len(values) == 0 {
			return Null(), nil
		}
		allInt := true
		var fi int64
		var ff float64
		for _, v := range values {
			if v.Kind != KindInt {
				allInt = false
			}
			fi += v.AsInt()
			ff += v.AsFloat()
		}
		if allInt {
			return Int(fi), nil
		}
		return Float(ff), nil
	case "AVG":
		if len(values) == 0 {
			return Null(), nil
		}
		var sum float64
		for _, v := range values {
			sum += v.AsFloat()
		}
		return Float(sum / float64(len(values))), nil
	case "MIN":
		if len(values) == 0 {
			return Null(), nil
		}
		best := values[0]
		for _, v := range values[1:] {
			if c, ok := Compare(v, best); ok && c < 0 {
				best = v
			}
		}
		return best, nil
	case "MAX":
		if len(values) == 0 {
			return Null(), nil
		}
		best := values[0]
		for _, v := range values[1:] {
			if c, ok := Compare(v, best); ok && c > 0 {
				best = v
			}
		}
		return best, nil
	case "GROUP_CONCAT":
		parts := make([]string, 0, len(values))
		for _, v := range values {
			parts = append(parts, v.String())
		}
		return Str(strings.Join(parts, ",")), nil
	default:
		return Value{}, fmt.Errorf("unknown aggregate %s", x.Name)
	}
}
