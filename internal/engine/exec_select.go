package engine

import (
	"fmt"
	"slices"
	"strings"

	"github.com/septic-db/septic/internal/sqlparser"
)

// execSelect runs a SELECT under the caller-held locks. outer are the
// frames of the enclosing levels for correlated subqueries (empty at top
// level); p is the statement's plan at top level and nil for a subquery,
// which plans itself as it runs; args are the execution's arguments.
func (db *DB) execSelect(s *sqlparser.SelectStmt, outer []frame, p *plan, args []Value) (*Result, error) {
	res, err := db.execSelectBranch(s, outer, p, args)
	if err != nil {
		return nil, err
	}
	// UNION chain: evaluate each branch and merge.
	for u := s.Union; u != nil; u = u.Next.Union {
		branch, err := db.execSelectBranch(u.Next, outer, nil, args)
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
// first and then binds the statement over the layout that produced.
// Either way the rows end up in one rowBlock.
func (db *DB) execSelectBranch(s *sqlparser.SelectStmt, outer []frame, p *plan, args []Value) (*Result, error) {
	stored := p != nil && p.table != nil
	if !stored {
		p = new(plan)
	}
	ev := evaluator{db: db, frames: append(outer, frame{layout: &p.layout}), args: args}
	if !stored {
		db.planSelect(p, s, ev.frames)
	}
	ev.nodes = p.nodes
	var rows [][]Value
	var err error
	if t := p.table; t != nil {
		ri, found, answered := p.probe(args)
		switch {
		case answered:
			// The probe consumed the WHERE clause; a window into the
			// table's own row headers holds the hit.
			if found {
				rows = t.Rows[ri : ri+1]
			}
		case p.where == noExpr:
			// Nothing below reorders or keeps source rows, so the table's
			// row headers are read in place.
			rows = t.Rows
		default:
			rows, err = filterRows(&ev, p.where, t.Rows, keepRow)
		}
	} else if rows, err = ev.buildRowSource(s.From, p); err == nil {
		p.bindSelect(s, ev.frames)
		if ev.nodes = p.nodes; p.where != noExpr {
			rows, err = filterRows(&ev, p.where, rows, keepRow)
		}
	}
	if err != nil {
		return nil, err
	}
	if p.hasAgg {
		return ev.execAggregate(s, p, rows)
	}

	b := newRowBlock(len(rows), p, s)
	for _, row := range rows {
		ev.setRow(row)
		if err := ev.addRow(&b, p, row, nil); err != nil {
			return nil, err
		}
	}
	return b.result(len(rows), s, p, &ev)
}

// filterRows is the scan: it evaluates the bound WHERE clause over rows,
// at ev's level, and returns what keep makes of each row it holds for —
// the row for a SELECT (keepRow), its position for DML (keepPos). noExpr
// holds for every row.
func filterRows[T any](ev *evaluator, where int32, rows [][]Value, keep func(int, []Value) T) ([]T, error) {
	var kept []T
	for ri, row := range rows {
		if where != noExpr {
			ev.setRow(row)
			v, err := ev.eval(where)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !v.AsBool() {
				continue
			}
		}
		kept = append(kept, keep(ri, row))
	}
	return kept, nil
}

func keepRow(_ int, row []Value) []Value { return row }
func keepPos(ri int, _ []Value) int      { return ri }

// rowBlock is a result under construction: every row's cells in one flat
// slice of rows × width values, and the rows' ORDER BY keys in a second
// one that exists only when the statement sorts. The executors append
// cells and keys row by row; result picks, orders and windows them.
type rowBlock struct {
	width      int
	vals, keys []Value
}

// newRowBlock sizes a block for at most n rows of plan p.
func newRowBlock(n int, p *plan, s *sqlparser.SelectStmt) rowBlock {
	b := rowBlock{width: len(p.names)}
	b.vals = make([]Value, 0, n*b.width)
	if len(s.OrderBy) > 0 {
		b.keys = make([]Value, 0, n*len(s.OrderBy))
	}
	return b
}

// addRow appends one result row and its sort keys to b: cells come from
// row (nil reads as NULLs: an empty group) or from the plan's nodes.
func (ev *evaluator) addRow(b *rowBlock, p *plan, row []Value, group [][]Value) error {
	base := len(b.vals)
	for _, c := range p.cols {
		if c >= 0 && row != nil {
			b.vals = append(b.vals, row[c])
			continue
		}
		v, err := ev.compute(p, c, group)
		if err != nil {
			return err
		}
		b.vals = append(b.vals, v)
	}
	for _, pos := range p.orderPos {
		if pos >= 0 {
			b.keys = append(b.keys, b.vals[base+int(pos)])
			continue
		}
		v, err := ev.compute(p, pos, group)
		if err != nil {
			return err
		}
		b.keys = append(b.keys, v)
	}
	return nil
}

// compute evaluates node ^src, over group when the branch aggregates,
// else at ev's row; src ≥ 0 is a plain column of an empty group: NULL.
func (ev *evaluator) compute(p *plan, src int32, group [][]Value) (Value, error) {
	switch {
	case src >= 0:
		return Null(), nil
	case p.hasAgg:
		return ev.evalGroup(^src, group)
	default:
		return ev.eval(^src)
	}
}

// row returns row i as a window capped at its own width, so a caller
// appending to it reallocates instead of overwriting row i+1.
func (b *rowBlock) row(i int) []Value {
	return b.vals[i*b.width : (i+1)*b.width : (i+1)*b.width]
}

// result applies DISTINCT, ORDER BY and LIMIT to the block's n rows —
// all three only pick and permute row numbers, no cell moves — and
// windows the survivors into a Result.
func (b *rowBlock) result(n int, s *sqlparser.SelectStmt, p *plan, ev *evaluator) (*Result, error) {
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
	lo, hi, err := ev.limitRange(p, n)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: p.names}
	if lo < n || p.limitCount == noExpr {
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
// of tables and derived tables — leaving its layout in p (the level's
// own frame points there) and each ON clause bound in p's arena.
func (ev *evaluator) buildRowSource(from []sqlparser.TableRef, p *plan) ([][]Value, error) {
	if len(from) == 0 {
		// SELECT without FROM: one empty row.
		return [][]Value{{}}, nil
	}
	// A derived table sees the enclosing levels only; the cap keeps its
	// frame from landing on this level's.
	outer := ev.frames[: len(ev.frames)-1 : len(ev.frames)-1]
	var rows [][]Value
	for i, ref := range from {
		name, cols, tblRows, err := ev.db.resolveTableRef(ref, outer, ev.args)
		if err != nil {
			return nil, err
		}
		p.addSource(name, cols)
		if i == 0 {
			rows = tblRows
			continue
		}
		on := p.bind(ref.On, ev.frames)
		ev.nodes = p.nodes
		joined := make([][]Value, 0, len(rows))
		width := len(cols)
		for _, left := range rows {
			matched := false
			for _, right := range tblRows {
				combined := make([]Value, 0, len(left)+width)
				combined = append(combined, left...)
				combined = append(combined, right...)
				if on != noExpr {
					ev.setRow(combined)
					v, err := ev.eval(on)
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
func (db *DB) resolveTableRef(ref sqlparser.TableRef, outer []frame, args []Value) (string, []string, [][]Value, error) {
	if ref.Subquery != nil {
		res, err := db.execSelect(ref.Subquery, outer, nil, args)
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

// Sort key classes: what comparing two non-NULL keys of one ORDER BY
// item takes, decided once per sort from the kinds the item's keys have.
const (
	keysMixed   = iota // strings beside other kinds, or a NaN: Compare decides per pair
	keysText           // strings only: byte order of S
	keysNumeric        // no string: numeric order of F, which sortByKeys fills in
)

// sortByKeys stably sorts row numbers, ascending on entry, by their keys
// (row i's are keys[i*len(orderBy):]) under the ORDER BY directions, so
// ties keep insertion order like MySQL's filesort on equal keys. It
// agrees with Compare on every pair: Compare orders two strings as
// strings and any other pair by AsFloat, so an item whose keys are all
// strings, or none, compares one field. keys is scratch: a key's numeric
// value is left in its F.
func sortByKeys(order []int, keys []Value, orderBy []sqlparser.OrderItem) {
	nk := len(orderBy)
	var classBuf [4]uint8
	class := append(classBuf[:0], make([]uint8, nk)...)
	total := true // every item orders its keys totally
	for i := range class {
		text, other, nan := false, false, false
		for k := i; k < len(keys); k += nk {
			if v := &keys[k]; v.Kind == KindString {
				text = true
			} else if v.Kind != KindNull {
				v.F = v.AsFloat()
				other, nan = true, nan || v.F != v.F
			}
		}
		switch {
		case !text && !nan:
			class[i] = keysNumeric
		case !other:
			class[i] = keysText
		default:
			total = false
		}
	}
	cmp := func(a, b int) int {
		for i, cl := range class {
			va, vb := &keys[a*nk+i], &keys[b*nk+i]
			c := 0
			// NULLs sort first ascending, last descending (MySQL).
			switch {
			case va.Kind == KindNull || vb.Kind == KindNull:
				if va.Kind != vb.Kind {
					c = 1
					if va.Kind == KindNull {
						c = -1
					}
				}
			case cl == keysText:
				c = strings.Compare(va.S, vb.S)
			case cl == keysMixed:
				c, _ = Compare(*va, *vb)
			case va.F < vb.F:
				c = -1
			case va.F > vb.F:
				c = 1
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
	}
	if !total { // not transitive: only the same algorithm arrives at the same order
		slices.SortStableFunc(order, cmp)
		return
	}
	// A total order has exactly one stable arrangement, and with the row
	// number as the last key an unstable sort finds it, faster.
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp(a, b); c != 0 {
			return c
		}
		return a - b
	})
}

// limitRange returns the half-open range of n rows that LIMIT/OFFSET
// keeps. The clause may hold any primary expression, a subquery included,
// so it is evaluated per execution, rowless.
func (ev *evaluator) limitRange(p *plan, n int) (lo, hi int, err error) {
	if p.limitCount == noExpr {
		return 0, n, nil
	}
	bare := ev.rowless()
	if p.limitOffset != noExpr {
		v, err := bare.eval(p.limitOffset)
		if err != nil {
			return 0, 0, err
		}
		lo = max(int(v.AsInt()), 0)
	}
	count, err := bare.eval(p.limitCount)
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
func (ev *evaluator) execAggregate(s *sqlparser.SelectStmt, p *plan, rows [][]Value) (*Result, error) {
	// groups lists each group's rows in first-seen order. Without GROUP BY
	// all rows are one group, which yields a row even when it is empty
	// (COUNT(*) = 0); GROUP BY makes no empty groups.
	groups := [][][]Value{rows}
	if len(s.GroupBy) > 0 {
		groups = groups[:0]
		index := make(map[string]int)
		var sig []byte
		for _, row := range rows {
			ev.setRow(row)
			sig = sig[:0]
			for i := range s.GroupBy {
				v, err := ev.eval(p.groupBy + int32(i))
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

	b := newRowBlock(len(groups), p, s)
	n := 0
	for _, g := range groups {
		if p.having != noExpr {
			v, err := ev.evalGroup(p.having, g)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !v.AsBool() {
				continue
			}
		}
		var first []Value // a plain column reads the group's first row
		if len(g) > 0 {
			first = g[0]
		}
		if err := ev.addRow(&b, p, first, g); err != nil {
			return nil, err
		}
		n++
	}
	return b.result(n, s, p, ev)
}

// evalGroup evaluates a node over a group of rows: aggregate calls
// consume the whole group; everything else is evaluated on the first row
// (MySQL's permissive ONLY_FULL_GROUP_BY-off behaviour).
func (ev *evaluator) evalGroup(i int32, rows [][]Value) (Value, error) {
	n := &ev.nodes[i]
	if n.op == opAgg {
		return ev.aggregate(n, rows)
	}
	if n.op == opFail {
		return Value{}, n.err
	}
	if n.op != opFunc && n.op != opNot && n.op != opNeg && (n.op < opAnd || n.op > opMod) {
		if len(rows) == 0 {
			return Null(), nil
		}
		ev.setRow(rows[0])
		return ev.eval(i)
	}
	// Functions and operators: their operands may hold the aggregates.
	var buf [4]Value
	args := buf[:0]
	for k := n.kid; k < n.kid+n.n; k++ {
		v, err := ev.evalGroup(k, rows)
		if err != nil {
			return Value{}, err
		}
		args = append(args, v)
	}
	switch {
	case n.err != nil:
		return Value{}, n.err
	case n.op == opFunc:
		return ev.callScalar(n.val.S, args)
	case n.op == opNot || n.op == opNeg:
		return applyUnary(n.op, args[0]), nil
	default:
		return n.apply(&args[0], &args[1]), nil
	}
}

func (ev *evaluator) aggregate(n *bexpr, rows [][]Value) (Value, error) {
	name := n.val.S
	if name == "COUNT" && n.flags&flagStar != 0 {
		return Int(int64(len(rows))), nil
	}
	if n.n != 1 {
		return Value{}, fmt.Errorf("%s expects one argument", name)
	}
	values := make([]Value, 0, len(rows))
	var seen map[string]struct{}
	var sig []byte
	if n.flags&flagDistinct != 0 {
		seen = make(map[string]struct{})
	}
	for _, row := range rows {
		ev.setRow(row)
		v, err := ev.eval(n.kid)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			continue
		}
		if seen != nil {
			sig = appendSig(sig[:0], v)
			if _, dup := seen[string(sig)]; dup {
				continue
			}
			seen[string(sig)] = struct{}{}
		}
		values = append(values, v)
	}
	switch {
	case name == "COUNT":
		return Int(int64(len(values))), nil
	case len(values) == 0 && name != "GROUP_CONCAT":
		return Null(), nil
	case name == "SUM":
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
	case name == "AVG":
		var sum float64
		for _, v := range values {
			sum += v.AsFloat()
		}
		return Float(sum / float64(len(values))), nil
	case name == "MIN":
		return extremum(values, -1)
	case name == "MAX":
		return extremum(values, 1)
	case name == "GROUP_CONCAT":
		parts := make([]string, 0, len(values))
		for _, v := range values {
			parts = append(parts, v.String())
		}
		return Str(strings.Join(parts, ",")), nil
	default:
		return Value{}, fmt.Errorf("unknown aggregate %s", name)
	}
}
