package engine

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/septic-db/septic/internal/sqlparser"
)

// execInsert runs an INSERT under the caller-held write lock.
func (db *DB) execInsert(s *sqlparser.InsertStmt, args []Value) (*Result, error) {
	t := db.tables[strings.ToLower(s.Table)]
	if t == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}

	// Map the statement's column list to table column indices.
	var colIdx []int
	if len(s.Columns) == 0 {
		colIdx = make([]int, len(t.Columns))
		for i := range t.Columns {
			colIdx[i] = i
		}
	} else {
		colIdx = make([]int, len(s.Columns))
		for i, name := range s.Columns {
			idx := t.colIndex(name)
			if idx < 0 {
				return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, s.Table, name)
			}
			colIdx[i] = idx
		}
	}

	var tuples [][]Value
	var frameBuf [4]frame // for the subqueries of the statement, which has no row of its own
	if s.Select != nil {
		res, err := db.execSelect(s.Select, frameBuf[:0], nil, args)
		if err != nil {
			return nil, err
		}
		for _, r := range res.Rows {
			if len(r) != len(colIdx) {
				return nil, fmt.Errorf("INSERT..SELECT returned %d columns, want %d",
					len(r), len(colIdx))
			}
			tuples = append(tuples, r)
		}
	} else {
		var b binder // of the VALUES that are neither plain literals nor bound arguments
		for _, row := range s.Rows {
			tuple := make([]Value, 0, len(row))
			for _, e := range row {
				switch x := e.(type) {
				case *sqlparser.Literal:
					tuple = append(tuple, LiteralValue(x))
					continue
				case *sqlparser.Placeholder:
					if x.Index < len(args) {
						tuple = append(tuple, args[x.Index])
						continue
					}
				}
				at := b.bind(e, nil)
				ev := evaluator{db: db, nodes: b.nodes, frames: frameBuf[:0], args: args}
				v, err := ev.eval(at)
				if err != nil {
					return nil, err
				}
				tuple = append(tuple, v)
			}
			tuples = append(tuples, tuple)
		}
	}

	res := &Result{}
	for _, tuple := range tuples {
		newRow := make([]Value, len(t.Columns))
		assigned := make([]bool, len(t.Columns))
		for i, idx := range colIdx {
			v, err := t.Columns[idx].coerce(tuple[i])
			if err != nil {
				return nil, err
			}
			newRow[idx] = v
			assigned[idx] = true
		}
		for i := range t.Columns {
			if assigned[i] {
				continue
			}
			col := &t.Columns[i]
			switch {
			case col.AutoIncrement:
				newRow[i] = Int(t.nextAuto)
				t.nextAuto++
				res.LastInsertID = newRow[i].I
			case col.Default != nil:
				newRow[i] = *col.Default
			case col.NotNull:
				return nil, fmt.Errorf("column %q has no default and cannot be null", col.Name)
			default:
				newRow[i] = Null()
			}
		}
		// Track explicit values into AUTO_INCREMENT columns so the
		// counter never hands out a duplicate.
		for i := range t.Columns {
			if t.Columns[i].AutoIncrement && assigned[i] && newRow[i].Kind == KindInt && newRow[i].I >= t.nextAuto {
				t.nextAuto = newRow[i].I + 1
			}
		}
		if err := t.checkUnique(newRow, nil, -1); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, newRow)
		t.indexInsert(newRow)
		res.Affected++
	}
	return res, nil
}

// checkUnique verifies the candidate row violates no UNIQUE constraint.
// For an UPDATE, old is the row being replaced and skip its position: a
// column whose value did not change cannot newly collide and is not
// probed. An INSERT passes nil and -1. Indexed columns answer in O(1); a
// missing index (never expected, but cheap to tolerate) falls back to a
// scan.
func (t *Table) checkUnique(candidate, old []Value, skip int) error {
	for ci, col := range t.Columns {
		if !col.Unique || candidate[ci].IsNull() || (old != nil && sameValue(old[ci], candidate[ci])) {
			continue
		}
		if idx, indexed := t.indexes[ci]; indexed { // candidate is coerced: its text is its key
			if ri, found := indexFind(idx, candidate[ci]); found && ri != skip {
				return fmt.Errorf("%w %q for column %q", ErrDuplicate,
					candidate[ci].String(), col.Name)
			}
			continue
		}
		for ri, row := range t.Rows {
			if ri == skip {
				continue
			}
			if Equal(row[ci], candidate[ci]) {
				return fmt.Errorf("%w %q for column %q", ErrDuplicate,
					candidate[ci].String(), col.Name)
			}
		}
	}
	return nil
}

// execUpdate runs an UPDATE off its plan under the caller-held write
// lock. frames is empty: the statement's own row is the outermost level.
func (db *DB) execUpdate(s *sqlparser.UpdateStmt, p *plan, frames []frame, args []Value) (*Result, error) {
	t := p.table
	if t == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	ev := evaluator{db: db, nodes: p.nodes, frames: append(frames, frame{layout: &p.layout}), args: args}
	var one [1]int
	targets, err := ev.dmlTargets(p, s.OrderBy, one[:0])
	if err != nil {
		return nil, err
	}
	for i, ci := range p.cols {
		if ci < 0 {
			return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, s.Table, s.Sets[i].Column)
		}
	}

	res := &Result{}
	for _, ri := range targets {
		old := t.Rows[ri]
		ev.setRow(old)
		updated := make([]Value, len(old))
		copy(updated, old)
		changed := false
		for i, ci := range p.cols {
			v, err := ev.eval(p.sets + int32(i))
			if err != nil {
				return nil, err
			}
			cv, err := t.Columns[ci].coerce(v)
			if err != nil {
				return nil, err
			}
			if !sameValue(updated[ci], cv) {
				changed = true
			}
			updated[ci] = cv
		}
		if !changed {
			continue
		}
		if err := t.checkUnique(updated, old, ri); err != nil {
			return nil, err
		}
		t.Rows[ri] = updated
		t.indexUpdate(ri, old, updated)
		res.Affected++
	}
	return res, nil
}

// execDelete runs a DELETE off its plan under the caller-held write lock.
func (db *DB) execDelete(s *sqlparser.DeleteStmt, p *plan, frames []frame, args []Value) (*Result, error) {
	t := p.table
	if t == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	ev := evaluator{db: db, nodes: p.nodes, frames: append(frames, frame{layout: &p.layout}), args: args}
	var one [1]int
	targets, err := ev.dmlTargets(p, s.OrderBy, one[:0])
	if err != nil {
		return nil, err
	}
	if len(targets) > 0 {
		slices.Sort(targets)
		t.deleteRows(targets)
	}
	return &Result{Affected: int64(len(targets))}, nil
}

// dmlTargets returns the positions of the rows the plan's access path and
// WHERE clause select — the select's probe and the select's scan — ordered
// by ORDER BY and truncated by LIMIT (MySQL supports both on
// UPDATE/DELETE). buf is room for a probe's one hit.
func (ev *evaluator) dmlTargets(p *plan, orderBy []sqlparser.OrderItem, buf []int) ([]int, error) {
	t := p.table
	var targets []int
	if ri, found, answered := p.probe(ev.args); !answered {
		var err error
		if targets, err = filterRows(ev, p.where, t.Rows, keepPos); err != nil {
			return nil, err
		}
	} else if found {
		targets = append(buf, ri)
	}
	if len(orderBy) > 0 {
		keys := make([]Value, 0, len(targets)*len(orderBy))
		order := make([]int, len(targets))
		for i, ri := range targets {
			order[i] = i
			ev.setRow(t.Rows[ri])
			for _, pos := range p.orderPos {
				v, err := ev.eval(^pos)
				if err != nil {
					return nil, err
				}
				keys = append(keys, v)
			}
		}
		sortByKeys(order, keys, orderBy)
		for i, j := range order {
			order[i] = targets[j]
		}
		targets = order
	}
	if p.limitCount != noExpr {
		bare := ev.rowless()
		count, err := bare.eval(p.limitCount)
		if err != nil {
			return nil, err
		}
		n := int(count.AsInt())
		if n >= 0 && n < len(targets) {
			targets = targets[:n]
		}
	}
	return targets, nil
}

// sameValue reports strict equality including NULL==NULL (used to count
// affected rows the way MySQL does: unchanged rows are not counted). Two
// values are the same when their kinds and their texts are: every NaN
// with every NaN, 0 apart from -0.
func sameValue(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindInt:
		return a.I == b.I
	case KindFloat:
		return (a.F == b.F && math.Signbit(a.F) == math.Signbit(b.F)) || (a.F != a.F && b.F != b.F)
	case KindString:
		return a.S == b.S
	case KindBool:
		return a.B == b.B
	default:
		return true
	}
}
