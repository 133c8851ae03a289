package engine

import (
	"fmt"
	"strings"

	"github.com/septic-db/septic/internal/sqlparser"
)

// execInsert runs an INSERT under the caller-held write lock.
func (db *DB) execInsert(s *sqlparser.InsertStmt) (*Result, error) {
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
	if s.Select != nil {
		res, err := db.execSelect(s.Select, nil, nil)
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
		ev := evaluator{db: db}
		for _, row := range s.Rows {
			tuple := make([]Value, 0, len(row))
			for _, e := range row {
				v, err := ev.eval(e, &noScope)
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
		if err := t.checkUnique(newRow, -1); err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, newRow)
		t.indexInsert(newRow)
		res.Affected++
	}
	return res, nil
}

// checkUnique verifies the candidate row violates no UNIQUE constraint.
// skip is a row index to ignore (the row being updated), or -1. Indexed
// columns answer in O(1); a missing index (never expected, but cheap to
// tolerate) falls back to a scan.
func (t *Table) checkUnique(candidate []Value, skip int) error {
	for ci, col := range t.Columns {
		if !col.Unique || candidate[ci].IsNull() {
			continue
		}
		if ri, indexed := t.lookupUnique(ci, candidate[ci]); indexed {
			if ri >= 0 && ri != skip {
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

// execUpdate runs an UPDATE under the caller-held write lock.
func (db *DB) execUpdate(s *sqlparser.UpdateStmt) (*Result, error) {
	t := db.tables[strings.ToLower(s.Table)]
	if t == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	ev := evaluator{db: db}
	sc := &scope{layout: t.layout}

	targets, err := db.dmlTargets(t, s.Where, s.OrderBy, s.Limit, sc, ev)
	if err != nil {
		return nil, err
	}

	setIdx := make([]int, len(s.Sets))
	for i, a := range s.Sets {
		idx := t.colIndex(a.Column)
		if idx < 0 {
			return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, s.Table, a.Column)
		}
		setIdx[i] = idx
	}

	res := &Result{}
	for _, ri := range targets {
		sc.row = t.Rows[ri]
		updated := make([]Value, len(t.Rows[ri]))
		copy(updated, t.Rows[ri])
		changed := false
		for i, a := range s.Sets {
			v, err := ev.eval(a.Value, sc)
			if err != nil {
				return nil, err
			}
			cv, err := t.Columns[setIdx[i]].coerce(v)
			if err != nil {
				return nil, err
			}
			if !sameValue(updated[setIdx[i]], cv) {
				changed = true
			}
			updated[setIdx[i]] = cv
		}
		if !changed {
			continue
		}
		if err := t.checkUnique(updated, ri); err != nil {
			return nil, err
		}
		old := t.Rows[ri]
		t.Rows[ri] = updated
		t.indexUpdate(ri, old, updated)
		res.Affected++
	}
	return res, nil
}

// execDelete runs a DELETE under the caller-held write lock.
func (db *DB) execDelete(s *sqlparser.DeleteStmt) (*Result, error) {
	t := db.tables[strings.ToLower(s.Table)]
	if t == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, s.Table)
	}
	ev := evaluator{db: db}
	sc := &scope{layout: t.layout}

	targets, err := db.dmlTargets(t, s.Where, s.OrderBy, s.Limit, sc, ev)
	if err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return &Result{}, nil
	}
	doomed := make(map[int]bool, len(targets))
	for _, ri := range targets {
		doomed[ri] = true
	}
	kept := t.Rows[:0]
	for ri, row := range t.Rows {
		if !doomed[ri] {
			kept = append(kept, row)
		}
	}
	t.Rows = kept
	// Row positions shifted: the unique indexes must be rebuilt.
	t.rebuildIndexes()
	return &Result{Affected: int64(len(targets))}, nil
}

// dmlTargets returns the indices of rows selected by WHERE, ordered by
// ORDER BY and truncated by LIMIT (MySQL supports both on UPDATE/DELETE).
func (db *DB) dmlTargets(t *Table, where sqlparser.Expr, orderBy []sqlparser.OrderItem,
	limit *sqlparser.Limit, sc *scope, ev evaluator) ([]int, error) {
	var targets []int
	for ri, row := range t.Rows {
		if where != nil {
			sc.row = row
			v, err := ev.eval(where, sc)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !v.AsBool() {
				continue
			}
		}
		targets = append(targets, ri)
	}
	if len(orderBy) > 0 {
		keys := make([]Value, 0, len(targets)*len(orderBy))
		order := make([]int, len(targets))
		for i, ri := range targets {
			order[i] = i
			sc.row = t.Rows[ri]
			for _, o := range orderBy {
				v, err := ev.eval(o.Expr, sc)
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
	if limit != nil {
		count, err := ev.eval(limit.Count, &noScope)
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
// affected rows the way MySQL does: unchanged rows are not counted).
func sameValue(a, b Value) bool {
	if a.IsNull() && b.IsNull() {
		return true
	}
	if a.IsNull() != b.IsNull() {
		return false
	}
	return a.Kind == b.Kind && a.String() == b.String()
}
