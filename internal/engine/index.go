package engine

// Unique hash indexes.
//
// Every PRIMARY KEY / UNIQUE column gets a hash index mapping the
// column-coerced value to its row position. The index serves two hot
// paths:
//
//   - uniqueness checks on INSERT/UPDATE, which would otherwise scan the
//     table per write (quadratic over workload replays);
//   - single-table point SELECTs of the form "WHERE col = literal",
//     which resolve without a scan (the select plan's access path).
//
// Concurrency contract: indexes are created at CREATE TABLE and
// maintained eagerly by every DML operation, all of which run under the
// owning table's write lock; DELETE rebuilds them (row positions shift).
// Readers (SELECT, under the table read lock) only ever look maps up —
// they never build or mutate, so no additional synchronization is
// needed.

// indexKey normalizes a value for index lookup. Stored values are
// already coerced to the column type, and lookups coerce the probe the
// same way. A SELECT probes the index only when that is provably what a
// scan's weakly typed comparison would find ("id = '42'" matching 42
// is; "id = 1.5" is not) — accessPath in plan.go decides.
func indexKey(v Value) string {
	return v.String()
}

// rebuildIndexes (re)creates the hash index of every unique column.
// Called at table creation and after operations that shift row
// positions. Runs under the DB write lock.
func (t *Table) rebuildIndexes() {
	t.indexes = make(map[int]map[string]int)
	for ci, col := range t.Columns {
		if !col.Unique {
			continue
		}
		idx := make(map[string]int, len(t.Rows))
		for ri, row := range t.Rows {
			if row[ci].IsNull() {
				continue // SQL UNIQUE permits many NULLs
			}
			idx[indexKey(row[ci])] = ri
		}
		t.indexes[ci] = idx
	}
}

// indexInsert registers a newly appended row (position len(Rows)-1).
func (t *Table) indexInsert(row []Value) {
	for ci, idx := range t.indexes {
		if row[ci].IsNull() {
			continue
		}
		idx[indexKey(row[ci])] = len(t.Rows) - 1
	}
}

// indexUpdate moves an updated row's index entries.
func (t *Table) indexUpdate(ri int, old, updated []Value) {
	for ci, idx := range t.indexes {
		if sameValue(old[ci], updated[ci]) {
			continue
		}
		if !old[ci].IsNull() {
			delete(idx, indexKey(old[ci]))
		}
		if !updated[ci].IsNull() {
			idx[indexKey(updated[ci])] = ri
		}
	}
}

// lookupUnique finds the row position holding value in unique column ci.
// The second result distinguishes "not found" from "no index" — callers
// fall back to a scan when no index exists.
func (t *Table) lookupUnique(ci int, value Value) (int, bool) {
	idx, ok := t.indexes[ci]
	if !ok {
		return -1, false
	}
	coerced, err := t.Columns[ci].coerce(value)
	if err != nil || coerced.IsNull() {
		return -1, true
	}
	ri, found := idx[indexKey(coerced)]
	if !found {
		return -1, true
	}
	return ri, true
}
