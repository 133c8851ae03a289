package engine

import "sort"

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
// owning table's write lock; DELETE shifts the positions of the rows
// behind the ones it removes in place (deleteRows).
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

// indexFind looks v's key up without building the key string.
func indexFind(idx map[string]int, v Value) (int, bool) {
	if v.Kind == KindString {
		ri, ok := idx[v.S]
		return ri, ok
	}
	var buf [24]byte
	ri, ok := idx[string(v.appendText(buf[:0]))]
	return ri, ok
}

// rebuildIndexes (re)creates the hash index of every unique column.
// Called at table creation; the tests hold every DML operation's
// incremental maintenance to it.
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

// deleteRows removes the rows at the given positions, sorted ascending,
// compacting Rows in one pass. The unique indexes follow without a key
// being formatted: the doomed rows' entries go, and unless the doomed
// rows were the table's last, every entry behind the first of them moves
// up by the number of doomed rows before it.
func (t *Table) deleteRows(doomed []int) {
	first := doomed[0]
	last := first+len(doomed) == len(t.Rows)
	for ci, idx := range t.indexes {
		for _, ri := range doomed {
			if v := t.Rows[ri][ci]; v.Kind == KindString {
				delete(idx, v.S)
			} else if !v.IsNull() {
				var buf [24]byte
				delete(idx, string(v.appendText(buf[:0])))
			}
		}
		if last {
			continue
		}
		for key, ri := range idx {
			if ri > first {
				idx[key] = ri - sort.SearchInts(doomed, ri)
			}
		}
	}
	kept, next := t.Rows[:first], 1
	for ri := first + 1; ri < len(t.Rows); ri++ {
		if next < len(doomed) && doomed[next] == ri {
			next++
			continue
		}
		kept = append(kept, t.Rows[ri])
	}
	clear(t.Rows[len(kept):]) // let go of the rows
	t.Rows = kept
}
