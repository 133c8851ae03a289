package engine

import (
	"strings"

	"github.com/septic-db/septic/internal/sqlparser"
)

// Lock planning.
//
// The engine's concurrency is two-level: a catalog RWMutex guards the
// name → *Table map (DDL takes it exclusively; every other statement
// shares it), and each Table carries its own RWMutex guarding rows,
// indexes and the AUTO_INCREMENT counter. Before executing, a statement
// is walked once to collect every table it can touch — including tables
// reached only through subqueries in any clause — and the per-table
// locks are acquired in sorted name order (write before read for a
// table in both sets). The global order makes deadlock impossible; the
// split makes writes to one table invisible to readers of another. The
// set depends on the statement text alone, so a SELECT's is computed
// once per text and kept in its plan (plan.go); DML computes its own,
// allocation-free, per execution.

// lockSet is one statement's table-lock plan: deduplicated lowercase
// table names with a write flag each, sorted before acquisition. The
// inline buffers cover typical statements (≤4 tables) so planning a
// point query allocates nothing; wider statements spill to the heap
// transparently via append.
type lockSet struct {
	names  []string
	writes []bool

	nameBuf  [4]string
	writeBuf [4]bool
}

func (ls *lockSet) init() {
	ls.names = ls.nameBuf[:0]
	ls.writes = ls.writeBuf[:0]
}

// add records that the statement touches name. A table both read and
// written keeps the write flag: a write lock already grants reads.
func (ls *lockSet) add(name string, write bool) {
	name = strings.ToLower(name)
	for i, n := range ls.names {
		if n == name {
			ls.writes[i] = ls.writes[i] || write
			return
		}
	}
	ls.names = append(ls.names, name)
	ls.writes = append(ls.writes, write)
}

// sort orders the plan by table name — the global acquisition order that
// makes deadlock impossible. Insertion sort: the sets are tiny.
func (ls *lockSet) sort() {
	for i := 1; i < len(ls.names); i++ {
		for j := i; j > 0 && ls.names[j] < ls.names[j-1]; j-- {
			ls.names[j], ls.names[j-1] = ls.names[j-1], ls.names[j]
			ls.writes[j], ls.writes[j-1] = ls.writes[j-1], ls.writes[j]
		}
	}
}

// collectTables fills ls with every table the statement can touch,
// including tables reached only through subqueries in any clause.
func collectTables(ls *lockSet, stmt sqlparser.Statement) {
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		ls.fromNames(s)
	case *sqlparser.InsertStmt:
		ls.add(s.Table, true)
		if s.Select != nil {
			ls.fromNames(s.Select)
		}
	case *sqlparser.UpdateStmt:
		ls.add(s.Table, true)
	case *sqlparser.DeleteStmt:
		ls.add(s.Table, true)
	case *sqlparser.DescribeStmt:
		ls.add(s.Table, false)
	case *sqlparser.ExplainStmt:
		ls.fromNames(s.Select)
		ls.walkSubqueries(s.Select)
		ls.sort()
		return
	}
	ls.walkSubqueries(stmt)
	ls.sort()
}

// fromNames gathers the FROM tables of a select, descending into derived
// tables and UNION branches. Subqueries in expression position are found
// separately by walkSubqueries.
func (ls *lockSet) fromNames(s *sqlparser.SelectStmt) {
	for _, ref := range s.From {
		if ref.Subquery != nil {
			ls.fromNames(ref.Subquery)
			continue
		}
		ls.add(ref.Name, false)
	}
	if s.Union != nil {
		ls.fromNames(s.Union.Next)
	}
}

// walkSubqueries visits every expression of the statement — WalkExprs
// descends into subqueries in all clauses at every nesting level — and
// records the FROM tables of each subquery it finds.
func (ls *lockSet) walkSubqueries(stmt sqlparser.Statement) {
	sqlparser.WalkExprs(stmt, func(e sqlparser.Expr) {
		switch x := e.(type) {
		case *sqlparser.SubqueryExpr:
			ls.fromNames(x.Select)
		case *sqlparser.ExistsExpr:
			ls.fromNames(x.Select)
		case *sqlparser.InExpr:
			if x.Subquery != nil {
				ls.fromNames(x.Subquery)
			}
		}
	})
}

// lockTables acquires the plan's per-table locks in global (sorted-name)
// order. Tables named by the statement but absent from the catalog are
// skipped — execution reports ErrNoSuchTable itself. Callers must hold
// the catalog read lock from before lockTables until after unlockTables,
// which keeps DDL out while any table lock is held (and keeps the name →
// *Table map stable so unlockTables resolves the same tables).
func (db *DB) lockTables(ls *lockSet) {
	for i, name := range ls.names {
		t, ok := db.tables[name]
		if !ok {
			continue
		}
		if ls.writes[i] {
			t.mu.Lock()
		} else {
			t.mu.RLock()
		}
	}
}

// unlockTables releases the plan's locks in reverse order.
func (db *DB) unlockTables(ls *lockSet) {
	for i := len(ls.names) - 1; i >= 0; i-- {
		t, ok := db.tables[ls.names[i]]
		if !ok {
			continue
		}
		if ls.writes[i] {
			t.mu.Unlock()
		} else {
			t.mu.RUnlock()
		}
	}
}
