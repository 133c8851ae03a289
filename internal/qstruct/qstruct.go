// Package qstruct implements SEPTIC's query representation: the query
// structure (QS) extracted from a validated statement, and the query model
// (QM) learned from it.
//
// The representation mirrors the stack of items MySQL builds while
// validating a query, as shown in Figs. 2–4 of the paper: each node is
// either an element node ⟨ELEM TYPE, ELEM DATA⟩ — a clause marker, field,
// function or operator — or a data node ⟨DATA TYPE, DATA⟩ carrying a
// literal value that (potentially) came from user input. A query model is
// the same stack with every data node's DATA replaced by the special
// value ⊥.
package qstruct

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"

	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/sqlparser"
)

// Category is the ELEM/DATA TYPE of a stack node. The names follow the
// MySQL item categories used in the paper (FIELD_ITEM, FUNC_ITEM,
// COND_ITEM, INT_ITEM, STRING_ITEM, SELECT_FIELD, FROM_TABLE, ...).
type Category int

// Node categories. Enums start at 1 so the zero value is invalid.
const (
	CatInvalid Category = iota

	// Element categories (structure; never attacker data).
	CatSelectField // SELECT_FIELD: one projection of a SELECT list
	CatFromTable   // FROM_TABLE: a table in FROM
	CatJoin        // JOIN_ITEM: join type marker
	CatField       // FIELD_ITEM: column reference
	CatFunc        // FUNC_ITEM: operator or function
	CatCond        // COND_ITEM: AND / OR / XOR / NOT
	CatOrder       // ORDER_ITEM
	CatGroup       // GROUP_ITEM
	CatHaving      // HAVING_ITEM
	CatLimit       // LIMIT_ITEM
	CatDistinct    // DISTINCT_ITEM
	CatUnion       // UNION_ITEM
	CatSubBegin    // SUBSELECT_BEGIN
	CatSubEnd      // SUBSELECT_END
	CatInsertTable // INSERT_TABLE
	CatInsertField // INSERT_FIELD: a column of an INSERT column list
	CatRowBegin    // ROW_ITEM: start of one VALUES tuple
	CatUpdateTable // UPDATE_TABLE
	CatSetField    // SET_FIELD: assigned column of an UPDATE
	CatDeleteTable // DELETE_TABLE
	CatDDL         // DDL_ITEM: CREATE/DROP/SHOW/DESCRIBE marker

	// Data categories (literal values; the QM blanks their data to ⊥).
	CatInt         // INT_ITEM
	CatReal        // REAL_ITEM
	CatString      // STRING_ITEM
	CatBool        // BOOL_ITEM
	CatNull        // NULL_ITEM
	CatPlaceholder // PARAM_ITEM: '?' marker
)

var categoryNames = map[Category]string{
	CatInvalid:     "INVALID",
	CatSelectField: "SELECT_FIELD",
	CatFromTable:   "FROM_TABLE",
	CatJoin:        "JOIN_ITEM",
	CatField:       "FIELD_ITEM",
	CatFunc:        "FUNC_ITEM",
	CatCond:        "COND_ITEM",
	CatOrder:       "ORDER_ITEM",
	CatGroup:       "GROUP_ITEM",
	CatHaving:      "HAVING_ITEM",
	CatLimit:       "LIMIT_ITEM",
	CatDistinct:    "DISTINCT_ITEM",
	CatUnion:       "UNION_ITEM",
	CatSubBegin:    "SUBSELECT_BEGIN",
	CatSubEnd:      "SUBSELECT_END",
	CatInsertTable: "INSERT_TABLE",
	CatInsertField: "INSERT_FIELD",
	CatRowBegin:    "ROW_ITEM",
	CatUpdateTable: "UPDATE_TABLE",
	CatSetField:    "SET_FIELD",
	CatDeleteTable: "DELETE_TABLE",
	CatDDL:         "DDL_ITEM",
	CatInt:         "INT_ITEM",
	CatReal:        "REAL_ITEM",
	CatString:      "STRING_ITEM",
	CatBool:        "BOOL_ITEM",
	CatNull:        "NULL_ITEM",
	CatPlaceholder: "PARAM_ITEM",
}

// String returns the paper-style category name.
func (c Category) String() string {
	if s, ok := categoryNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Category(%d)", int(c))
}

// IsData reports whether nodes of this category carry literal data that a
// query model must blank out (the ⟨DATA TYPE, DATA⟩ nodes of the paper).
func (c Category) IsData() bool {
	switch c {
	case CatInt, CatReal, CatString, CatBool, CatNull, CatPlaceholder:
		return true
	default:
		return false
	}
}

// Bottom is the special value a query model stores in place of literal
// data (the paper's ⊥).
const Bottom = "⊥"

// Node is one entry of a query structure or query model stack.
type Node struct {
	Cat Category `json:"cat"`
	// Data is the element data (field name, function name, operator,
	// table name) for element nodes, or the literal value rendered as a
	// string for data nodes. In a query model, data nodes hold Bottom.
	Data string `json:"data"`
}

// String renders the node the way the paper's figures do.
func (n Node) String() string {
	return fmt.Sprintf("%s %s", n.Cat, n.Data)
}

// Stack is a query structure: the flattened item stack of one statement.
// Index 0 is the bottom of the stack (the first clause pushed, e.g.
// FROM_TABLE for a SELECT), matching the bottom-to-top construction in
// the paper's Fig. 2.
type Stack []Node

// String renders the stack top-down, one node per line, as in Figs. 2–4.
func (s Stack) String() string {
	var b strings.Builder
	for i := len(s) - 1; i >= 0; i-- {
		b.WriteString(s[i].String())
		if i > 0 {
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Clone returns a deep copy of the stack.
func (s Stack) Clone() Stack {
	out := make(Stack, len(s))
	copy(out, s)
	return out
}

// DataNodes returns the indices of the data nodes in the stack.
func (s Stack) DataNodes() []int {
	var idx []int
	for i, n := range s {
		if n.Cat.IsData() {
			idx = append(idx, i)
		}
	}
	return idx
}

// StringData returns the values of all STRING_ITEM nodes, in stack order.
// The stored-injection plugins inspect these: they are the literal values
// an INSERT or UPDATE is about to write into the database.
func (s Stack) StringData() []string {
	var out []string
	for _, n := range s {
		if n.Cat == CatString {
			out = append(out, n.Data)
		}
	}
	return out
}

// Model is a learned query model: a stack whose data nodes are blanked.
type Model struct {
	Nodes Stack `json:"nodes"`
	// fp caches Fingerprint, computed once at ModelOf/Unmarshal time.
	// Models live in read-mostly shared sets, so the cache must be filled
	// before a model is published — Fingerprint itself never mutates.
	fp uint64
}

// ModelOf derives the query model from a query structure by replacing the
// DATA of every data node with ⊥ (paper §II-C1).
func ModelOf(qs Stack) Model {
	nodes := qs.Clone()
	for i := range nodes {
		if nodes[i].Cat.IsData() {
			nodes[i].Data = Bottom
		}
	}
	return Model{Nodes: nodes, fp: fingerprintOf(nodes)}
}

// String renders the model top-down like a stack.
func (m Model) String() string { return m.Nodes.String() }

// Fingerprint returns a stable 64-bit hash of the model, used for
// persistence integrity checks and ablation benchmarks. Models built by
// ModelOf or decoded from JSON answer from a precomputed cache.
func (m Model) Fingerprint() uint64 {
	if m.fp != 0 {
		return m.fp
	}
	return fingerprintOf(m.Nodes)
}

// UnmarshalJSON decodes the persisted form and seals the fingerprint
// cache, so loaded models are as cheap to re-fingerprint (Store.Save,
// Store.Put dedup) as freshly learned ones.
func (m *Model) UnmarshalJSON(data []byte) error {
	var aux struct {
		Nodes Stack `json:"nodes"`
	}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	m.Nodes = aux.Nodes
	m.fp = fingerprintOf(aux.Nodes)
	return nil
}

func fingerprintOf(nodes Stack) uint64 {
	h := fnv.New64a()
	for _, n := range nodes {
		_, _ = fmt.Fprintf(h, "%d\x00%s\x00", n.Cat, n.Data)
	}
	return h.Sum64()
}

// BuildStack flattens a validated statement into its query structure.
// args are the values one execution binds to the statement's '?'
// placeholders (engine.HookContext.Args): a placeholder pushes the data
// node the literal of its value would, so a prepared statement and the
// text with the values written out have one structure and one model. A
// placeholder with no argument — a statement looked at outside an
// execution — pushes a PARAM_ITEM.
//
// Construction runs in a pooled scratch buffer and the result is copied
// out at exactly the built size: one right-sized allocation per call
// instead of a geometric append-growth chain.
func BuildStack(stmt sqlparser.Statement, args ...engine.Value) Stack {
	sp := scratchPool.Get().(*Stack)
	scratch := BuildStackInto(*sp, stmt, args...)
	out := make(Stack, len(scratch))
	copy(out, scratch)
	*sp = scratch[:0]
	scratchPool.Put(sp)
	return out
}

// BuildStackInto flattens stmt into buf[:0], growing the buffer only when
// the statement outgrows it, and returns the filled stack. Hot paths that
// use the stack transiently (the detection pipeline) pass a pooled buffer
// so steady-state QS construction allocates nothing; the returned stack
// aliases buf and must not outlive the caller's ownership of it.
func BuildStackInto(buf Stack, stmt sqlparser.Statement, args ...engine.Value) Stack {
	b := stackBuilder{nodes: buf[:0], args: args}
	b.statement(stmt)
	return b.nodes
}

// scratchPool recycles BuildStack's construction buffers.
var scratchPool = sync.Pool{New: func() any {
	s := make(Stack, 0, 64)
	return &s
}}

type stackBuilder struct {
	nodes Stack
	args  []engine.Value
}

func (b *stackBuilder) push(cat Category, data string) {
	b.nodes = append(b.nodes, Node{Cat: cat, Data: data})
}

func (b *stackBuilder) statement(stmt sqlparser.Statement) {
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		b.selectStmt(s)
	case *sqlparser.InsertStmt:
		b.insertStmt(s)
	case *sqlparser.UpdateStmt:
		b.updateStmt(s)
	case *sqlparser.DeleteStmt:
		b.deleteStmt(s)
	case *sqlparser.CreateTableStmt:
		b.push(CatDDL, "CREATE TABLE "+s.Table)
	case *sqlparser.DropTableStmt:
		b.push(CatDDL, "DROP TABLE "+s.Table)
	case *sqlparser.ShowTablesStmt:
		b.push(CatDDL, "SHOW TABLES")
	case *sqlparser.DescribeStmt:
		b.push(CatDDL, "DESCRIBE "+s.Table)
	case *sqlparser.ExplainStmt:
		b.push(CatDDL, "EXPLAIN")
		b.selectStmt(s.Select)
	}
}

func (b *stackBuilder) selectStmt(s *sqlparser.SelectStmt) {
	// Bottom-up, as in Fig. 2: FROM tables first, then the SELECT list,
	// then WHERE, GROUP BY, HAVING, ORDER BY, LIMIT, UNION.
	for _, t := range s.From {
		if t.Join != "" && t.Join != "CROSS" {
			b.push(CatJoin, t.Join+" JOIN")
		}
		if t.Subquery != nil {
			b.push(CatSubBegin, "derived")
			b.selectStmt(t.Subquery)
			b.push(CatSubEnd, "derived")
		} else {
			b.push(CatFromTable, t.Name)
		}
		if t.On != nil {
			b.expr(t.On)
		}
	}
	if s.Distinct {
		b.push(CatDistinct, "DISTINCT")
	}
	for _, f := range s.Fields {
		switch {
		case f.Star:
			b.push(CatSelectField, "*")
		case f.TableStar != "":
			b.push(CatSelectField, f.TableStar+".*")
		default:
			if col, ok := f.Expr.(*sqlparser.ColumnRef); ok {
				b.push(CatSelectField, columnName(col))
			} else {
				// Computed projection: mark the slot, then push the
				// expression items so structure changes are visible.
				b.push(CatSelectField, "expr")
				b.expr(f.Expr)
			}
		}
	}
	if s.Where != nil {
		b.expr(s.Where)
	}
	for _, g := range s.GroupBy {
		b.push(CatGroup, "GROUP BY")
		b.expr(g)
	}
	if s.Having != nil {
		b.push(CatHaving, "HAVING")
		b.expr(s.Having)
	}
	for _, o := range s.OrderBy {
		dir := "ASC"
		if o.Desc {
			dir = "DESC"
		}
		b.push(CatOrder, dir)
		b.expr(o.Expr)
	}
	if s.Limit != nil {
		b.push(CatLimit, "LIMIT")
		b.expr(s.Limit.Count)
		if s.Limit.Offset != nil {
			b.push(CatLimit, "OFFSET")
			b.expr(s.Limit.Offset)
		}
	}
	if s.Union != nil {
		kind := "UNION"
		if s.Union.All {
			kind = "UNION ALL"
		}
		b.push(CatUnion, kind)
		b.selectStmt(s.Union.Next)
	}
}

func (b *stackBuilder) insertStmt(s *sqlparser.InsertStmt) {
	b.push(CatInsertTable, s.Table)
	for _, c := range s.Columns {
		b.push(CatInsertField, c)
	}
	if s.Select != nil {
		b.push(CatSubBegin, "insert-select")
		b.selectStmt(s.Select)
		b.push(CatSubEnd, "insert-select")
		return
	}
	for _, row := range s.Rows {
		b.push(CatRowBegin, "VALUES")
		for _, e := range row {
			b.expr(e)
		}
	}
}

func (b *stackBuilder) updateStmt(s *sqlparser.UpdateStmt) {
	b.push(CatUpdateTable, s.Table)
	for _, a := range s.Sets {
		b.push(CatSetField, a.Column)
		b.expr(a.Value)
	}
	if s.Where != nil {
		b.expr(s.Where)
	}
	b.orderLimit(s.OrderBy, s.Limit)
}

func (b *stackBuilder) deleteStmt(s *sqlparser.DeleteStmt) {
	b.push(CatDeleteTable, s.Table)
	if s.Where != nil {
		b.expr(s.Where)
	}
	b.orderLimit(s.OrderBy, s.Limit)
}

func (b *stackBuilder) orderLimit(orderBy []sqlparser.OrderItem, limit *sqlparser.Limit) {
	for _, o := range orderBy {
		dir := "ASC"
		if o.Desc {
			dir = "DESC"
		}
		b.push(CatOrder, dir)
		b.expr(o.Expr)
	}
	if limit != nil {
		b.push(CatLimit, "LIMIT")
		b.expr(limit.Count)
		if limit.Offset != nil {
			b.push(CatLimit, "OFFSET")
			b.expr(limit.Offset)
		}
	}
}

// expr pushes an expression in post-order (operands before operator),
// matching the bottom-up item order of the paper's figures: for
// "reservID = 'ID34FG'" the stack gains FIELD_ITEM reservID,
// STRING_ITEM ID34FG, FUNC_ITEM =.
func (b *stackBuilder) expr(e sqlparser.Expr) {
	switch x := e.(type) {
	case *sqlparser.Literal:
		b.value(engine.LiteralValue(x))
	case *sqlparser.ColumnRef:
		b.push(CatField, columnName(x))
	case *sqlparser.BinaryExpr:
		b.expr(x.Left)
		b.expr(x.Right)
		switch x.Op {
		case "AND", "OR", "XOR":
			b.push(CatCond, x.Op)
		default:
			b.push(CatFunc, x.Op)
		}
	case *sqlparser.UnaryExpr:
		b.expr(x.Operand)
		if x.Op == "NOT" {
			b.push(CatCond, "NOT")
		} else {
			b.push(CatFunc, x.Op)
		}
	case *sqlparser.FuncCall:
		for _, a := range x.Args {
			b.expr(a)
		}
		name := x.Name
		if x.Star {
			name += "(*)"
		}
		b.push(CatFunc, name)
	case *sqlparser.InExpr:
		b.expr(x.Left)
		if x.Subquery != nil {
			b.push(CatSubBegin, "in-subquery")
			b.selectStmt(x.Subquery)
			b.push(CatSubEnd, "in-subquery")
		} else {
			for _, e := range x.List {
				b.expr(e)
			}
		}
		op := "IN"
		if x.Not {
			op = "NOT IN"
		}
		b.push(CatFunc, op)
	case *sqlparser.BetweenExpr:
		b.expr(x.Expr)
		b.expr(x.Low)
		b.expr(x.High)
		op := "BETWEEN"
		if x.Not {
			op = "NOT BETWEEN"
		}
		b.push(CatFunc, op)
	case *sqlparser.IsNullExpr:
		b.expr(x.Expr)
		op := "IS NULL"
		if x.Not {
			op = "IS NOT NULL"
		}
		b.push(CatFunc, op)
	case *sqlparser.SubqueryExpr:
		b.push(CatSubBegin, "scalar")
		b.selectStmt(x.Select)
		b.push(CatSubEnd, "scalar")
	case *sqlparser.ExistsExpr:
		b.push(CatSubBegin, "exists")
		b.selectStmt(x.Select)
		b.push(CatSubEnd, "exists")
		op := "EXISTS"
		if x.Not {
			op = "NOT EXISTS"
		}
		b.push(CatFunc, op)
	case *sqlparser.Placeholder:
		if x.Index < len(b.args) {
			b.value(b.args[x.Index])
		} else {
			b.push(CatPlaceholder, "?")
		}
	case *sqlparser.CaseExpr:
		if x.Operand != nil {
			b.expr(x.Operand)
		}
		for _, w := range x.Whens {
			b.expr(w.Cond)
			b.expr(w.Result)
			b.push(CatFunc, "WHEN")
		}
		if x.Else != nil {
			b.expr(x.Else)
			b.push(CatFunc, "ELSE")
		}
		b.push(CatFunc, "CASE")
	}
}

// value pushes the data node of a literal or of a bound argument.
func (b *stackBuilder) value(v engine.Value) {
	switch v.Kind {
	case engine.KindInt:
		b.push(CatInt, strconv.FormatInt(v.I, 10))
	case engine.KindFloat:
		b.push(CatReal, strconv.FormatFloat(v.F, 'g', -1, 64))
	case engine.KindString:
		b.push(CatString, v.S)
	case engine.KindBool:
		b.push(CatBool, strconv.FormatBool(v.B))
	default:
		b.push(CatNull, "NULL")
	}
}

func columnName(c *sqlparser.ColumnRef) string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}
