package sqlparser

// WalkExprs calls visit for every expression in the statement, children
// before their parents, clauses in the order the AST lists them. It never
// writes to the tree, so it is safe to run concurrently on a statement
// shared between sessions (the engine's parse cache hands the same AST to
// every session executing the same text). Nothing in the package writes
// to a parsed statement: a '?' placeholder is bound by reading the
// execution's arguments at Placeholder.Index, never by replacing the node.
func WalkExprs(stmt Statement, visit func(Expr)) {
	w := walker{visit: visit}
	w.statement(stmt)
}

type walker struct {
	visit func(Expr)
}

func (w *walker) statement(stmt Statement) {
	switch s := stmt.(type) {
	case *SelectStmt:
		w.selectStmt(s)
	case *InsertStmt:
		for _, row := range s.Rows {
			for _, e := range row {
				w.expr(e)
			}
		}
		if s.Select != nil {
			w.selectStmt(s.Select)
		}
	case *UpdateStmt:
		for i := range s.Sets {
			w.expr(s.Sets[i].Value)
		}
		w.expr(s.Where)
		w.orderLimit(s.OrderBy, s.Limit)
	case *DeleteStmt:
		w.expr(s.Where)
		w.orderLimit(s.OrderBy, s.Limit)
	}
}

func (w *walker) selectStmt(s *SelectStmt) {
	for i := range s.Fields {
		if s.Fields[i].Expr != nil {
			w.expr(s.Fields[i].Expr)
		}
	}
	for i := range s.From {
		if s.From[i].Subquery != nil {
			w.selectStmt(s.From[i].Subquery)
		}
		if s.From[i].On != nil {
			w.expr(s.From[i].On)
		}
	}
	w.expr(s.Where)
	for _, e := range s.GroupBy {
		w.expr(e)
	}
	w.expr(s.Having)
	w.orderLimit(s.OrderBy, s.Limit)
	if s.Union != nil {
		w.selectStmt(s.Union.Next)
	}
}

func (w *walker) orderLimit(orderBy []OrderItem, limit *Limit) {
	for i := range orderBy {
		w.expr(orderBy[i].Expr)
	}
	if limit != nil {
		w.expr(limit.Count)
		if limit.Offset != nil {
			w.expr(limit.Offset)
		}
	}
}

// expr visits e's children, then e itself. A nil expression — an absent
// optional clause — is skipped.
func (w *walker) expr(e Expr) {
	if e == nil {
		return
	}
	switch x := e.(type) {
	case *BinaryExpr:
		w.expr(x.Left)
		w.expr(x.Right)
	case *UnaryExpr:
		w.expr(x.Operand)
	case *FuncCall:
		for _, a := range x.Args {
			w.expr(a)
		}
	case *InExpr:
		w.expr(x.Left)
		for _, item := range x.List {
			w.expr(item)
		}
		if x.Subquery != nil {
			w.selectStmt(x.Subquery)
		}
	case *BetweenExpr:
		w.expr(x.Expr)
		w.expr(x.Low)
		w.expr(x.High)
	case *IsNullExpr:
		w.expr(x.Expr)
	case *SubqueryExpr:
		w.selectStmt(x.Select)
	case *ExistsExpr:
		w.selectStmt(x.Select)
	case *CaseExpr:
		if x.Operand != nil {
			w.expr(x.Operand)
		}
		for i := range x.Whens {
			w.expr(x.Whens[i].Cond)
			w.expr(x.Whens[i].Result)
		}
		if x.Else != nil {
			w.expr(x.Else)
		}
	}
	w.visit(e)
}
