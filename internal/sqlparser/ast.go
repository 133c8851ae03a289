package sqlparser

// Statement is implemented by every parsed SQL statement.
type Statement interface {
	stmtNode()
	// StatementComments returns the comment bodies attached to the
	// statement, in source order. The first comment may carry SEPTIC's
	// optional external query identifier.
	StatementComments() []string
	// NumParams returns the number of '?' placeholders in the statement,
	// nested selects included: their Index values are 0 to NumParams()-1.
	NumParams() int
	setParams(n int)
}

// commentHolder carries what the parser records about a statement as a
// whole: the comments attached to it and how many placeholders it holds.
type commentHolder struct {
	Comments []string
	Params   int
}

// StatementComments implements Statement.
func (c *commentHolder) StatementComments() []string { return c.Comments }

// NumParams implements Statement.
func (c *commentHolder) NumParams() int { return c.Params }

func (c *commentHolder) setParams(n int) { c.Params = n }

// SelectStmt is a SELECT query, possibly with UNION branches.
type SelectStmt struct {
	commentHolder
	Distinct bool
	Fields   []SelectField
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    *Limit
	// Union, if non-nil, is the next SELECT in a UNION chain.
	Union *UnionClause
}

func (*SelectStmt) stmtNode() {}

// UnionClause links a SELECT to the following branch of a UNION.
type UnionClause struct {
	All  bool
	Next *SelectStmt
}

// SelectField is one entry of a SELECT list.
type SelectField struct {
	// Star is true for a bare "*" (Expr is nil in that case).
	Star bool
	// TableStar holds the table name for "t.*" fields.
	TableStar string
	Expr      Expr
	Alias     string
}

// TableRef is a table in a FROM clause, optionally joined.
type TableRef struct {
	Name  string
	Alias string
	// Join describes how this table joins the previous one in the list.
	// Empty for the first table and for comma-separated cross joins.
	Join string // "", "INNER", "LEFT", "RIGHT", "CROSS"
	On   Expr
	// Subquery is set for derived tables: FROM (SELECT ...) alias.
	Subquery *SelectStmt
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Limit is a LIMIT [OFFSET] clause.
type Limit struct {
	Count  Expr
	Offset Expr
}

// InsertStmt is an INSERT statement.
type InsertStmt struct {
	commentHolder
	Table   string
	Columns []string
	// Rows holds the VALUES tuples. Exactly one of Rows or Select is set.
	Rows   [][]Expr
	Select *SelectStmt
}

func (*InsertStmt) stmtNode() {}

// UpdateStmt is an UPDATE statement.
type UpdateStmt struct {
	commentHolder
	Table   string
	Sets    []Assignment
	Where   Expr
	OrderBy []OrderItem
	Limit   *Limit
}

func (*UpdateStmt) stmtNode() {}

// Assignment is one "column = expr" pair in an UPDATE SET clause.
type Assignment struct {
	Column string
	Value  Expr
}

// DeleteStmt is a DELETE statement.
type DeleteStmt struct {
	commentHolder
	Table   string
	Where   Expr
	OrderBy []OrderItem
	Limit   *Limit
}

func (*DeleteStmt) stmtNode() {}

// ColumnDef is one column definition in CREATE TABLE.
type ColumnDef struct {
	Name          string
	Type          string // canonical: INT, FLOAT, TEXT, BOOL, DATETIME
	PrimaryKey    bool
	AutoIncrement bool
	Unique        bool
	NotNull       bool
	Default       Expr
}

// CreateTableStmt is a CREATE TABLE statement.
type CreateTableStmt struct {
	commentHolder
	Table       string
	IfNotExists bool
	Columns     []ColumnDef
}

func (*CreateTableStmt) stmtNode() {}

// DropTableStmt is a DROP TABLE statement.
type DropTableStmt struct {
	commentHolder
	Table    string
	IfExists bool
}

func (*DropTableStmt) stmtNode() {}

// ShowTablesStmt is a SHOW TABLES statement.
type ShowTablesStmt struct {
	commentHolder
}

func (*ShowTablesStmt) stmtNode() {}

// DescribeStmt is a DESCRIBE <table> statement.
type DescribeStmt struct {
	commentHolder
	Table string
}

func (*DescribeStmt) stmtNode() {}

// ExplainStmt is an EXPLAIN <select> statement: the engine answers with
// its access plan instead of executing the query.
type ExplainStmt struct {
	commentHolder
	Select *SelectStmt
}

func (*ExplainStmt) stmtNode() {}

// Expr is implemented by every expression node.
type Expr interface {
	exprNode()
}

// BinaryExpr is a binary operation: comparison, arithmetic, or logical.
type BinaryExpr struct {
	Op    string // canonical: =, <>, <, <=, >, >=, +, -, *, /, %, AND, OR, XOR, LIKE
	Left  Expr
	Right Expr
}

func (*BinaryExpr) exprNode() {}

// UnaryExpr is a unary operation: NOT or numeric negation.
type UnaryExpr struct {
	Op      string // NOT, -, +
	Operand Expr
}

func (*UnaryExpr) exprNode() {}

// LiteralKind distinguishes literal types in the AST. These correspond to
// the DATA TYPE half of SEPTIC's query-structure nodes.
type LiteralKind int

// Literal kinds.
const (
	LiteralInvalid LiteralKind = iota
	LiteralInt
	LiteralFloat
	LiteralString
	LiteralBool
	LiteralNull
)

// Literal is a constant value in the query text.
type Literal struct {
	Kind LiteralKind
	// Int, Float, Str and Bool hold the decoded value for the matching
	// Kind; the others are zero.
	Int   int64
	Float float64
	Str   string
	Bool  bool
}

func (*Literal) exprNode() {}

// ColumnRef is a (possibly qualified) column reference.
type ColumnRef struct {
	Table string
	Name  string
}

func (*ColumnRef) exprNode() {}

// FuncCall is a function invocation, including aggregates.
type FuncCall struct {
	Name string // canonical upper-case
	// Star is true for COUNT(*).
	Star     bool
	Distinct bool
	Args     []Expr
}

func (*FuncCall) exprNode() {}

// InExpr is "expr [NOT] IN (list...)" or "expr [NOT] IN (subquery)".
type InExpr struct {
	Not      bool
	Left     Expr
	List     []Expr
	Subquery *SelectStmt
}

func (*InExpr) exprNode() {}

// BetweenExpr is "expr [NOT] BETWEEN low AND high".
type BetweenExpr struct {
	Not  bool
	Expr Expr
	Low  Expr
	High Expr
}

func (*BetweenExpr) exprNode() {}

// IsNullExpr is "expr IS [NOT] NULL".
type IsNullExpr struct {
	Not  bool
	Expr Expr
}

func (*IsNullExpr) exprNode() {}

// SubqueryExpr is a parenthesised scalar subquery.
type SubqueryExpr struct {
	Select *SelectStmt
}

func (*SubqueryExpr) exprNode() {}

// ExistsExpr is "[NOT] EXISTS (subquery)".
type ExistsExpr struct {
	Not    bool
	Select *SelectStmt
}

func (*ExistsExpr) exprNode() {}

// Placeholder is a '?' parameter marker (prepared-statement style). Index
// is its position among the statement's placeholders in source order,
// from 0: the argument of an execution it stands for. The value never
// enters the tree — whoever reads the statement for one execution reads
// that execution's arguments beside it.
type Placeholder struct {
	Index int
}

func (*Placeholder) exprNode() {}

// WhenClause is one WHEN...THEN arm of a CASE expression.
type WhenClause struct {
	Cond   Expr
	Result Expr
}

// CaseExpr is a CASE expression, in either form: the operand form
// "CASE x WHEN v THEN r ... END" (Operand non-nil, Cond compared for
// equality) or the searched form "CASE WHEN cond THEN r ... END".
type CaseExpr struct {
	Operand Expr // nil for the searched form
	Whens   []WhenClause
	Else    Expr // nil means NULL
}

func (*CaseExpr) exprNode() {}

// Interface compliance assertions.
var (
	_ Statement = (*SelectStmt)(nil)
	_ Statement = (*InsertStmt)(nil)
	_ Statement = (*UpdateStmt)(nil)
	_ Statement = (*DeleteStmt)(nil)
	_ Statement = (*CreateTableStmt)(nil)
	_ Statement = (*DropTableStmt)(nil)
	_ Statement = (*ShowTablesStmt)(nil)
	_ Statement = (*DescribeStmt)(nil)
	_ Statement = (*ExplainStmt)(nil)

	_ Expr = (*BinaryExpr)(nil)
	_ Expr = (*UnaryExpr)(nil)
	_ Expr = (*Literal)(nil)
	_ Expr = (*ColumnRef)(nil)
	_ Expr = (*FuncCall)(nil)
	_ Expr = (*InExpr)(nil)
	_ Expr = (*BetweenExpr)(nil)
	_ Expr = (*IsNullExpr)(nil)
	_ Expr = (*SubqueryExpr)(nil)
	_ Expr = (*ExistsExpr)(nil)
	_ Expr = (*Placeholder)(nil)
	_ Expr = (*CaseExpr)(nil)
)
