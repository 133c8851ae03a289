package sqlparser

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
)

// The grammar this parser accepts — the subset of MySQL's needed by the
// engine and by SEPTIC's query-structure extraction. Keywords match in any
// letter case; [x] is optional, {x} repeats zero or more times, | separates
// alternatives, quoted words are keyword or punctuation tokens.
//
//	script    := statement {";"} {statement {";"}}
//	statement := select | insert | update | delete | create | drop
//	           | "SHOW" "TABLES" | "DESCRIBE" name | "EXPLAIN" select
//	select    := "SELECT" ["DISTINCT" | "ALL"] field {"," field}
//	             ["FROM" tableref {"," tableref | join}]
//	             ["WHERE" expr] ["GROUP" "BY" expr {"," expr}] ["HAVING" expr]
//	             [orderby] [limit] ["UNION" ["ALL" | "DISTINCT"] select]
//	field     := "*" | ident "." "*" | expr ["AS" name | ident]
//	tableref  := (name | "(" select ")") ["AS" name | ident]
//	join      := ["INNER" | ("LEFT" | "RIGHT") ["OUTER"]] "JOIN" tableref "ON" expr
//	           | "CROSS" ["OUTER"] "JOIN" tableref
//	orderby   := "ORDER" "BY" expr ["ASC" | "DESC"] {"," expr ["ASC" | "DESC"]}
//	limit     := "LIMIT" primary ["," primary | "OFFSET" primary]
//	insert    := "INSERT" "INTO" name ["(" name {"," name} ")"]
//	             (select | "VALUES" tuple {"," tuple})
//	tuple     := "(" expr {"," expr} ")"
//	update    := "UPDATE" name "SET" name "=" expr {"," name "=" expr}
//	             ["WHERE" expr] [orderby] [limit]
//	delete    := "DELETE" "FROM" name ["WHERE" expr] [orderby] [limit]
//	create    := "CREATE" "TABLE" ["IF" "NOT" "EXISTS"] name "(" column {"," column} ")"
//	column    := name type ["(" int ")"] {"PRIMARY" "KEY" | "AUTO_INCREMENT" | "UNIQUE"
//	             | "NOT" "NULL" | "NULL" | "DEFAULT" primary}
//	type      := INT | INTEGER | BIGINT | FLOAT | DOUBLE | REAL | TEXT | VARCHAR
//	           | CHAR | BOOL | BOOLEAN | DATETIME
//	drop      := "DROP" "TABLE" ["IF" "EXISTS"] name
//	name      := ident | KEY | DATETIME | TEXT | ALL | SET | SHOW | TABLES   (* lower-cased *)
//
// Expressions, loosest binding first; each level is left-associative:
//
//	expr      := and {("OR" | "||" | "XOR") and}
//	and       := not {("AND" | "&&") not}
//	not       := "NOT" not | cmp
//	cmp       := add {("=" | "<>" | "!=" | "<" | "<=" | ">" | ">=" | "LIKE") add
//	           | "IS" ["NOT"] "NULL"
//	           | ["NOT"] "IN" "(" (select | expr {"," expr}) ")"
//	           | ["NOT"] "BETWEEN" add "AND" add
//	           | "NOT" "LIKE" add}
//	add       := mul {("+" | "-") mul}
//	mul       := unary {("*" | "/" | "%") unary}
//	unary     := ("-" | "+") unary | primary      (* "-" folds into a numeric literal *)
//	primary   := int | float | string | "?" | "NULL" | "TRUE" | "FALSE"
//	           | "(" (select | expr) ")" | "EXISTS" "(" select ")" | "NOT" primary
//	           | "CASE" [expr] "WHEN" expr "THEN" expr {"WHEN" expr "THEN" expr} ["ELSE" expr] "END"
//	           | (ident | "IF" | "LEFT" | "RIGHT") "(" ["*" | ["DISTINCT"] expr {"," expr}] ")"
//	           | ident ["." name]
//
// Tokens (see scan and token): an ident is a bare word [A-Za-z_$][A-Za-z0-9_$]*
// that is not reserved, or any non-empty `backticked` text; int and float are
// decimal (an int too large for int64 widens to a float); a string is
// '...' or "..." with MySQL's backslash escapes and quote doubling, or
// 0x followed by hex digits; a comment is /* ... */, "-- " or "#" to the end
// of the line, and may stand between any two tokens.
//
// Comments seen before a statement's (or a nested select's) first keyword
// are attached to it; one seen later goes to the next statement or nested
// select that starts after it, or nowhere.

// Parser is a recursive-descent parser over the token slice of one text.
// The scanner has run to the end (or to its first lexical error) before
// the first statement is parsed, and the parser walks the slice by index;
// the slice is scratch space reused by the next text, so nothing the parser
// returns may point into it.
type Parser struct {
	src  string
	toks []token
	pos  int   // index in toks of tok
	tok  token // the current token; never a comment
	// lexErr is set when tok becomes the scan's error token, which is when
	// a scanner run on demand would have failed. From then on it is the
	// error every failing rule reports (see errorf), so a lexical error
	// that the grammar reaches wins over whatever follows from it, and one
	// it never reaches is never reported.
	lexErr error
	// commentsFrom is the index of the first token whose comments no
	// statement has taken yet.
	commentsFrom int
	// params counts the placeholders of the statement being parsed. No
	// rule that consumes one backtracks, so the count at a placeholder is
	// its place in source order.
	params int
	slab   slab
	// lit is the token of the Literal made last: the one a unary minus
	// folds into, if its operand turns out to be a literal (see negate).
	lit token
	// tmpl is set while the text is parsed as a template (ParseTemplate);
	// structural then counts the enclosing clauses in which a literal is
	// structure, not a value.
	tmpl       *Template
	structural int
	// key is the scratch ShapeKey builds in, kept like toks.
	key []byte
}

// slab hands out the three node types that make up most of a statement
// from one array each, sized for the statement before it is parsed:
// identifier tokens bound its ColumnRefs, literal tokens its Literals,
// operator tokens (and AND/OR/XOR/LIKE) its BinaryExprs. An array is
// allocated when its first node is asked for, so a statement pays one
// allocation per node type it uses, not one per node.
type slab struct {
	nCols, nLits, nBins int
	cols                []ColumnRef
	lits                []Literal
	bins                []BinaryExpr
	// A template's literals are Placeholders, bounded by nLits as well.
	slots []Placeholder
}

// take returns the next free element of *s, allocating the array with
// capacity n on first use; past n (which the sizing pass makes an upper
// bound) it falls back to an allocation of its own.
func take[T any](s *[]T, n int) *T {
	if *s == nil && n > 0 {
		*s = make([]T, 0, n)
	}
	if len(*s) == cap(*s) {
		return new(T)
	}
	*s = (*s)[:len(*s)+1]
	return &(*s)[len(*s)-1]
}

// maxPooledTokens bounds the token scratch a pooled parser keeps, so one
// huge script does not pin its scratch for good.
const maxPooledTokens = 4096

var parserPool = sync.Pool{New: func() any { return new(Parser) }}

// Scan scans decoded, a text DecodeCharset has been applied to, and
// returns a parser positioned at its first token. The one scan serves
// whatever the caller goes on to ask: ShapeKey, Parse or ParseTemplate, and
// Value. Release it when done.
func Scan(decoded string) *Parser {
	p := parserPool.Get().(*Parser)
	p.src = decoded
	p.toks = scan(decoded, p.toks[:0])
	p.rewind()
	return p
}

// rewind positions the parser at the first token, as after Scan.
func (p *Parser) rewind() {
	p.pos, p.commentsFrom, p.structural, p.lexErr = -1, 0, 0, nil
	p.advance()
}

// Release returns the parser and its scratch to the pool, dropping every
// reference to the text and the nodes parsed from it.
func (p *Parser) Release() {
	toks, key := p.toks, p.key
	if cap(toks) > maxPooledTokens {
		toks = nil
	}
	if cap(key) > 8*maxPooledTokens {
		key = nil
	}
	*p = Parser{toks: toks, key: key}
	parserPool.Put(p)
}

// Parse decodes, lexes and parses a single SQL statement. It fails if more
// than one statement is present — matching the single-statement API of
// mysql_query, which is why classic piggy-backed injections ("; DROP
// TABLE ...") fail against MySQL and are not SEPTIC's main concern.
func Parse(query string) (Statement, error) {
	return ParseDecoded(DecodeCharset(query))
}

// ParseDecoded is Parse over a text that DecodeCharset has already been
// applied to, for a caller that keeps the decoded text anyway.
func ParseDecoded(decoded string) (Statement, error) {
	p := Scan(decoded)
	defer p.Release()
	return p.Parse()
}

// Parse parses the scanned text as a single statement.
func (p *Parser) Parse() (Statement, error) {
	// Every statement is parsed, so an error in a later one is reported
	// before the count is; only the first is kept.
	var first Statement
	n := 0
	for ; p.tok.kind != TokenEOF; n++ {
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			first = stmt
		}
	}
	switch n {
	case 0:
		return nil, p.errorf("empty statement")
	case 1:
		return first, nil
	}
	return nil, fmt.Errorf("expected a single statement, got %d", n)
}

// ParseAll decodes, lexes and parses a semicolon-separated script.
func ParseAll(query string) ([]Statement, error) {
	p := Scan(DecodeCharset(query))
	defer p.Release()
	var stmts []Statement
	for p.tok.kind != TokenEOF {
		stmt, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, stmt)
	}
	if len(stmts) == 0 {
		return nil, p.errorf("empty statement")
	}
	return stmts, nil
}

// advance moves to the next non-comment token. The last token of the
// slice (end of input, or the lexical error) is where it stays.
func (p *Parser) advance() {
	if p.pos == len(p.toks)-1 {
		return
	}
	for p.pos++; p.toks[p.pos].kind == TokenComment; p.pos++ {
	}
	p.tok = p.toks[p.pos]
	if p.tok.kind == tokenError && p.lexErr == nil {
		p.lexErr = lexError(p.src, p.tok)
	}
}

// text is the decoded text of the current token.
func (p *Parser) text() string { return p.tok.text(p.src) }

func (p *Parser) errorf(format string, args ...any) error {
	if p.lexErr != nil {
		return p.lexErr
	}
	return &SyntaxError{Pos: int(p.tok.start), Msg: fmt.Sprintf(format, args...)}
}

// takeComments returns the bodies of the comments between the last call
// and the current token.
func (p *Parser) takeComments() []string {
	pending := p.toks[p.commentsFrom:p.pos]
	p.commentsFrom = p.pos
	n := 0
	for _, t := range pending {
		if t.kind == TokenComment {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	comments := make([]string, 0, n)
	for _, t := range pending {
		if t.kind == TokenComment {
			comments = append(comments, t.text(p.src))
		}
	}
	return comments
}

// keyword returns the canonical spelling of the current token if it is a
// keyword, and "" otherwise.
func (p *Parser) keyword() string {
	if p.tok.kind != TokenKeyword {
		return ""
	}
	return keywordNames[p.tok.aux]
}

func (p *Parser) atKeyword(kw string) bool { return p.keyword() == kw }

// atOp reports whether the current token is the operator spelled op.
func (p *Parser) atOp(op string) bool {
	return p.tok.kind == TokenOperator && p.src[p.tok.start:p.tok.end] == op
}

// acceptKeyword consumes kw if present and reports whether it did.
func (p *Parser) acceptKeyword(kw string) bool {
	if !p.atKeyword(kw) {
		return false
	}
	p.advance()
	return true
}

// accept consumes a token of the given kind if present and reports
// whether it did.
func (p *Parser) accept(kind TokenKind) bool {
	if p.tok.kind != kind {
		return false
	}
	p.advance()
	return true
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %s %q", kw, p.tok.kind, p.text())
	}
	return nil
}

func (p *Parser) expect(kind TokenKind) error {
	if !p.accept(kind) {
		return p.errorf("expected %s, found %s %q", kind, p.tok.kind, p.text())
	}
	return nil
}

// expectIdent accepts an identifier, also tolerating non-reserved keywords
// used as names (MySQL allows e.g. a column called "key" when quoted; we
// are more permissive for type-name keywords).
func (p *Parser) expectIdent() (string, error) {
	name := ""
	switch p.keyword() {
	case "":
		if p.tok.kind == TokenIdent {
			name = p.text()
		}
	case "KEY", "DATETIME", "TEXT", "ALL", "SET", "SHOW", "TABLES":
		name = strings.ToLower(p.keyword())
	}
	if name == "" {
		return "", p.errorf("expected identifier, found %s %q", p.tok.kind, p.text())
	}
	p.advance()
	return name, nil
}

// listLen bounds the length of the comma-separated list that starts at
// the current token: one more than the commas ahead of whatever ends the
// list — its closing parenthesis, a clause keyword at the list's own
// depth, or the end of the statement. It is a capacity hint, so it looks
// no further than listScan tokens ahead.
func (p *Parser) listLen() int {
	const listScan = 512
	n, depth := 1, 0
	for _, t := range p.toks[p.pos:min(p.pos+listScan, len(p.toks))] {
		switch t.kind {
		case TokenLParen:
			depth++
		case TokenRParen:
			if depth--; depth < 0 {
				return n
			}
		case TokenComma:
			if depth == 0 {
				n++
			}
		case TokenKeyword:
			if depth == 0 && t.aux >= kwBinaryEnd && t.aux < kwClauseEnd {
				return n
			}
		case TokenSemicolon, TokenEOF, tokenError:
			return n
		}
	}
	return n
}

// sizeSlab counts, in the statement that starts at the current token, the
// tokens that bound how many nodes of each slab type it can hold.
func (p *Parser) sizeSlab() slab {
	var s slab
	for _, t := range p.toks[p.pos:] {
		switch t.kind {
		case TokenIdent:
			s.nCols++
		case TokenString, TokenInt, TokenFloat:
			s.nLits++
		case TokenOperator:
			s.nBins++
		case TokenKeyword:
			if t.aux < kwLiteralEnd {
				s.nLits++
			} else if t.aux < kwBinaryEnd {
				s.nBins++
			}
		case TokenSemicolon, TokenEOF, tokenError:
			return s
		}
	}
	return s
}

// parseStatement parses one statement and the semicolons after it.
func (p *Parser) parseStatement() (Statement, error) {
	p.slab = p.sizeSlab()
	p.params = 0
	var (
		stmt Statement
		err  error
	)
	switch p.keyword() {
	case "":
		return nil, p.errorf("expected statement keyword, found %s %q", p.tok.kind, p.text())
	case "SELECT":
		stmt, err = p.parseSelect()
	case "INSERT":
		stmt, err = p.parseInsert()
	case "UPDATE":
		stmt, err = p.parseUpdate()
	case "DELETE":
		stmt, err = p.parseDelete()
	case "CREATE":
		stmt, err = p.parseCreateTable()
	case "DROP":
		stmt, err = p.parseDropTable()
	case "SHOW":
		stmt, err = p.parseShowTables()
	case "DESCRIBE":
		stmt, err = p.parseDescribe()
	case "EXPLAIN":
		stmt, err = p.parseExplain()
	default:
		return nil, p.errorf("unsupported statement %q", p.text())
	}
	if err != nil {
		return nil, err
	}
	stmt.setParams(p.params)
	for p.accept(TokenSemicolon) {
	}
	return stmt, nil
}

func (p *Parser) parseSelect() (*SelectStmt, error) {
	comments := p.takeComments()
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{commentHolder: commentHolder{Comments: comments}}
	var err error

	if p.acceptKeyword("DISTINCT") {
		stmt.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}

	stmt.Fields = make([]SelectField, 0, p.listLen())
	for {
		f, err := p.parseSelectField()
		if err != nil {
			return nil, err
		}
		stmt.Fields = append(stmt.Fields, f)
		if !p.accept(TokenComma) {
			break
		}
	}

	if p.acceptKeyword("FROM") {
		if stmt.From, err = p.parseTableRefs(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("WHERE") {
		if stmt.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		p.structural++ // a number is a column position
		stmt.GroupBy, err = p.parseExprList()
		p.structural--
		if err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("HAVING") {
		if stmt.Having, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if stmt.OrderBy, err = p.parseOrderBy(); err != nil {
		return nil, err
	}
	if stmt.Limit, err = p.parseLimit(); err != nil {
		return nil, err
	}

	if p.acceptKeyword("UNION") {
		all := p.acceptKeyword("ALL")
		if !all {
			p.acceptKeyword("DISTINCT")
		}
		next, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		stmt.Union = &UnionClause{All: all, Next: next}
	}
	return stmt, nil
}

func (p *Parser) parseSelectField() (SelectField, error) {
	if p.atOp("*") {
		p.advance()
		return SelectField{Star: true}, nil
	}
	// Look ahead for "ident.*"; anything else rewinds to the identifier
	// and is parsed as an expression.
	if p.tok.kind == TokenIdent {
		save := p.pos
		name := p.text()
		p.advance()
		if p.accept(TokenDot) && p.atOp("*") {
			p.advance()
			return SelectField{TableStar: name}, nil
		}
		p.pos, p.tok = save, p.toks[save]
	}
	p.structural++ // the expression names the result column
	expr, err := p.parseExpr()
	p.structural--
	if err != nil {
		return SelectField{}, err
	}
	alias, err := p.parseAlias()
	if err != nil {
		return SelectField{}, err
	}
	return SelectField{Expr: expr, Alias: alias}, nil
}

// parseAlias parses the optional alias of a select field or table: "AS
// name", or a bare identifier.
func (p *Parser) parseAlias() (string, error) {
	if p.acceptKeyword("AS") {
		return p.expectIdent()
	}
	if p.tok.kind != TokenIdent {
		return "", nil
	}
	alias := p.text()
	p.advance()
	return alias, nil
}

func (p *Parser) parseTableRefs() ([]TableRef, error) {
	refs := make([]TableRef, 0, p.listLen())
	first, err := p.parseTableRef("")
	if err != nil {
		return nil, err
	}
	refs = append(refs, first)
	for {
		joinType := "CROSS" // what a comma means
		if !p.accept(TokenComma) {
			switch p.keyword() {
			case "JOIN", "INNER", "LEFT", "RIGHT", "CROSS":
				if joinType, err = p.parseJoinType(); err != nil {
					return nil, err
				}
			default:
				return refs, nil
			}
		}
		ref, err := p.parseTableRef(joinType)
		if err != nil {
			return nil, err
		}
		if joinType != "CROSS" {
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			if ref.On, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
		refs = append(refs, ref)
	}
}

func (p *Parser) parseJoinType() (string, error) {
	joinType := "INNER"
	switch kw := p.keyword(); kw {
	case "LEFT", "RIGHT", "CROSS":
		joinType = kw
		p.advance()
		p.acceptKeyword("OUTER")
	case "INNER":
		p.advance()
	}
	return joinType, p.expectKeyword("JOIN")
}

func (p *Parser) parseTableRef(join string) (TableRef, error) {
	ref := TableRef{Join: join}
	var err error
	if p.accept(TokenLParen) {
		if ref.Subquery, err = p.parseSelect(); err != nil {
			return TableRef{}, err
		}
		if err := p.expect(TokenRParen); err != nil {
			return TableRef{}, err
		}
	} else if ref.Name, err = p.expectIdent(); err != nil {
		return TableRef{}, err
	}
	if ref.Alias, err = p.parseAlias(); err != nil {
		return TableRef{}, err
	}
	return ref, nil
}

func (p *Parser) parseOrderBy() ([]OrderItem, error) {
	if !p.acceptKeyword("ORDER") {
		return nil, nil
	}
	if err := p.expectKeyword("BY"); err != nil {
		return nil, err
	}
	items := make([]OrderItem, 0, p.listLen())
	for {
		p.structural++ // a number is a column position
		e, err := p.parseExpr()
		p.structural--
		if err != nil {
			return nil, err
		}
		item := OrderItem{Expr: e}
		if p.acceptKeyword("DESC") {
			item.Desc = true
		} else {
			p.acceptKeyword("ASC")
		}
		items = append(items, item)
		if !p.accept(TokenComma) {
			return items, nil
		}
	}
}

func (p *Parser) parseLimit() (*Limit, error) {
	if !p.acceptKeyword("LIMIT") {
		return nil, nil
	}
	first, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	limit := &Limit{Count: first}
	switch {
	case p.accept(TokenComma):
		// LIMIT offset, count
		limit.Offset = first
		limit.Count, err = p.parsePrimary()
	case p.acceptKeyword("OFFSET"):
		limit.Offset, err = p.parsePrimary()
	}
	if err != nil {
		return nil, err
	}
	return limit, nil
}

// parseNames parses a comma-separated list of names.
func (p *Parser) parseNames() ([]string, error) {
	names := make([]string, 0, p.listLen())
	for {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		names = append(names, name)
		if !p.accept(TokenComma) {
			return names, nil
		}
	}
}

func (p *Parser) parseInsert() (*InsertStmt, error) {
	comments := p.takeComments()
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{commentHolder: commentHolder{Comments: comments}, Table: table}

	if p.accept(TokenLParen) {
		if stmt.Columns, err = p.parseNames(); err != nil {
			return nil, err
		}
		if err := p.expect(TokenRParen); err != nil {
			return nil, err
		}
	}

	if p.atKeyword("SELECT") {
		if stmt.Select, err = p.parseSelect(); err != nil {
			return nil, err
		}
		return stmt, nil
	}

	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	stmt.Rows = make([][]Expr, 0, p.listLen())
	for {
		if err := p.expect(TokenLParen); err != nil {
			return nil, err
		}
		row, err := p.parseExprList()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokenRParen); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if !p.accept(TokenComma) {
			return stmt, nil
		}
	}
}

func (p *Parser) parseUpdate() (*UpdateStmt, error) {
	comments := p.takeComments()
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{commentHolder: commentHolder{Comments: comments}, Table: table}
	stmt.Sets = make([]Assignment, 0, p.listLen())
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if !p.atOp("=") {
			return nil, p.errorf("expected '=' in SET clause, found %q", p.text())
		}
		p.advance()
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Sets = append(stmt.Sets, Assignment{Column: col, Value: val})
		if !p.accept(TokenComma) {
			break
		}
	}
	if stmt.Where, stmt.OrderBy, stmt.Limit, err = p.parseRowFilter(); err != nil {
		return nil, err
	}
	return stmt, nil
}

// parseRowFilter parses the tail UPDATE and DELETE share: [WHERE expr]
// [ORDER BY ...] [LIMIT ...].
func (p *Parser) parseRowFilter() (where Expr, orderBy []OrderItem, limit *Limit, err error) {
	if p.acceptKeyword("WHERE") {
		if where, err = p.parseExpr(); err != nil {
			return nil, nil, nil, err
		}
	}
	if orderBy, err = p.parseOrderBy(); err != nil {
		return nil, nil, nil, err
	}
	if limit, err = p.parseLimit(); err != nil {
		return nil, nil, nil, err
	}
	return where, orderBy, limit, nil
}

func (p *Parser) parseDelete() (*DeleteStmt, error) {
	comments := p.takeComments()
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{commentHolder: commentHolder{Comments: comments}, Table: table}
	if stmt.Where, stmt.OrderBy, stmt.Limit, err = p.parseRowFilter(); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *Parser) parseCreateTable() (*CreateTableStmt, error) {
	comments := p.takeComments()
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{commentHolder: commentHolder{Comments: comments}}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfNotExists = true
	}
	var err error
	if stmt.Table, err = p.expectIdent(); err != nil {
		return nil, err
	}
	if err := p.expect(TokenLParen); err != nil {
		return nil, err
	}
	stmt.Columns = make([]ColumnDef, 0, p.listLen())
	for {
		col, err := p.parseColumnDef()
		if err != nil {
			return nil, err
		}
		stmt.Columns = append(stmt.Columns, col)
		if !p.accept(TokenComma) {
			break
		}
	}
	if err := p.expect(TokenRParen); err != nil {
		return nil, err
	}
	return stmt, nil
}

// canonicalColumnTypes maps SQL type keywords to the engine's canonical
// type names.
var canonicalColumnTypes = map[string]string{
	"INT": "INT", "INTEGER": "INT", "BIGINT": "INT",
	"FLOAT": "FLOAT", "DOUBLE": "FLOAT", "REAL": "FLOAT",
	"TEXT": "TEXT", "VARCHAR": "TEXT", "CHAR": "TEXT",
	"BOOL": "BOOL", "BOOLEAN": "BOOL",
	"DATETIME": "DATETIME",
}

func (p *Parser) parseColumnDef() (ColumnDef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return ColumnDef{}, err
	}
	if p.tok.kind != TokenKeyword {
		return ColumnDef{}, p.errorf("expected column type, found %s %q", p.tok.kind, p.text())
	}
	canonical, ok := canonicalColumnTypes[p.keyword()]
	if !ok {
		return ColumnDef{}, p.errorf("unsupported column type %q", p.text())
	}
	p.advance()
	// Optional length: VARCHAR(255), INT(11) — parsed and ignored.
	if p.accept(TokenLParen) {
		if err := p.expect(TokenInt); err != nil {
			return ColumnDef{}, err
		}
		if err := p.expect(TokenRParen); err != nil {
			return ColumnDef{}, err
		}
	}
	def := ColumnDef{Name: name, Type: canonical}
	for {
		switch {
		case p.acceptKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return ColumnDef{}, err
			}
			def.PrimaryKey = true
		case p.acceptKeyword("AUTO_INCREMENT"):
			def.AutoIncrement = true
		case p.acceptKeyword("UNIQUE"):
			def.Unique = true
		case p.acceptKeyword("NOT"):
			if err := p.expectKeyword("NULL"); err != nil {
				return ColumnDef{}, err
			}
			def.NotNull = true
		case p.acceptKeyword("NULL"):
		case p.acceptKeyword("DEFAULT"):
			if def.Default, err = p.parsePrimary(); err != nil {
				return ColumnDef{}, err
			}
		default:
			return def, nil
		}
	}
}

func (p *Parser) parseDropTable() (*DropTableStmt, error) {
	comments := p.takeComments()
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	stmt := &DropTableStmt{commentHolder: commentHolder{Comments: comments}}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfExists = true
	}
	var err error
	if stmt.Table, err = p.expectIdent(); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *Parser) parseShowTables() (*ShowTablesStmt, error) {
	comments := p.takeComments()
	if err := p.expectKeyword("SHOW"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLES"); err != nil {
		return nil, err
	}
	return &ShowTablesStmt{commentHolder: commentHolder{Comments: comments}}, nil
}

func (p *Parser) parseDescribe() (*DescribeStmt, error) {
	comments := p.takeComments()
	if err := p.expectKeyword("DESCRIBE"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DescribeStmt{commentHolder: commentHolder{Comments: comments}, Table: table}, nil
}

func (p *Parser) parseExplain() (*ExplainStmt, error) {
	comments := p.takeComments()
	if err := p.expectKeyword("EXPLAIN"); err != nil {
		return nil, err
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	return &ExplainStmt{commentHolder: commentHolder{Comments: comments}, Select: sel}, nil
}

// Expression parsing: precedence climbing, one function per level of the
// grammar above.

func (p *Parser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	for err == nil {
		op := "OR"
		switch {
		case p.atKeyword("OR"), p.atOp("||"):
		case p.atKeyword("XOR"):
			op = "XOR"
		default:
			return left, nil
		}
		left, err = p.parseBinary(op, left, p.parseAnd)
	}
	return nil, err
}

// parseExprList parses a comma-separated list of expressions.
func (p *Parser) parseExprList() ([]Expr, error) {
	list := make([]Expr, 0, p.listLen())
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if !p.accept(TokenComma) {
			return list, nil
		}
	}
}

// parseBinary consumes the operator at the current token, parses its
// right operand with next and returns the node for "left op right".
func (p *Parser) parseBinary(op string, left Expr, next func() (Expr, error)) (Expr, error) {
	p.advance()
	right, err := next()
	if err != nil {
		return nil, err
	}
	b := take(&p.slab.bins, p.slab.nBins)
	*b = BinaryExpr{Op: op, Left: left, Right: right}
	return b, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	for err == nil && (p.atKeyword("AND") || p.atOp("&&")) {
		left, err = p.parseBinary("AND", left, p.parseNot)
	}
	return left, err
}

func (p *Parser) parseNot() (Expr, error) {
	if !p.acceptKeyword("NOT") {
		return p.parseComparison()
	}
	operand, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	return &UnaryExpr{Op: "NOT", Operand: operand}, nil
}

// comparisonOps maps operator spellings to canonical forms.
var comparisonOps = map[string]string{
	"=": "=", "<>": "<>", "!=": "<>",
	"<": "<", "<=": "<=", ">": ">", ">=": ">=",
}

func (p *Parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	for err == nil {
		if p.tok.kind == TokenOperator {
			op := comparisonOps[p.src[p.tok.start:p.tok.end]]
			if op == "" {
				return left, nil
			}
			left, err = p.parseBinary(op, left, p.parseAdditive)
			continue
		}
		switch p.keyword() {
		case "LIKE":
			left, err = p.parseBinary("LIKE", left, p.parseAdditive)
		case "IS":
			p.advance()
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			left = &IsNullExpr{Not: not, Expr: left}
		case "IN":
			left, err = p.parseInTail(left, false)
		case "BETWEEN":
			left, err = p.parseBetweenTail(left, false)
		case "NOT":
			// expr NOT IN / NOT LIKE / NOT BETWEEN
			p.advance()
			switch p.keyword() {
			case "IN":
				left, err = p.parseInTail(left, true)
			case "LIKE":
				if left, err = p.parseBinary("LIKE", left, p.parseAdditive); err == nil {
					left = &UnaryExpr{Op: "NOT", Operand: left}
				}
			case "BETWEEN":
				left, err = p.parseBetweenTail(left, true)
			default:
				return nil, p.errorf("expected IN, LIKE or BETWEEN after NOT")
			}
		default:
			return left, nil
		}
	}
	return nil, err
}

// parseInTail parses what follows "left [NOT] IN", the current token.
func (p *Parser) parseInTail(left Expr, not bool) (Expr, error) {
	p.advance()
	if err := p.expect(TokenLParen); err != nil {
		return nil, err
	}
	in := &InExpr{Not: not, Left: left}
	var err error
	if p.atKeyword("SELECT") {
		in.Subquery, err = p.parseSelect()
	} else {
		in.List, err = p.parseExprList()
	}
	if err != nil {
		return nil, err
	}
	if err := p.expect(TokenRParen); err != nil {
		return nil, err
	}
	return in, nil
}

// parseBetweenTail parses what follows "left [NOT] BETWEEN", the current
// token.
func (p *Parser) parseBetweenTail(left Expr, not bool) (Expr, error) {
	p.advance()
	low, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AND"); err != nil {
		return nil, err
	}
	high, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &BetweenExpr{Not: not, Expr: left, Low: low, High: high}, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	for err == nil && (p.atOp("+") || p.atOp("-")) {
		left, err = p.parseBinary(p.text(), left, p.parseMultiplicative)
	}
	return left, err
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	for err == nil && (p.atOp("*") || p.atOp("/") || p.atOp("%")) {
		left, err = p.parseBinary(p.text(), left, p.parseUnary)
	}
	return left, err
}

func (p *Parser) parseUnary() (Expr, error) {
	minus := p.atOp("-")
	if !minus && !p.atOp("+") {
		return p.parsePrimary()
	}
	p.advance()
	operand, err := p.parseUnary()
	if err != nil || !minus {
		return operand, err
	}
	// Fold unary minus into integer/float literals the way MySQL's parser
	// does, so "-1" is a single INT_ITEM in the QS. The literal was made
	// for this operand alone — it is the one made last, whatever
	// parentheses and signs stand around it — so it is negated in place; a
	// template's literal is a slot, which takes the sign.
	switch x := operand.(type) {
	case *Literal:
		if x.Kind == LiteralInt || x.Kind == LiteralFloat {
			*x = negate(p.src, p.lit, *x)
			return x, nil
		}
	case *Placeholder:
		if p.tmpl != nil {
			if s := &p.tmpl.slots[x.Index]; p.toks[s.tok].kind != TokenString {
				s.neg = !s.neg
				return x, nil
			}
		}
	}
	return &UnaryExpr{Op: "-", Operand: operand}, nil
}

// negate folds one unary minus into lit, the numeric literal token t of
// src spells. 9223372036854775808 fits no int64 and is a double, but its
// negation is the least BIGINT, as in MySQL — and that one's negation is
// the double again.
func negate(src string, t token, lit Literal) Literal {
	switch {
	case lit.Kind == LiteralInt && lit.Int == math.MinInt64:
		return Literal{Kind: LiteralFloat, Float: -math.MinInt64}
	case lit.Kind == LiteralInt:
		lit.Int = -lit.Int
	case t.kind == TokenInt && src[t.start:t.end] == "9223372036854775808":
		return Literal{Kind: LiteralInt, Int: math.MinInt64}
	default:
		lit.Float = -lit.Float
	}
	return lit
}

// literalOf converts the literal token t of src to its value: the one
// conversion a parse and a template's Value share.
func literalOf(src string, t token) (Literal, error) {
	text, what := t.text(src), "float"
	switch t.kind {
	case TokenString:
		return Literal{Kind: LiteralString, Str: text}, nil
	case TokenInt:
		if n, err := strconv.ParseInt(text, 10, 64); err == nil {
			return Literal{Kind: LiteralInt, Int: n}, nil
		}
		what = "numeric" // out of range: MySQL widens to double
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return Literal{}, &SyntaxError{Pos: int(t.start), Msg: fmt.Sprintf("invalid %s literal %q", what, text)}
	}
	return Literal{Kind: LiteralFloat, Float: f}, nil
}

// literal consumes the current token and returns lit as its node.
func (p *Parser) literal(lit Literal) (Expr, error) {
	p.lit = p.tok
	p.advance()
	l := take(&p.slab.lits, p.slab.nLits)
	*l = lit
	return l, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch p.tok.kind {
	case TokenInt, TokenFloat, TokenString:
		lit, err := literalOf(p.src, p.tok)
		switch {
		case err != nil:
			return nil, err
		case p.tmpl == nil:
			return p.literal(lit)
		case p.structural > 0:
			return nil, ErrUnshareable
		}
		// A template's literal: a numbered slot that remembers its token.
		if p.tmpl.slots == nil {
			p.tmpl.slots = make([]slot, 0, p.slab.nLits)
		}
		p.tmpl.slots = append(p.tmpl.slots, slot{tok: int32(p.pos)})
		ph := take(&p.slab.slots, p.slab.nLits)
		ph.Index = len(p.tmpl.slots) - 1
		p.advance()
		p.params++
		return ph, nil
	case TokenPlaceholder:
		p.advance()
		p.params++
		return &Placeholder{Index: p.params - 1}, nil
	case TokenLParen:
		p.advance()
		var (
			inner Expr
			err   error
		)
		if p.atKeyword("SELECT") {
			var sub *SelectStmt
			sub, err = p.parseSelect()
			inner = &SubqueryExpr{Select: sub}
		} else {
			inner, err = p.parseExpr()
		}
		if err != nil {
			return nil, err
		}
		if err := p.expect(TokenRParen); err != nil {
			return nil, err
		}
		return inner, nil
	case TokenKeyword:
		switch name := p.keyword(); name {
		case "NULL":
			return p.literal(Literal{Kind: LiteralNull})
		case "TRUE", "FALSE":
			return p.literal(Literal{Kind: LiteralBool, Bool: name == "TRUE"})
		case "EXISTS":
			p.advance()
			if err := p.expect(TokenLParen); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expect(TokenRParen); err != nil {
				return nil, err
			}
			return &ExistsExpr{Select: sub}, nil
		case "NOT":
			p.advance()
			operand, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return &UnaryExpr{Op: "NOT", Operand: operand}, nil
		case "CASE":
			return p.parseCase()
		case "IF", "LEFT", "RIGHT":
			// Keywords that double as function names: IF(c,a,b),
			// LEFT(s,n), RIGHT(s,n).
			p.advance()
			if p.tok.kind != TokenLParen {
				return nil, p.errorf("expected '(' after %s", name)
			}
			return p.parseFuncCall(name)
		}
		return nil, p.errorf("unexpected keyword %q in expression", p.text())
	case TokenIdent:
		name := p.text()
		p.advance()
		if p.tok.kind == TokenLParen {
			return p.parseFuncCall(name)
		}
		col := take(&p.slab.cols, p.slab.nCols)
		*col = ColumnRef{Name: name}
		if p.accept(TokenDot) {
			field, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			*col = ColumnRef{Table: name, Name: field}
		}
		return col, nil
	default:
		return nil, p.errorf("unexpected %s %q in expression", p.tok.kind, p.text())
	}
}

// parseCase parses both CASE forms (operand and searched).
func (p *Parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	var err error
	if !p.atKeyword("WHEN") {
		if c.Operand, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	for p.acceptKeyword("WHEN") {
		var when WhenClause
		if when.Cond, err = p.parseExpr(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		if when.Result, err = p.parseExpr(); err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, when)
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE needs at least one WHEN arm")
	}
	if p.acceptKeyword("ELSE") {
		if c.Else, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

// parseFuncCall parses the call of the function name; the current token
// is its '('.
func (p *Parser) parseFuncCall(name string) (Expr, error) {
	p.advance()
	call := &FuncCall{Name: strings.ToUpper(name)}
	switch {
	case p.accept(TokenRParen):
		return call, nil
	case p.atOp("*"):
		call.Star = true
		p.advance()
	default:
		call.Distinct = p.acceptKeyword("DISTINCT")
		var err error
		if call.Args, err = p.parseExprList(); err != nil {
			return nil, err
		}
	}
	return call, p.expect(TokenRParen)
}
