// Package sqlparser implements a MySQL-flavoured SQL lexer and parser.
//
// The parser is the first half of the "DBMS substrate" this repository
// builds to host SEPTIC: it reproduces the parse/validate stage of MySQL,
// including the parse-time character decodings that give rise to the
// semantic-mismatch vulnerabilities the paper demonstrates (see
// DESIGN.md §4). Queries are decoded, tokenized and parsed into an AST;
// package qstruct then flattens the AST into the stack-of-items
// representation (query structure) that SEPTIC compares against learned
// query models.
package sqlparser

import "fmt"

// TokenKind identifies the lexical class of a token.
type TokenKind uint8

// Token kinds. Enums start at 1 so the zero value is invalid.
const (
	TokenInvalid TokenKind = iota // zero value, never produced by the lexer
	TokenIdent
	TokenKeyword
	TokenString
	TokenInt
	TokenFloat
	TokenOperator
	TokenComma
	TokenDot
	TokenLParen
	TokenRParen
	TokenSemicolon
	TokenComment
	TokenPlaceholder // '?' parameter marker
	TokenEOF
	// tokenError ends a scan that met a lexical error; its aux field says
	// which. Tokenize and the parser turn it into a *SyntaxError, so it is
	// never handed out as a Token.
	tokenError
)

var tokenKindNames = map[TokenKind]string{
	TokenInvalid:     "invalid",
	TokenIdent:       "identifier",
	TokenKeyword:     "keyword",
	TokenString:      "string",
	TokenInt:         "integer",
	TokenFloat:       "float",
	TokenOperator:    "operator",
	TokenComma:       "comma",
	TokenDot:         "dot",
	TokenLParen:      "left parenthesis",
	TokenRParen:      "right parenthesis",
	TokenSemicolon:   "semicolon",
	TokenComment:     "comment",
	TokenPlaceholder: "placeholder",
	TokenEOF:         "end of input",
}

// String returns a human-readable name for the token kind.
func (k TokenKind) String() string {
	if s, ok := tokenKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("TokenKind(%d)", int(k))
}

// Token is a single lexical token with its source position.
type Token struct {
	Kind TokenKind
	// Text is the token's decoded text. For TokenString it is the string
	// value after escape processing; for TokenComment it is the comment
	// body without the delimiters; for keywords it is upper-cased.
	Text string
	// Pos is the byte offset of the token's first byte in the decoded
	// query text.
	Pos int
}

// String implements fmt.Stringer for debugging output.
func (t Token) String() string {
	return fmt.Sprintf("%s(%q)@%d", t.Kind, t.Text, t.Pos)
}

// token is a token as the scanner records it: its kind and the byte range
// of its spelling in the scanned text, delimiters included (quotes,
// backticks, comment markers, "0x"). No text is copied until something
// keeps it: see text.
type token struct {
	kind TokenKind
	// aux depends on kind: the index into keywordNames of a TokenKeyword;
	// 1 for a quoted TokenString whose body holds a backslash escape or a
	// doubled quote (0: the value is the body as spelled); the lexical
	// error code of a tokenError.
	aux        uint8
	start, end int32
}

// keywordNames lists the reserved words in their canonical upper-case
// spelling. The order of the first entries is load-bearing: the parser's
// sizing passes classify a keyword token by comparing its index with the
// three bounds below instead of comparing strings.
var keywordNames = [...]string{
	// Literal keywords: each becomes a Literal node.
	"NULL", "TRUE", "FALSE",
	// Operator keywords: each becomes a BinaryExpr node.
	"AND", "OR", "XOR", "LIKE",
	// Clause keywords: each ends the comma-separated list before it.
	"FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "UNION",
	"SELECT", "NOT",
	"INSERT", "INTO", "VALUES",
	"UPDATE", "SET",
	"DELETE",
	"CREATE", "TABLE", "DROP",
	"IF", "EXISTS",
	"PRIMARY", "KEY", "AUTO_INCREMENT",
	"INT", "INTEGER", "BIGINT",
	"FLOAT", "DOUBLE", "REAL",
	"TEXT", "VARCHAR", "CHAR",
	"BOOL", "BOOLEAN", "DATETIME",
	"BY", "ASC", "DESC", "OFFSET",
	"AS", "DISTINCT", "ALL",
	"JOIN", "INNER", "LEFT", "RIGHT",
	"OUTER", "CROSS", "ON",
	"IN", "IS", "BETWEEN",
	"BEGIN", "COMMIT", "ROLLBACK",
	"SHOW", "TABLES", "DESCRIBE",
	"EXPLAIN",
	"CASE", "WHEN", "THEN", "ELSE", "END",
	"DEFAULT", "UNIQUE",
}

// Upper index bounds of the keyword classes at the head of keywordNames.
const (
	kwLiteralEnd = 3
	kwBinaryEnd  = 7
	kwClauseEnd  = 14
)

// maxKeywordLen is the length of the longest reserved word
// (AUTO_INCREMENT, with room to spare): a longer word is an identifier
// without a lookup.
const maxKeywordLen = 16

// The reserved words are found by a perfect hash: a word's bytes, letter
// case folded, are mixed into 8 bits that select one slot of keywordSlots,
// and the one keyword that may sit there is compared with the word. The
// multiplier was searched for (the first odd one that gives the 73 words
// 73 slots); init fills the table and refuses to start on a collision, so
// a word added to keywordNames that breaks it says so at once.
const keywordMul = 37675

// keywordSlots holds, per hash value, the index in keywordNames of the
// keyword hashing to it plus one; 0 is an empty slot.
var keywordSlots = func() (slots [256]uint8) {
	for i, kw := range keywordNames {
		slot := &slots[keywordHash(kw)]
		if *slot != 0 || len(kw) > maxKeywordLen {
			panic("sqlparser: keyword " + kw + " does not fit the keyword hash: search for a new keywordMul")
		}
		*slot = uint8(i) + 1
	}
	return slots
}()

// keywordHash hashes word with its ASCII letters folded to one case:
// OR-ing 0x20 into a byte folds a letter, and what else it merges only
// shares a slot — lookupKeyword's comparison is exact.
func keywordHash(word string) uint8 {
	h := uint32(len(word))
	for i := 0; i < len(word); i++ {
		h = h*keywordMul + uint32(word[i]|0x20)
	}
	return uint8(h * 2654435761 >> 24)
}

// operatorStarts lists the runes that can begin an operator token.
const operatorStarts = "=<>!+-*/%&|^~"
