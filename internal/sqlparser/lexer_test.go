package sqlparser

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func kinds(toks []Token) []TokenKind {
	out := make([]TokenKind, 0, len(toks))
	for _, t := range toks {
		out = append(out, t.Kind)
	}
	return out
}

func TestTokenizeBasicSelect(t *testing.T) {
	toks, err := Tokenize("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	want := []struct {
		kind TokenKind
		text string
	}{
		{TokenKeyword, "SELECT"},
		{TokenOperator, "*"},
		{TokenKeyword, "FROM"},
		{TokenIdent, "tickets"},
		{TokenKeyword, "WHERE"},
		{TokenIdent, "reservID"},
		{TokenOperator, "="},
		{TokenString, "ID34FG"},
		{TokenKeyword, "AND"},
		{TokenIdent, "creditCard"},
		{TokenOperator, "="},
		{TokenInt, "1234"},
		{TokenEOF, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(toks), kinds(toks), len(want))
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = %v, want %s %q", i, toks[i], w.kind, w.text)
		}
	}
}

func TestTokenizeKeywordsCaseInsensitive(t *testing.T) {
	toks, err := Tokenize("select FrOm where AnD")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	want := []string{"SELECT", "FROM", "WHERE", "AND"}
	for i, w := range want {
		if toks[i].Kind != TokenKeyword || toks[i].Text != w {
			t.Errorf("token %d = %v, want keyword %q", i, toks[i], w)
		}
	}
}

func TestTokenizeStringEscapes(t *testing.T) {
	tests := []struct {
		name  string
		input string
		want  string
	}{
		{"backslash quote", `'a\'b'`, "a'b"},
		{"doubled quote", `'a''b'`, "a'b"},
		{"backslash backslash", `'a\\b'`, `a\b`},
		{"newline escape", `'a\nb'`, "a\nb"},
		{"tab escape", `'a\tb'`, "a\tb"},
		{"nul escape", `'a\0b'`, "a\x00b"},
		{"ctrl-z escape", `'a\Zb'`, "a\x1ab"},
		{"unknown escape passes through", `'a\qb'`, "aqb"},
		{"double quoted", `"hello"`, "hello"},
		// \% and \_ keep their backslash: they are LIKE-pattern escapes
		// that the scanner must pass through for LIKE to resolve.
		{"percent keeps backslash", `'100\%'`, `100\%`},
		{"underscore keeps backslash", `'a\_b'`, `a\_b`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			toks, err := Tokenize(tt.input)
			if err != nil {
				t.Fatalf("Tokenize(%q): %v", tt.input, err)
			}
			if toks[0].Kind != TokenString || toks[0].Text != tt.want {
				t.Errorf("got %v, want string %q", toks[0], tt.want)
			}
		})
	}
}

func TestTokenizeUnterminatedString(t *testing.T) {
	_, err := Tokenize("SELECT 'oops")
	var serr *SyntaxError
	if !errors.As(err, &serr) {
		t.Fatalf("want *SyntaxError, got %v", err)
	}
	if !strings.Contains(serr.Msg, "unterminated string") {
		t.Errorf("unexpected message %q", serr.Msg)
	}
}

func TestTokenizeComments(t *testing.T) {
	tests := []struct {
		name     string
		input    string
		wantBody string
	}{
		{"block", "/* id42 */ SELECT 1", "id42"},
		{"dash with space", "SELECT 1 -- trailing", "trailing"},
		{"hash", "SELECT 1 # trailing", "trailing"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			toks, err := Tokenize(tt.input)
			if err != nil {
				t.Fatalf("Tokenize: %v", err)
			}
			var comment string
			for _, tok := range toks {
				if tok.Kind == TokenComment {
					comment = tok.Text
				}
			}
			if comment != tt.wantBody {
				t.Errorf("comment = %q, want %q", comment, tt.wantBody)
			}
		})
	}
}

// TestTokenizeDashDashNeedsSpace checks the MySQL-specific rule that "--"
// only starts a comment when followed by whitespace, which is why
// injection payloads carry a trailing space after "--".
func TestTokenizeDashDashNeedsSpace(t *testing.T) {
	toks, err := Tokenize("SELECT 5--3")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	// 5 - - 3: two operator tokens, not a comment.
	var ops int
	for _, tok := range toks {
		if tok.Kind == TokenOperator && tok.Text == "-" {
			ops++
		}
		if tok.Kind == TokenComment {
			t.Fatalf("'--' without trailing space must not start a comment")
		}
	}
	if ops != 2 {
		t.Errorf("got %d '-' operators, want 2", ops)
	}

	toks, err = Tokenize("SELECT 5-- 3")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	if toks[2].Kind != TokenComment {
		t.Errorf("'-- ' must start a comment, got %v", toks[2])
	}
}

func TestTokenizeNumbers(t *testing.T) {
	tests := []struct {
		input string
		kind  TokenKind
	}{
		{"42", TokenInt},
		{"0", TokenInt},
		{"3.14", TokenFloat},
		{".5", TokenFloat},
		{"1e9", TokenFloat},
		{"2E-3", TokenFloat},
		{"6.02e+23", TokenFloat},
	}
	for _, tt := range tests {
		toks, err := Tokenize(tt.input)
		if err != nil {
			t.Fatalf("Tokenize(%q): %v", tt.input, err)
		}
		if toks[0].Kind != tt.kind || toks[0].Text != tt.input {
			t.Errorf("Tokenize(%q) = %v, want %s", tt.input, toks[0], tt.kind)
		}
	}
}

// TestTokenizeHexLiterals: MySQL hex literals are binary strings — the
// quoteless way to smuggle string values past quote-anchored filters.
func TestTokenizeHexLiterals(t *testing.T) {
	tests := []struct{ in, want string }{
		{"0x41", "A"},
		{"0x6f70657261746f72", "operator"},
		{"0X41", "A"},
		{"0xA", "\n"}, // odd length pads left: 0x0A
		{"0x", ""},    // not a hex literal: number 0 then ident x
	}
	for _, tt := range tests {
		toks, err := Tokenize(tt.in)
		if err != nil {
			t.Fatalf("Tokenize(%q): %v", tt.in, err)
		}
		if tt.in == "0x" {
			if toks[0].Kind != TokenInt {
				t.Errorf("bare 0x should lex as number then ident, got %v", toks)
			}
			continue
		}
		if toks[0].Kind != TokenString || toks[0].Text != tt.want {
			t.Errorf("Tokenize(%q) = %v, want string %q", tt.in, toks[0], tt.want)
		}
	}
}

func TestHexLiteralInQuery(t *testing.T) {
	stmt := mustParseLex(t, "SELECT * FROM u WHERE name = 0x6f70657261746f72")
	_ = stmt
}

func mustParseLex(t *testing.T, q string) Statement {
	t.Helper()
	stmt, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return stmt
}

func TestTokenizeOperators(t *testing.T) {
	toks, err := Tokenize("= <> != <= >= < > + - * / %")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	want := []string{"=", "<>", "!=", "<=", ">=", "<", ">", "+", "-", "*", "/", "%"}
	for i, w := range want {
		if toks[i].Kind != TokenOperator || toks[i].Text != w {
			t.Errorf("token %d = %v, want operator %q", i, toks[i], w)
		}
	}
}

func TestTokenizeBacktickIdent(t *testing.T) {
	toks, err := Tokenize("SELECT `select` FROM `weird table`")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	if toks[1].Kind != TokenIdent || toks[1].Text != "select" {
		t.Errorf("backticked keyword should be identifier, got %v", toks[1])
	}
	if toks[3].Kind != TokenIdent || toks[3].Text != "weird table" {
		t.Errorf("backticked name = %v, want %q", toks[3], "weird table")
	}
}

func TestTokenizePlaceholder(t *testing.T) {
	toks, err := Tokenize("SELECT ? , ?")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	if toks[1].Kind != TokenPlaceholder || toks[3].Kind != TokenPlaceholder {
		t.Errorf("want placeholders, got %v", kinds(toks))
	}
}

// TestLexerCommentsAccumulate: comments stay in the token stream, in
// source order, for the parser to attach to statements.
func TestLexerCommentsAccumulate(t *testing.T) {
	toks, err := Tokenize("/* a */ SELECT 1 /* b */")
	if err != nil {
		t.Fatalf("Tokenize: %v", err)
	}
	var got []string
	for _, tok := range toks {
		if tok.Kind == TokenComment {
			got = append(got, tok.Text)
		}
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("comments = %v, want [a b]", got)
	}
}

// TestTokenizeNeverPanics is a property test: the lexer must return a
// token stream or an error for arbitrary byte soup, never panic or loop.
func TestTokenizeNeverPanics(t *testing.T) {
	f := func(s string) bool {
		toks, err := Tokenize(s)
		if err != nil {
			return true
		}
		return len(toks) > 0 && toks[len(toks)-1].Kind == TokenEOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestStringRoundTrip is a property test: escaping then lexing any string
// value must return the original value.
func TestStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		quoted := "'" + EscapeString(s) + "'"
		toks, err := Tokenize(quoted)
		if err != nil {
			return false
		}
		return toks[0].Kind == TokenString && toks[0].Text == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// lexerInputs lists every text the tests above tokenize, for the golden
// differential (golden_test.go) to replay through Tokenize and Parse.
var lexerInputs = []string{
	"SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234",
	"select FrOm where AnD",
	`'a\'b'`, `'a''b'`, `'a\\b'`, `'a\nb'`, `'a\tb'`, `'a\0b'`, `'a\Zb'`, `'a\qb'`,
	`"hello"`, `'100\%'`, `'a\_b'`,
	"SELECT 'oops",
	"/* id42 */ SELECT 1", "SELECT 1 -- trailing", "SELECT 1 # trailing",
	"SELECT 5--3", "SELECT 5-- 3",
	"42", "0", "3.14", ".5", "1e9", "2E-3", "6.02e+23",
	"0x41", "0x6f70657261746f72", "0X41", "0xA", "0x",
	"SELECT * FROM u WHERE name = 0x6f70657261746f72",
	"= <> != <= >= < > + - * / %",
	"SELECT `select` FROM `weird table`",
	"SELECT ? , ?",
	"/* a */ SELECT 1 /* b */",
}
