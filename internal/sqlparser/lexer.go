package sqlparser

import (
	"fmt"
	"math"
	"strings"
)

// The scanner mirrors MySQL's in the behaviours that matter for injection
// analysis: backslash escape processing inside string literals, quote
// doubling ('' -> '), the three comment syntaxes (/* */, -- with a
// following space or end of line, and #), and case-insensitive keywords.
//
// It runs once over the whole (already charset-decoded) text and records
// every token as offsets into it. A lexical error does not stop the caller
// at once: it becomes the last token of the slice, and is raised only when
// the parser reaches it — so a text that is grammatically wrong before it
// is lexically wrong reports the grammatical error, exactly as it did when
// tokens were scanned one at a time on demand.

// SyntaxError describes a lexical or grammatical error with its position.
type SyntaxError struct {
	Pos int
	Msg string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("syntax error at byte %d: %s", e.Pos, e.Msg)
}

// Lexical error codes, carried in a tokenError's aux field.
const (
	lexUnexpectedChar uint8 = iota
	lexUnterminatedComment
	lexUnterminatedString
	lexUnterminatedIdent
	lexEmptyIdent
	lexTooLong
)

var lexMessages = [...]string{
	lexUnterminatedComment: "unterminated block comment",
	lexUnterminatedString:  "unterminated string literal",
	lexUnterminatedIdent:   "unterminated quoted identifier",
	// MySQL rejects `` (ERROR 1064); accepting it here would also break
	// the Format round trip, since an empty name renders as no identifier
	// at all.
	lexEmptyIdent: "empty quoted identifier",
	lexTooLong:    "query text too long",
}

// lexError renders the error token t of a scan over src.
func lexError(src string, t token) *SyntaxError {
	msg := lexMessages[t.aux]
	if t.aux == lexUnexpectedChar {
		msg = fmt.Sprintf("unexpected character %q", rune(src[t.start]))
	}
	return &SyntaxError{Pos: int(t.start), Msg: msg}
}

// errorToken is the token that ends a scan at byte pos with the given
// lexical error.
func errorToken(code uint8, pos int) token {
	return token{kind: tokenError, aux: code, start: int32(pos), end: int32(pos)}
}

// byteAt returns src[i], or 0 past the end.
func byteAt(src string, i int) byte {
	if i >= len(src) {
		return 0
	}
	return src[i]
}

// scan appends the tokens of src to toks, comments included. The last
// token is TokenEOF, or a tokenError at the offending byte.
func scan(src string, toks []token) []token {
	if len(src) > math.MaxInt32 {
		return append(toks, errorToken(lexTooLong, 0))
	}
	i := 0
	for {
		for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r') {
			i++
		}
		start := i
		if i >= len(src) {
			return append(toks, token{kind: TokenEOF, start: int32(start), end: int32(start)})
		}
		kind, aux := TokenOperator, uint8(0)
		c := src[i]
		switch {
		case c == '/' && byteAt(src, i+1) == '*':
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return append(toks, errorToken(lexUnterminatedComment, start))
			}
			kind, i = TokenComment, i+2+end+2
		case c == '#', c == '-' && byteAt(src, i+1) == '-' && isLineCommentStart(byteAt(src, i+2)):
			kind = TokenComment
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '\'' || c == '"':
			// A quoted string. Escapes and doubled quotes are only noted
			// here; text decodes them, the way MySQL's scanner does.
			for i++; i < len(src) && (src[i] != c || byteAt(src, i+1) == c); i++ {
				if (src[i] == '\\' || src[i] == c) && i+1 < len(src) {
					aux = 1
					i++
				}
			}
			if i >= len(src) {
				return append(toks, errorToken(lexUnterminatedString, start))
			}
			kind, i = TokenString, i+1
		case c == '`':
			end := strings.IndexByte(src[i+1:], '`')
			if end < 0 {
				return append(toks, errorToken(lexUnterminatedIdent, start))
			}
			if end == 0 {
				return append(toks, errorToken(lexEmptyIdent, start))
			}
			kind, i = TokenIdent, i+1+end+1
		case c == '0' && (byteAt(src, i+1) == 'x' || byteAt(src, i+1) == 'X') && isHexDigit(byteAt(src, i+2)):
			// A MySQL hexadecimal literal (0x6162...), which the server
			// treats as a binary STRING — the property attackers exploit
			// to smuggle string values without quote characters.
			kind = TokenString
			for i += 2; i < len(src) && isHexDigit(src[i]); i++ {
			}
		case isDigit(c) || (c == '.' && isDigit(byteAt(src, i+1))):
			kind, i = scanNumber(src, i)
		case isIdentStart(c):
			for i < len(src) && isIdentPart(src[i]) {
				i++
			}
			kind = TokenIdent
			if kw, ok := lookupKeyword(src[start:i]); ok {
				kind, aux = TokenKeyword, kw
			}
		case c == ',':
			kind, i = TokenComma, i+1
		case c == '.':
			kind, i = TokenDot, i+1
		case c == '(':
			kind, i = TokenLParen, i+1
		case c == ')':
			kind, i = TokenRParen, i+1
		case c == ';':
			kind, i = TokenSemicolon, i+1
		case c == '?':
			kind, i = TokenPlaceholder, i+1
		case strings.IndexByte(operatorStarts, c) >= 0:
			i++
			if i < len(src) {
				switch src[start : i+1] {
				case "<=", ">=", "<>", "!=", "&&", "||", "<<", ">>":
					i++
				}
			}
		default:
			return append(toks, errorToken(lexUnexpectedChar, start))
		}
		toks = append(toks, token{kind: kind, aux: aux, start: int32(start), end: int32(i)})
	}
}

// isLineCommentStart reports whether next, the byte after a "--", lets it
// start a comment. MySQL requires "--" to be followed by whitespace or end
// of input (unlike standard SQL), which is why the classic payloads end in
// "-- " with a trailing space.
func isLineCommentStart(next byte) bool {
	return next == 0 || next == ' ' || next == '\t' || next == '\n' || next == '\r'
}

// scanNumber scans the number starting at src[i] and returns its kind and
// the offset after it.
func scanNumber(src string, i int) (TokenKind, int) {
	start := i
	kind := TokenInt
	sawExp := false
	for i < len(src) {
		c := src[i]
		switch {
		case isDigit(c):
			i++
		case c == '.' && kind == TokenInt:
			kind = TokenFloat
			i++
		case (c == 'e' || c == 'E') && !sawExp && i > start && isDigit(src[i-1]):
			next := byteAt(src, i+1)
			if !isDigit(next) && !((next == '+' || next == '-') && isDigit(byteAt(src, i+2))) {
				return kind, i
			}
			kind, sawExp = TokenFloat, true
			i += 2 // the digit or sign just checked is part of the exponent
		default:
			return kind, i
		}
	}
	return kind, i
}

// lookupKeyword reports whether word is a reserved word in any letter
// case, and its index in keywordNames.
func lookupKeyword(word string) (uint8, bool) {
	if len(word) > maxKeywordLen {
		return 0, false
	}
	slot := keywordSlots[keywordHash(word)]
	if slot == 0 || len(keywordNames[slot-1]) != len(word) {
		return 0, false
	}
	for i, c := range []byte(keywordNames[slot-1]) {
		w := word[i]
		if w >= 'a' && w <= 'z' {
			w -= 'a' - 'A'
		}
		if w != c {
			return 0, false
		}
	}
	return slot - 1, true
}

// text returns the token's decoded text — what Token.Text documents, and
// what the AST keeps. Only two spellings are copied: a quoted string with
// an escape or a doubled quote in it, and a hex literal. Everything else
// is a substring of src (or a constant), so an identifier, a number, a
// comment and an escape-free string literal all share the statement's
// text.
func (t token) text(src string) string {
	raw := src[t.start:t.end]
	switch t.kind {
	case TokenKeyword:
		return keywordNames[t.aux]
	case TokenIdent:
		if raw[0] == '`' {
			return raw[1 : len(raw)-1]
		}
	case TokenString:
		switch {
		case raw[0] == '0':
			return decodeHex(raw[2:])
		case t.aux != 0:
			return unescape(raw[1:len(raw)-1], raw[0])
		}
		return raw[1 : len(raw)-1]
	case TokenComment:
		switch raw[0] {
		case '/':
			raw = raw[2 : len(raw)-2]
		case '-':
			raw = raw[2:]
		default:
			raw = raw[1:]
		}
		return strings.TrimSpace(raw)
	}
	return raw
}

// unescape decodes the body of a string literal quoted with quote,
// processing backslash escapes and quote doubling the way MySQL's scanner
// does, into one buffer of exactly the decoded size. This is where a
// stored "\'" collapses to a plain quote, enabling second-order injection
// when the value is later concatenated into another query.
func unescape(body string, quote byte) string {
	// \% and \_ pass through WITH the backslash: they are LIKE-pattern
	// escapes, resolved by LIKE itself, not by the scanner (MySQL manual,
	// string literals). Every other pair decodes to one byte.
	keepsBackslash := func(next byte) bool { return next == '%' || next == '_' }
	n := len(body)
	for i := 0; i+1 < len(body); i++ {
		if c := body[i]; c == '\\' || c == quote {
			if c == quote || !keepsBackslash(body[i+1]) {
				n--
			}
			i++
		}
	}
	var b strings.Builder
	b.Grow(n)
	for i := 0; i < len(body); i++ {
		c := body[i]
		if (c == '\\' || c == quote) && i+1 < len(body) {
			i++
			switch next := body[i]; {
			case c == quote: // doubled quote: a literal quote
			case keepsBackslash(next):
				b.WriteByte('\\')
				c = next
			default:
				c = unescapeByte(next)
			}
		}
		b.WriteByte(c)
	}
	return b.String()
}

// unescapeByte maps the byte after a backslash to its decoded value,
// following MySQL's escape table (NO_BACKSLASH_ESCAPES off, the default).
func unescapeByte(c byte) byte {
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case 'b':
		return '\b'
	case 'Z':
		return 0x1a
	default:
		// \' \" \\ and anything else: the escaped byte itself.
		return c
	}
}

// decodeHex decodes the digits of a hexadecimal literal. Odd-length
// literals are left-padded with a zero nibble, as MySQL does.
func decodeHex(digits string) string {
	var b strings.Builder
	b.Grow((len(digits) + 1) / 2)
	i := 0
	if len(digits)%2 == 1 {
		b.WriteByte(hexNibble(digits[0]))
		i = 1
	}
	for ; i < len(digits); i += 2 {
		b.WriteByte(hexNibble(digits[i])<<4 | hexNibble(digits[i+1]))
	}
	return b.String()
}

func isHexDigit(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

// hexNibble returns the value of the hexadecimal digit c.
func hexNibble(c byte) byte {
	switch {
	case c >= 'a':
		return c - 'a' + 10
	case c >= 'A':
		return c - 'A' + 10
	default:
		return c - '0'
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

// Tokenize scans input and returns all tokens up to and including EOF.
// Comment tokens are included in the stream.
func Tokenize(input string) ([]Token, error) {
	p := Scan(input)
	defer p.Release()
	out := make([]Token, 0, len(p.toks))
	for _, t := range p.toks {
		if t.kind == tokenError {
			return nil, lexError(input, t)
		}
		out = append(out, Token{Kind: t.kind, Text: t.text(input), Pos: int(t.start)})
	}
	return out, nil
}
