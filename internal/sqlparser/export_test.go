package sqlparser

// Test-only exports for the external golden differential, which has to
// live in package sqlparser_test to import the attack corpus and the
// applications (both import this package).
var (
	FuzzSeeds   = fuzzSeeds
	LexerInputs = lexerInputs
)

// LiteralSpans returns, for every integer, float and string literal of
// src in order, the byte range of its spelling and its token kind.
func LiteralSpans(src string) (spans [][2]int, kinds []TokenKind) {
	p := Scan(src)
	defer p.Release()
	for _, t := range p.toks {
		switch t.kind {
		case TokenInt, TokenFloat, TokenString:
			spans = append(spans, [2]int{int(t.start), int(t.end)})
			kinds = append(kinds, t.kind)
		}
	}
	return spans, kinds
}

// LookupKeyword is the scanner's reserved-word lookup.
func LookupKeyword(word string) (string, bool) {
	kw, ok := lookupKeyword(word)
	if !ok {
		return "", false
	}
	return keywordNames[kw], true
}

// KeywordNames lists the reserved words.
var KeywordNames = keywordNames[:]
