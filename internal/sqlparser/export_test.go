package sqlparser

// Test-only exports for the external golden differential, which has to
// live in package sqlparser_test to import the attack corpus and the
// applications (both import this package).
var (
	FuzzSeeds   = fuzzSeeds
	LexerInputs = lexerInputs
)
