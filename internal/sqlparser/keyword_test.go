package sqlparser_test

import (
	"testing"

	"github.com/septic-db/septic/internal/sqlparser"
)

// TestLookupKeywordAgreesWithAMap holds the scanner's perfect hash to the
// map it replaced — a word upper-cased byte by byte and looked up — over
// every reserved word in every letter case, every near miss one byte away
// from one, and every bare word of the recorded statement texts and of
// FuzzParse's corpus.
func TestLookupKeywordAgreesWithAMap(t *testing.T) {
	ref := make(map[string]bool, len(sqlparser.KeywordNames))
	for _, kw := range sqlparser.KeywordNames {
		ref[kw] = true
	}
	isLetter := func(c byte) bool { return c|0x20 >= 'a' && c|0x20 <= 'z' }
	checked := 0
	check := func(word []byte) {
		checked++
		upper := make([]byte, len(word))
		for i, c := range word {
			if c >= 'a' && c <= 'z' {
				c -= 'a' - 'A'
			}
			upper[i] = c
		}
		got, ok := sqlparser.LookupKeyword(string(word))
		if ok != ref[string(upper)] || (ok && got != string(upper)) {
			t.Fatalf("lookupKeyword(%q) = %q, %t; the map says %t", word, got, ok, ref[string(upper)])
		}
	}
	const identBytes = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_$\x7f\x1f@`"
	for _, kw := range sqlparser.KeywordNames {
		var letters []int
		for i := range kw {
			if isLetter(kw[i]) {
				letters = append(letters, i)
			}
		}
		word := []byte(kw)
		for mask := 0; mask < 1<<len(letters); mask++ {
			for bit, i := range letters {
				word[i] = kw[i]
				if mask>>bit&1 == 1 {
					word[i] |= 0x20
				}
			}
			check(word)
		}
		for i := range kw {
			for _, c := range []byte(identBytes) {
				word = append(word[:0], kw...)
				word[i] = c
				check(word)
			}
		}
		check(append([]byte(kw), 'x'))
		check([]byte(kw[1:]))
		check([]byte(kw[:len(kw)-1]))
	}
	texts := append(append(goldenTexts(t), fuzzCorpus(t)...), sqlparser.FuzzSeeds...)
	for _, text := range texts {
		start := -1
		for i := 0; i <= len(text); i++ {
			part := i < len(text) && (isLetter(text[i]) || text[i] == '_' || text[i] == '$' || (text[i] >= '0' && text[i] <= '9'))
			switch {
			case part && start < 0:
				start = i
			case !part && start >= 0:
				check([]byte(text[start:i]))
				start = -1
			}
		}
	}
	t.Logf("%d words", checked)
}
