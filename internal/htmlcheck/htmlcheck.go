// Package htmlcheck is a small HTML tokenizer used by SEPTIC's stored-XSS
// plugin. The plugin's second step "inserts this input in a web page and
// calls an HTML parser" (paper §II-D2): this package is that parser. It
// scans a text fragment as HTML and reports the constructs that make a
// stored value dangerous when echoed into a page: script tags, event
// handler attributes, script-carrying URLs and other active content.
package htmlcheck

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// FindingKind classifies a dangerous construct.
type FindingKind int

// Finding kinds. Enums start at 1 so the zero value is invalid.
const (
	KindInvalid FindingKind = iota
	// KindScriptTag is a <script> element.
	KindScriptTag
	// KindDangerousTag is an element that executes or loads active
	// content: iframe, object, embed, base, meta refresh, svg, ...
	KindDangerousTag
	// KindEventHandler is an on* attribute (onclick, onerror, ...).
	KindEventHandler
	// KindScriptURL is an attribute URL with a javascript:, vbscript: or
	// scriptable data: scheme.
	KindScriptURL
)

// String names the finding kind.
func (k FindingKind) String() string {
	switch k {
	case KindScriptTag:
		return "script-tag"
	case KindDangerousTag:
		return "dangerous-tag"
	case KindEventHandler:
		return "event-handler"
	case KindScriptURL:
		return "script-url"
	default:
		return fmt.Sprintf("FindingKind(%d)", int(k))
	}
}

// Finding is one dangerous construct located in the fragment.
type Finding struct {
	Kind FindingKind
	// Tag is the lower-cased element name the finding occurred in.
	Tag string
	// Detail names the offending attribute or URL, when applicable.
	Detail string
}

// String renders the finding for the SEPTIC event log.
func (f Finding) String() string {
	if f.Detail != "" {
		return fmt.Sprintf("%s in <%s>: %s", f.Kind, f.Tag, f.Detail)
	}
	return fmt.Sprintf("%s: <%s>", f.Kind, f.Tag)
}

// dangerousTags are elements whose mere presence in stored user content
// indicates active-content injection.
var dangerousTags = map[string]bool{
	"script": true, "iframe": true, "object": true, "embed": true,
	"base": true, "form": true, "svg": true, "math": true,
	"link": true, "style": true, "meta": true, "applet": true,
}

// urlAttrs are attributes whose value is a URL and can carry a script
// scheme.
var urlAttrs = map[string]bool{
	"href": true, "src": true, "action": true, "formaction": true,
	"data": true, "poster": true, "background": true, "xlink:href": true,
}

// Scan reads fragment as HTML, tolerating malformed markup, and returns
// every dangerous construct it recognises. It is no browser parser: it
// decodes only the character references that spell a script scheme in a
// URL attribute. A nil result means it found none.
func Scan(fragment string) []Finding {
	var findings []Finding
	s := scanner{input: fragment}
	for {
		tag, ok := s.nextTag()
		if !ok {
			return findings
		}
		name := strings.ToLower(tag.name)
		switch {
		case name == "script":
			findings = append(findings, Finding{Kind: KindScriptTag, Tag: name})
		case dangerousTags[name]:
			findings = append(findings, Finding{Kind: KindDangerousTag, Tag: name})
		}
		for _, attr := range tag.attrs {
			aname := strings.ToLower(attr.name)
			if strings.HasPrefix(aname, "on") && len(aname) > 2 {
				findings = append(findings, Finding{
					Kind:   KindEventHandler,
					Tag:    name,
					Detail: aname,
				})
				continue
			}
			if urlAttrs[aname] && hasScriptScheme(attr.value) {
				findings = append(findings, Finding{
					Kind:   KindScriptURL,
					Tag:    name,
					Detail: aname + "=" + attr.value,
				})
			}
		}
	}
}

// IsDangerous reports whether the fragment contains any active content.
func IsDangerous(fragment string) bool {
	return len(Scan(fragment)) > 0
}

// hasScriptScheme checks a URL for script-executing schemes, tolerating
// the whitespace/control-character obfuscation browsers tolerate
// ("java\tscript:", " javascript:") and the character references a
// browser decodes in an attribute value before it reads the URL
// ("jav&#x61;script:", "javascript&colon;").
func hasScriptScheme(url string) bool {
	if strings.IndexByte(url, '&') >= 0 {
		url = decodeRefs(url)
	}
	cleaned := make([]byte, 0, len(url))
	for i := 0; i < len(url); i++ {
		c := url[i]
		if c <= ' ' { // strip control characters and whitespace like browsers do
			continue
		}
		cleaned = append(cleaned, c)
	}
	lower := strings.ToLower(string(cleaned))
	return strings.HasPrefix(lower, "javascript:") ||
		strings.HasPrefix(lower, "vbscript:") ||
		strings.HasPrefix(lower, "data:text/html")
}

// namedRefs are the named character references that spell a scheme's
// colon or a blank a browser strips from it. Browsers know two thousand
// more; none of the others stands for a character a scheme is made of.
var namedRefs = map[string]rune{"&Tab;": '\t', "&NewLine;": '\n', "&colon;": ':'}

// decodeRefs replaces the character references in s the way a browser
// decodes an attribute value; an '&' that starts none stays.
func decodeRefs(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if r, n := charRef(s[i:]); n > 0 {
			b.WriteRune(r)
			i += n - 1
		} else {
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// charRef reads the reference s starts with, one of namedRefs or a numeric
// one, decimal or hex, with or without its ';': its character, U+FFFD for
// a number that names none, and its length, 0 if s starts no reference.
func charRef(s string) (rune, int) {
	for name, r := range namedRefs {
		if strings.HasPrefix(s, name) {
			return r, len(name)
		}
	}
	if len(s) < 3 || s[:2] != "&#" {
		return 0, 0
	}
	start, base, digits := 2, 10, "0123456789"
	if s[2]|0x20 == 'x' {
		start, base, digits = 3, 16, "0123456789abcdefABCDEF"
	}
	end := len(s) - len(strings.TrimLeft(s[start:], digits))
	if end == start {
		return 0, 0
	}
	v, err := strconv.ParseUint(s[start:end], base, 32)
	r := rune(v)
	if err != nil || r == 0 || !utf8.ValidRune(r) {
		r = utf8.RuneError
	}
	if strings.HasPrefix(s[end:], ";") {
		end++
	}
	return r, end
}

type attribute struct {
	name  string
	value string
}

type tag struct {
	name  string
	attrs []attribute
}

type scanner struct {
	input string
	pos   int
}

// nextTag advances to the next start tag and parses its attributes.
func (s *scanner) nextTag() (tag, bool) {
	for s.pos < len(s.input) {
		if s.input[s.pos] != '<' {
			s.pos++
			continue
		}
		s.pos++
		// Skip end tags, comments and doctype.
		if s.pos < len(s.input) && (s.input[s.pos] == '/' || s.input[s.pos] == '!') {
			continue
		}
		name := s.readName()
		if name == "" {
			continue
		}
		t := tag{name: name}
		for {
			s.skipSpace()
			if s.pos >= len(s.input) || s.input[s.pos] == '>' || s.input[s.pos] == '<' {
				if s.pos < len(s.input) && s.input[s.pos] == '>' {
					s.pos++
				}
				return t, true
			}
			if s.input[s.pos] == '/' {
				s.pos++
				continue
			}
			aname := s.readName()
			if aname == "" {
				s.pos++
				continue
			}
			attr := attribute{name: aname}
			s.skipSpace()
			if s.pos < len(s.input) && s.input[s.pos] == '=' {
				s.pos++
				s.skipSpace()
				attr.value = s.readValue()
			}
			t.attrs = append(t.attrs, attr)
		}
	}
	return tag{}, false
}

func (s *scanner) skipSpace() {
	for s.pos < len(s.input) {
		switch s.input[s.pos] {
		case ' ', '\t', '\n', '\r', '\f':
			s.pos++
		default:
			return
		}
	}
}

// readName reads a tag or attribute name.
func (s *scanner) readName() string {
	start := s.pos
	for s.pos < len(s.input) {
		c := s.input[s.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
			c == '>' || c == '/' || c == '=' || c == '<' {
			break
		}
		s.pos++
	}
	return s.input[start:s.pos]
}

// readValue reads an attribute value, quoted or bare.
func (s *scanner) readValue() string {
	if s.pos >= len(s.input) {
		return ""
	}
	quote := s.input[s.pos]
	if quote == '"' || quote == '\'' {
		s.pos++
		start := s.pos
		for s.pos < len(s.input) && s.input[s.pos] != quote {
			s.pos++
		}
		v := s.input[start:s.pos]
		if s.pos < len(s.input) {
			s.pos++
		}
		return v
	}
	start := s.pos
	for s.pos < len(s.input) {
		c := s.input[s.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '>' {
			break
		}
		s.pos++
	}
	return s.input[start:s.pos]
}
