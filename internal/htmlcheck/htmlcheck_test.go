package htmlcheck

import (
	"testing"
	"testing/quick"
)

func kindsOf(findings []Finding) map[FindingKind]int {
	out := make(map[FindingKind]int)
	for _, f := range findings {
		out[f.Kind]++
	}
	return out
}

func TestScanScriptTag(t *testing.T) {
	// The paper's example input (§II-D2).
	findings := Scan(`<script> alert('Hello!');</script>`)
	if kindsOf(findings)[KindScriptTag] != 1 {
		t.Errorf("findings = %v, want one script-tag", findings)
	}
}

func TestScanCaseAndWhitespaceVariants(t *testing.T) {
	cases := []string{
		`<SCRIPT>alert(1)</SCRIPT>`,
		`<ScRiPt src="http://evil/x.js">`,
		"<script\n>alert(1)</script>",
		`<script/x>alert(1)</script>`,
	}
	for _, c := range cases {
		if !IsDangerous(c) {
			t.Errorf("IsDangerous(%q) = false, want true", c)
		}
	}
}

func TestScanEventHandlers(t *testing.T) {
	cases := []struct {
		in   string
		attr string
	}{
		{`<img src="x" onerror="alert(1)">`, "onerror"},
		{`<body onload=alert(1)>`, "onload"},
		{`<div ONCLICK="go()">`, "onclick"},
		{`<a onmouseover='x()'>hi</a>`, "onmouseover"},
	}
	for _, tt := range cases {
		findings := Scan(tt.in)
		found := false
		for _, f := range findings {
			if f.Kind == KindEventHandler && f.Detail == tt.attr {
				found = true
			}
		}
		if !found {
			t.Errorf("Scan(%q) = %v, want event-handler %s", tt.in, findings, tt.attr)
		}
	}
}

func TestScanScriptURLs(t *testing.T) {
	cases := []string{
		`<a href="javascript:alert(1)">x</a>`,
		`<a href="JaVaScRiPt:alert(1)">x</a>`,
		"<a href=\"java\tscript:alert(1)\">x</a>",
		`<a href=" javascript:alert(1)">x</a>`,
		`<img src="vbscript:msgbox(1)">`,
		`<a href="data:text/html,<script>alert(1)</script>">x</a>`,
		// Character references, decoded before the scheme is read.
		`<a href="jav&#x61;script:alert(1)">x</a>`,
		`<a href="jav&#97;script:alert(1)">x</a>`,
		`<a href="java&Tab;script:alert(1)">x</a>`,
		`<a href="javascript&colon;alert(1)">x</a>`,
		`<a href="&#106;avascript:alert(1)">x</a>`,
		`<a href="&#x6A&#x61;vascript:alert(1)">x</a>`,
	}
	for _, c := range cases {
		findings := Scan(c)
		if kindsOf(findings)[KindScriptURL] == 0 {
			t.Errorf("Scan(%q) = %v, want script-url", c, findings)
		}
	}
}

func TestScanDangerousTags(t *testing.T) {
	for _, tag := range []string{"iframe", "object", "embed", "base", "form", "svg", "meta", "link"} {
		in := "<" + tag + ">"
		if !IsDangerous(in) {
			t.Errorf("IsDangerous(%q) = false, want true", in)
		}
	}
}

func TestScanBenignContent(t *testing.T) {
	benign := []string{
		"",
		"Alice Smith",
		"O'Brien & Sons <3",
		"a < b and b > c",
		"plain <b>bold</b> and <i>italic</i> text",
		"<p>paragraph</p>",
		"price < 100 > discount",
		"2 << 4",
		"email@example.com",
		`<a href="https://example.com">link</a>`,
		`<img src="cat.png" alt="a cat">`,
		`<a href="https://example.com/?a=1&amp;b=2">link</a>`,
		`<a href="/q?a=&#;&#x;&#0;&#x110000;&#99999999999&amp">link</a>`,
	}
	for _, c := range benign {
		if findings := Scan(c); len(findings) != 0 {
			t.Errorf("Scan(%q) = %v, want none", c, findings)
		}
	}
}

func TestScanEndTagsAndCommentsIgnored(t *testing.T) {
	cases := []string{
		"</script>",
		"<!-- <script>alert(1)</script> commented -->",
	}
	// A comment still contains a literal "<script" sequence; the scanner
	// is error-tolerant like browsers, so the commented script IS
	// reported (mXSS defence: comment contexts can be broken out of).
	if IsDangerous(cases[0]) {
		t.Errorf("bare end tag should be inert")
	}
	if !IsDangerous(cases[1]) {
		t.Errorf("script inside comment should still be flagged (conservative)")
	}
}

func TestScanMultipleFindings(t *testing.T) {
	in := `<iframe src="javascript:bad()"></iframe><img onerror=x src=y>`
	k := kindsOf(Scan(in))
	if k[KindDangerousTag] == 0 || k[KindScriptURL] == 0 || k[KindEventHandler] == 0 {
		t.Errorf("kinds = %v, want all three", k)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Kind: KindEventHandler, Tag: "img", Detail: "onerror"}
	if got := f.String(); got != "event-handler in <img>: onerror" {
		t.Errorf("String() = %q", got)
	}
	f = Finding{Kind: KindScriptTag, Tag: "script"}
	if got := f.String(); got != "script-tag: <script>" {
		t.Errorf("String() = %q", got)
	}
}

// TestScanNeverPanics: arbitrary fragments must never panic or loop.
func TestScanNeverPanics(t *testing.T) {
	f := func(s string) bool {
		_ = Scan(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestScanTruncatedTags: unterminated markup must not hang the scanner.
func TestScanTruncatedTags(t *testing.T) {
	cases := []string{
		"<",
		"<script",
		"<img src=",
		`<img src="unterminated`,
		"<a href='x",
		"< script>",
	}
	for _, c := range cases {
		_ = Scan(c) // must terminate
	}
	if !IsDangerous("<script") {
		t.Error("truncated <script must still be flagged")
	}
}
