package core

import (
	"strings"
	"testing"

	"github.com/septic-db/septic/internal/qstruct"
	"github.com/septic-db/septic/internal/raceflag"
	"github.com/septic-db/septic/internal/sqlparser"
)

func idOf(t *testing.T, g *IDGenerator, query string) string {
	t.Helper()
	stmt, err := sqlparser.Parse(query)
	if err != nil {
		t.Fatalf("Parse(%q): %v", query, err)
	}
	return g.ID(stmt, stmt.StatementComments())
}

func TestIDStableAcrossDataValues(t *testing.T) {
	g := NewIDGenerator()
	a := idOf(t, g, "SELECT * FROM tickets WHERE reservID = 'A' AND creditCard = 1")
	b := idOf(t, g, "SELECT * FROM tickets WHERE reservID = 'B' AND creditCard = 999")
	if a != b {
		t.Errorf("IDs differ for same query shape: %q vs %q", a, b)
	}
}

// TestIDStableUnderAttack is the property that makes detection work: an
// injected query must produce the same ID as its victim so it is
// compared against the learned model instead of being treated as new.
func TestIDStableUnderAttack(t *testing.T) {
	g := NewIDGenerator()
	victim := idOf(t, g, "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234")
	attacked := []string{
		"SELECT * FROM tickets WHERE reservID = 'ID34FG'-- ' AND creditCard = 0",
		"SELECT * FROM tickets WHERE reservID = 'ID34FG' AND 1=1-- ' AND creditCard = 0",
		"SELECT * FROM tickets WHERE reservID = '' OR '1'='1'-- ' AND creditCard = 0",
	}
	for _, q := range attacked {
		if got := idOf(t, g, q); got != victim {
			t.Errorf("attacked query has different ID:\n  %q -> %q (victim %q)", q, got, victim)
		}
	}
}

func TestIDDistinguishesDifferentQueries(t *testing.T) {
	g := NewIDGenerator()
	ids := map[string]string{}
	for _, q := range []string{
		"SELECT * FROM tickets WHERE id = 1",
		"SELECT * FROM users WHERE id = 1",
		"SELECT id FROM tickets WHERE id = 1",
		"DELETE FROM tickets WHERE id = 1",
		"UPDATE tickets SET reservID = 'x' WHERE id = 1",
		"INSERT INTO tickets (reservID) VALUES ('x')",
	} {
		id := idOf(t, g, q)
		if prev, dup := ids[id]; dup {
			t.Errorf("ID collision between %q and %q", prev, q)
		}
		ids[id] = q
	}
}

func TestExternalIDComposition(t *testing.T) {
	g := NewIDGenerator()
	plain := idOf(t, g, "SELECT id FROM tickets WHERE id = 1")
	tagged := idOf(t, g, "/* waspmon:devices:17 */ SELECT id FROM tickets WHERE id = 1")
	if tagged == plain {
		t.Error("external identifier should alter the ID")
	}
	if want := "waspmon:devices:17#" + plain; tagged != want {
		t.Errorf("tagged = %q, want %q", tagged, want)
	}
}

func TestExternalIDDisabled(t *testing.T) {
	g := &IDGenerator{UseExternal: false}
	plain := idOf(t, g, "SELECT id FROM tickets WHERE id = 1")
	tagged := idOf(t, g, "/* anything */ SELECT id FROM tickets WHERE id = 1")
	if tagged != plain {
		t.Error("disabled external identifiers must not alter the ID")
	}
}

func TestExternalIDExtraction(t *testing.T) {
	tests := []struct {
		comments []string
		want     string
	}{
		{nil, ""},
		{[]string{}, ""},
		{[]string{"app:q1"}, "app:q1"},
		{[]string{"  spaced  "}, "spaced"},
		{[]string{"first", "second"}, "first"},
	}
	for _, tt := range tests {
		if got := ExternalID(tt.comments); got != tt.want {
			t.Errorf("ExternalID(%v) = %q, want %q", tt.comments, got, tt.want)
		}
	}
}

// TestExternalIDRejectsMalformed pins the hardening contract: a comment
// body that cannot serve as an identifier degrades to "no external
// identifier" (empty string) rather than producing a corrupt or
// unbounded store key. Rejection is total — there is no partial
// sanitization that an attacker could steer.
func TestExternalIDRejectsMalformed(t *testing.T) {
	oversized := strings.Repeat("x", MaxExternalIDLen+1)
	atLimit := strings.Repeat("y", MaxExternalIDLen)
	tests := []struct {
		name string
		body string
		want string
	}{
		{"embedded newline", "app:q1\ninjected", ""},
		{"embedded CR", "app:q1\rinjected", ""},
		{"embedded CRLF", "line one\r\nline two", ""},
		{"embedded tab", "app\tq1", ""},
		{"embedded NUL", "app\x00q1", ""},
		{"escape byte", "app\x1b[31mq1", ""},
		{"DEL byte", "app\x7fq1", ""},
		{"control byte at start", "\x01app:q1", ""},
		{"control byte at end", "app:q1\x02", ""},
		{"oversized", oversized, ""},
		{"oversized after trim", " " + oversized + " ", ""},
		{"exactly at limit", atLimit, atLimit},
		{"surrounding whitespace trims clean", "\n\t app:q1 \t\n", "app:q1"},
		{"whitespace only", " \t\n ", ""},
		{"multibyte text survives", "app:héllo", "app:héllo"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ExternalID([]string{tt.body}); got != tt.want {
				t.Errorf("ExternalID(%q) = %q, want %q", tt.body, got, tt.want)
			}
		})
	}
}

// TestUnterminatedCommentRejectedByParser documents where the third
// malformed-comment shape is handled: an unterminated "/*" never
// produces a statement, so ExternalID never sees it.
func TestUnterminatedCommentRejectedByParser(t *testing.T) {
	for _, q := range []string{
		"/* app:q1 SELECT id FROM tickets WHERE id = 1",
		"/* SELECT 1",
		"/*",
	} {
		if _, err := sqlparser.Parse(q); err == nil {
			t.Errorf("Parse(%q) accepted an unterminated comment", q)
		}
	}
}

// TestMalformedExternalIDFallsBackToInternal shows the degradation
// end-to-end through the generator: a rejected comment body yields the
// same ID as having no comment at all — the query keeps its full
// skeleton-hash protection.
func TestMalformedExternalIDFallsBackToInternal(t *testing.T) {
	g := NewIDGenerator()
	plain := idOf(t, g, "SELECT id FROM tickets WHERE id = 1")
	stmt, err := sqlparser.Parse("SELECT id FROM tickets WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		"app:q1\nsecond line",
		strings.Repeat("x", MaxExternalIDLen+1),
		"ctl\x07chars",
	} {
		if got := g.ID(stmt, []string{body}); got != plain {
			t.Errorf("malformed comment %q altered the ID: %q vs %q", body, got, plain)
		}
	}
}

// TestIDBytesPinned: identifiers are store keys in WAL directories on
// disk, so their bytes are a format. These were computed by the generator
// of PR 21, which built the internal part and the composition as two
// strings; the one-buffer generator must produce the same, up to the
// longest external identifier it accepts.
func TestIDBytesPinned(t *testing.T) {
	longest := strings.Repeat("x", MaxExternalIDLen)
	const view = "/* ab:view */ SELECT name, phone, email, address FROM contacts WHERE id = 7"
	g := NewIDGenerator()
	for q, want := range map[string]string{
		"SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234": "qa95d8bec424f7d24",
		view: "ab:view#qc622d1086d3fae33",
		"/* " + longest + " */ DELETE FROM t WHERE id = 1":  longest + "#q485e4ce6c52e6e82",
		"/* " + longest + "x */ DELETE FROM t WHERE id = 1": "q485e4ce6c52e6e82",
		"/* multi\nline */ SELECT 1":                        "q1ffcce9d5efb1670",
	} {
		if got := idOf(t, g, q); got != want {
			t.Errorf("ID(%q) = %q, want %q", q, got, want)
		}
	}
	if got, want := idOf(t, &IDGenerator{}, view), "qc622d1086d3fae33"; got != want {
		t.Errorf("without external identifiers ID = %q, want %q", got, want)
	}
}

// TestIDAllocOnce (named for CI's uninstrumented `-run Alloc` step): the
// identifier is appended into one stack buffer and converted once.
func TestIDAllocOnce(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation adds allocations")
	}
	g := NewIDGenerator()
	stmt, err := sqlparser.Parse("/* ab:view */ SELECT name, phone, email, address FROM contacts WHERE id = 7")
	if err != nil {
		t.Fatal(err)
	}
	comments := stmt.StatementComments()
	if n := testing.AllocsPerRun(200, func() { qstruct.SkeletonHash(stmt) }); n != 0 {
		t.Errorf("SkeletonHash allocates %.1f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { g.ID(stmt, comments) }); n != 1 {
		t.Errorf("ID allocates %.1f objects, want exactly 1, the identifier", n)
	}
}
