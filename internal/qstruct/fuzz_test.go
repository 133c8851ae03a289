package qstruct

import (
	"hash/fnv"
	"io"
	"reflect"
	"testing"

	"github.com/septic-db/septic/internal/sqlparser"
)

var fuzzSeeds = []string{
	"SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234",
	"SELECT * FROM tickets WHERE reservID = 'ID34FG\u02bc-- ' AND creditCard = 0",
	"SELECT * FROM tickets WHERE reservID = 'ID34FG' AND 1=1-- ' AND creditCard = 0",
	"INSERT INTO t (a, b) VALUES ('x\\'y', 0x41), (NULL, -2)",
	"UPDATE t SET a = a + 1 WHERE b IN (SELECT c FROM u)",
	"DELETE FROM t WHERE a BETWEEN 1 AND 2 LIMIT 5",
	"SELECT CASE WHEN a IS NULL THEN 'x' ELSE concat(a, 'y') END FROM t ORDER BY 1 DESC",
	"SELECT * FROM a JOIN b ON a.id = b.id WHERE EXISTS (SELECT 1 FROM c)",
}

// FuzzBuildStack asserts the properties detection rests on: stack
// building never panics on a parsed statement, it is deterministic (two
// builds of one AST agree — the verdict cache assumes this),
// ModelOf blanks every data node to ⊥ so no user value survives into a
// stored model, and the query structure is a function of the statement,
// not of its spelling: the canonical text Format renders parses back to
// the same stack and the same skeleton hash, so QS(format(parse(q))) ==
// QS(q).
func FuzzBuildStack(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, query string) {
		stmt, err := sqlparser.Parse(sqlparser.DecodeCharset(query))
		if err != nil {
			return
		}
		qs := BuildStack(stmt)
		if len(qs) == 0 {
			t.Fatalf("empty stack for accepted statement %q", query)
		}
		if again := BuildStack(stmt); !reflect.DeepEqual(qs, again) {
			t.Fatalf("BuildStack not deterministic for %q:\n%v\nvs\n%v", query, qs, again)
		}
		text := sqlparser.Format(stmt)
		respelled, err := sqlparser.Parse(text)
		if err != nil {
			t.Fatalf("Format output does not re-parse\n input: %q\nformat: %q\n  err: %v", query, text, err)
		}
		if again := BuildStack(respelled); !reflect.DeepEqual(qs, again) {
			t.Fatalf("stack changed across Format for %q (%q):\n%v\nvs\n%v", query, text, qs, again)
		}
		if a, b := SkeletonHash(stmt), SkeletonHash(respelled); a != b {
			t.Fatalf("skeleton hash changed across Format for %q (%q): %x vs %x", query, text, a, b)
		}
		m := ModelOf(qs)
		if len(m.Nodes) != len(qs) {
			t.Fatalf("ModelOf changed stack length: %d -> %d", len(qs), len(m.Nodes))
		}
		for i, n := range m.Nodes {
			if n.Cat.IsData() && n.Data != Bottom {
				t.Fatalf("model node %d leaks data %q (cat %s)", i, n.Data, n.Cat)
			}
		}
	})
}

// FuzzSkeletonHash asserts the documented equivalence between the
// allocation-free streaming hash and hashing the materialized skeleton
// with hash/fnv — persisted model stores depend on the two paths never
// diverging — plus determinism of both.
func FuzzSkeletonHash(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, query string) {
		stmt, err := sqlparser.Parse(sqlparser.DecodeCharset(query))
		if err != nil {
			return
		}
		skel := Skeleton(stmt)
		h := fnv.New64a()
		io.WriteString(h, skel)
		if got := SkeletonHash(stmt); got != h.Sum64() {
			t.Fatalf("streamed hash %x != fnv(Skeleton) %x for %q", got, h.Sum64(), query)
		}
		if Skeleton(stmt) != skel || SkeletonHash(stmt) != h.Sum64() {
			t.Fatalf("skeleton not deterministic for %q", query)
		}
	})
}
