package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/sqlparser"
)

// FuzzBeforeExecute drives arbitrary parseable statements through the
// whole protection path — decode, stack building, identifier hashing,
// model lookup, both detection steps, the stored-injection plugin chain
// and the verdict cache — against a guard trained on the paper's Fig. 2
// query and its prepared INSERT; arg is bound, as a string, to every '?'
// the statement has. Four invariants:
//
//  1. The hook NEVER panics. Detector panics must be swallowed by the
//     fault containment layer; one escaping to the fuzzer is a bug in
//     that layer as much as in the detector.
//  2. The verdict is deterministic: a second call with the identical
//     context must block iff the first call blocked. The first call may
//     be served by the full path (or learn the model incrementally) and
//     the second by the verdict cache, so this pins cache/full-path
//     agreement — the exact property a poisoned cache entry would break.
//     (A first call that learned the statement incrementally executed it
//     unchecked, by design, and promises nothing about the second.)
//  3. The verdict is the values' as much as the text's: a call of the same
//     text with other values in between changes nothing.
//  4. A text judged through the template of its shape — the statement with
//     a placeholder for each literal, the literals' values beside it, no
//     slot — gets the verdict it gets on its own, word for word.
func FuzzBeforeExecute(f *testing.F) {
	seeds := []string{
		"SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234",
		"SELECT * FROM tickets WHERE reservID = 'ID34FG\u02bc-- ' AND creditCard = 0",
		"SELECT * FROM tickets WHERE reservID = 'ID34FG' AND 1=1-- ' AND creditCard = 0",
		"SELECT * FROM tickets WHERE reservID = 'x' OR '1'='1' AND creditCard = 1234",
		"SELECT * FROM tickets WHERE reservID = '<script>alert(1)</script>' AND creditCard = 1",
		"SELECT * FROM tickets WHERE reservID = '../../etc/passwd' AND creditCard = 1",
		"SELECT * FROM tickets WHERE reservID = '; cat /etc/passwd' AND creditCard = 1",
		"INSERT INTO tickets (reservID, creditCard) VALUES ('ID34FG', 1234)",
		"SELECT 1",
		// Malformed external-identifier comments: embedded control bytes,
		// oversized bodies and unterminated openers. ExternalID must reject
		// (not crash on) the parseable ones; the parser rejects the rest.
		"/* app:q1 */ SELECT * FROM tickets WHERE reservID = 'a' AND creditCard = 1",
		"/* app:q1\ninjected */ SELECT * FROM tickets WHERE reservID = 'a' AND creditCard = 1",
		"/* a\x00b\x7fc */ SELECT * FROM tickets WHERE reservID = 'a' AND creditCard = 1",
		"/* pad:" + strings.Repeat("x", MaxExternalIDLen+1) +
			" */ SELECT * FROM tickets WHERE reservID = 'a' AND creditCard = 1",
		"/* unterminated SELECT * FROM tickets WHERE reservID = 'a'",
		"/*/ SELECT 1",
		"/**/ SELECT * FROM tickets WHERE reservID = 'a' AND creditCard = 1",
	}
	for _, s := range seeds {
		f.Add(s, "")
	}
	const (
		trainQ = "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234"
		trainP = "INSERT INTO tickets (reservID, creditCard) VALUES (?, ?)"
	)
	f.Add(trainP, "ID34FG")
	f.Add(trainP, "<script>alert(1)</script>")
	f.Add("SELECT * FROM tickets WHERE reservID = ? AND creditCard = 1234", "x' OR '1'='1")
	f.Add("UPDATE tickets SET reservID = ? WHERE creditCard = ?", "http://evil/x.php")
	f.Fuzz(func(t *testing.T, query, arg string) {
		decoded := sqlparser.DecodeCharset(query)
		stmt, err := sqlparser.Parse(decoded)
		if err != nil {
			return // the engine rejects it before the hook runs
		}
		bind := func(stmt sqlparser.Statement, v string) []engine.Value {
			var args []engine.Value
			for i := 0; i < stmt.NumParams(); i++ {
				args = append(args, engine.Str(v))
			}
			return args
		}
		sep := New(Config{Mode: ModeTraining})
		prepared := hookCtxFor(t, trainP)
		prepared.Args = bind(prepared.Stmt, "ID34FG")
		for _, train := range []*engine.HookContext{hookCtxFor(t, trainQ), prepared} {
			if err := sep.BeforeExecute(train); err != nil {
				t.Fatalf("training: %v", err)
			}
		}
		sep.SetConfig(DefaultConfig())

		hctx := &engine.HookContext{
			Raw:      query,
			Decoded:  decoded,
			Stmt:     stmt,
			Comments: stmt.StatementComments(),
			Args:     bind(stmt, arg),
		}
		if len(hctx.Args) == 0 {
			hctx.Memo = new(engine.Memo) // the engine's rule: a slot only when the text is the whole statement
		}
		err1 := sep.BeforeExecute(hctx)
		learned := sep.Stats().NewQueries > 0
		err2 := sep.BeforeExecute(hctx)
		if !learned && (err1 == nil) != (err2 == nil) {
			t.Fatalf("verdict flipped between calls for %q %q:\n first: %v\nsecond: %v",
				decoded, arg, err1, err2)
		}
		other := *hctx
		other.Args = bind(stmt, "benign")
		_ = sep.BeforeExecute(&other)
		err3 := sep.BeforeExecute(hctx)
		if (err2 == nil) != (err3 == nil) {
			t.Fatalf("verdict for %q %q flipped after a call with other values:\nbefore: %v\n after: %v",
				decoded, arg, err2, err3)
		}
		p := sqlparser.Scan(decoded)
		defer p.Release()
		if p.ShapeKey() == nil {
			return
		}
		tmpl, err := p.ParseTemplate()
		if err != nil {
			return // a literal of it is structure: it has no template
		}
		shaped := *hctx
		shaped.Stmt, shaped.Memo, shaped.Args = tmpl.Stmt, nil, []engine.Value{}
		for i := 0; i < tmpl.Stmt.NumParams(); i++ {
			lit, err := p.Value(tmpl, i)
			if err != nil {
				t.Fatalf("%q parses, and its value %d does not: %v", decoded, i, err)
			}
			shaped.Args = append(shaped.Args, engine.LiteralValue(&lit))
		}
		if err4 := sep.BeforeExecute(&shaped); fmt.Sprint(err4) != fmt.Sprint(err3) {
			t.Fatalf("verdict for %q through its template: %v\non its own: %v", decoded, err4, err3)
		}
	})
}
