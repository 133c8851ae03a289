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
// query, an UPDATE and a prepared INSERT of its ticket; arg is bound, as a
// string, to every '?' the statement has. Five invariants:
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
//  5. Shape slot ≡ cold verdict: in an engine whose full parse cache
//     refuses new texts, the text runs twice and then a respelling of it —
//     each literal in its own token kind: arg for a string, another integer
//     for an integer (the first past int64, which is read as a REAL), another
//     float for a float, and arg bound to every '?' the text's own runs bind
//     "ID34FG" to. Whatever slot the engine hands the respelling — its
//     shape's template's, shared with the text — its verdict is the one it
//     gets alone, with no slot.
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
	f.Add(trainP, "ID34FG")
	f.Add(trainP, "<script>alert(1)</script>")
	// A trained write whose second spelling writes a stored-XSS payload.
	f.Add(trainU, "<script>alert(1)</script>")
	f.Add("INSERT INTO tickets (reservID, creditCard) VALUES ('ID34FG', '1234')", "<script>alert(1)</script>") // the prepared INSERT learned two strings
	f.Add("SELECT * FROM tickets WHERE reservID = ? AND creditCard = 1234", "x' OR '1'='1")
	f.Add("UPDATE tickets SET reservID = ? WHERE creditCard = ?", "http://evil/x.php")
	f.Fuzz(func(t *testing.T, query, arg string) {
		decoded := sqlparser.DecodeCharset(query)
		stmt, err := sqlparser.Parse(decoded)
		if err != nil {
			return // the engine rejects it before the hook runs
		}
		sep := trainedGuard(t)
		hctx := &engine.HookContext{
			Raw:      query,
			Decoded:  decoded,
			Stmt:     stmt,
			Comments: stmt.StatementComments(),
			Args:     bindAll(stmt, arg),
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
		other.Args = bindAll(stmt, "benign")
		_ = sep.BeforeExecute(&other)
		err3 := sep.BeforeExecute(hctx)
		if (err2 == nil) != (err3 == nil) {
			t.Fatalf("verdict for %q %q flipped after a call with other values:\nbefore: %v\n after: %v",
				decoded, arg, err2, err3)
		}
		shapeSlotIsColdVerdict(t, decoded, stmt, arg)
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

// The statements the fuzzed guard is trained on: the paper's Fig. 2 query,
// a write of the same ticket, and the prepared INSERT of one.
const (
	trainQ = "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234"
	trainU = "UPDATE tickets SET reservID = 'ID34FG' WHERE creditCard = 1234"
	trainP = "INSERT INTO tickets (reservID, creditCard) VALUES (?, ?)"
)

// trainedGuard returns a guard that learned the training statements and
// then switched to DefaultConfig.
func trainedGuard(t *testing.T) *Septic {
	sep := New(Config{Mode: ModeTraining})
	prepared := hookCtxFor(t, trainP)
	prepared.Args = bindAll(prepared.Stmt, "ID34FG")
	for _, train := range []*engine.HookContext{hookCtxFor(t, trainQ), hookCtxFor(t, trainU), prepared} {
		if err := sep.BeforeExecute(train); err != nil {
			t.Fatalf("training: %v", err)
		}
	}
	sep.SetConfig(DefaultConfig())
	return sep
}

// bindAll binds v, as a string, to every placeholder of stmt.
func bindAll(stmt sqlparser.Statement, v string) []engine.Value {
	var args []engine.Value
	for i := 0; i < stmt.NumParams(); i++ {
		args = append(args, engine.Str(v))
	}
	return args
}

// shapeSlotIsColdVerdict is invariant 5 of FuzzBeforeExecute for the text
// decoded, parsed as stmt, and the fuzzed arg.
func shapeSlotIsColdVerdict(t *testing.T, decoded string, stmt sqlparser.Statement, arg string) {
	j := &judge{}
	db := fullParseCache(t, j)
	j.sep = trainedGuard(t)
	for range 2 {
		_, _ = db.ExecArgs(decoded, bindAll(stmt, "ID34FG")...)
	}
	past := false
	again := sqlparser.DecodeCharset(respellWith(decoded, func(kind int) string {
		switch {
		case kind == 0 && !past:
			past = true
			return "9223372036854775808"
		case kind == 0:
			return "7"
		case kind == 1:
			return "2.5"
		}
		return "'" + strings.NewReplacer(`\`, `\\`, "'", "''").Replace(arg) + "'"
	}))
	againStmt, err := sqlparser.Parse(again)
	if err != nil {
		return // the respelling is no statement: a quote decoded out of arg, a type length past int64
	}
	j.ran = false
	_, _ = db.ExecArgs(again, bindAll(againStmt, arg)...)
	if !j.ran {
		return // the engine turned it away before the hook
	}
	alone := &engine.HookContext{Raw: again, Decoded: again, Stmt: againStmt,
		Comments: againStmt.StatementComments(), Args: bindAll(againStmt, arg)}
	if cold := j.sep.BeforeExecute(alone); fmt.Sprint(j.err) != fmt.Sprint(cold) {
		t.Fatalf("%q %q after %q: %v with a slot (%t), %v alone", again, arg, decoded, j.err, j.slot, cold)
	}
}

// judge is the query hook of an engine under test: it hands every
// statement to sep, once there is one, keeps what it saw of the last, and
// counts the verdicts served from a shape's slot — a slot beside values,
// which only a template's executions have.
type judge struct {
	sep       *Septic
	ran, slot bool
	err       error
	fromShape int
}

func (j *judge) BeforeExecute(ctx *engine.HookContext) error {
	j.ran, j.slot, j.err = true, ctx.Memo != nil, nil
	if j.sep == nil {
		return nil
	}
	hits := j.sep.CacheStats().Hits
	j.err = j.sep.BeforeExecute(ctx)
	if j.slot && len(ctx.Args) > 0 && j.sep.CacheStats().Hits > hits {
		j.fromShape++
	}
	return j.err
}

// fullParseCache returns an engine hooked to j, with the tickets table,
// whose 16-entry parse cache is full of texts that have no shape: a text
// new to it is refused, and so is its shape at first sight.
func fullParseCache(t *testing.T, j *judge) *engine.DB {
	t.Helper()
	const capacity = 16
	db := engine.New(engine.WithParseCacheCapacity(capacity), engine.WithQueryHook(j))
	for i, held := 0, 0; held < capacity; i++ {
		q := fmt.Sprintf("/* %d */ DESCRIBE tickets", i)
		if i == 0 {
			q = "CREATE TABLE tickets (id INT PRIMARY KEY AUTO_INCREMENT, reservID TEXT, creditCard INT)"
		}
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if j.slot { // only a text the parse cache holds has one here
			held++
		}
	}
	return db
}
