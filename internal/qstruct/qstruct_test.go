package qstruct

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/septic-db/septic/internal/sqlparser"
)

func buildQS(t *testing.T, query string) Stack {
	t.Helper()
	stmt, err := sqlparser.Parse(query)
	if err != nil {
		t.Fatalf("Parse(%q): %v", query, err)
	}
	return BuildStack(stmt)
}

// ticketsQuery is the running example of the paper (Fig. 2).
const ticketsQuery = "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234"

// TestFigure2QueryStructure reproduces Fig. 2(a): the QS of the tickets
// query, bottom-to-top.
func TestFigure2QueryStructure(t *testing.T) {
	qs := buildQS(t, ticketsQuery)
	want := []Node{
		{CatFromTable, "tickets"},
		{CatSelectField, "*"},
		{CatField, "reservID"},
		{CatString, "ID34FG"},
		{CatFunc, "="},
		{CatField, "creditCard"},
		{CatInt, "1234"},
		{CatFunc, "="},
		{CatCond, "AND"},
	}
	if len(qs) != len(want) {
		t.Fatalf("QS has %d nodes, want %d:\n%s", len(qs), len(want), qs)
	}
	for i, w := range want {
		if qs[i] != w {
			t.Errorf("node %d = %v, want %v", i, qs[i], w)
		}
	}
}

// TestFigure2QueryModel reproduces Fig. 2(b): the QM blanks exactly the
// data nodes (STRING_ITEM and INT_ITEM) to ⊥.
func TestFigure2QueryModel(t *testing.T) {
	qs := buildQS(t, ticketsQuery)
	qm := ModelOf(qs)
	want := []Node{
		{CatFromTable, "tickets"},
		{CatSelectField, "*"},
		{CatField, "reservID"},
		{CatString, Bottom},
		{CatFunc, "="},
		{CatField, "creditCard"},
		{CatInt, Bottom},
		{CatFunc, "="},
		{CatCond, "AND"},
	}
	for i, w := range want {
		if qm.Nodes[i] != w {
			t.Errorf("node %d = %v, want %v", i, qm.Nodes[i], w)
		}
	}
}

// TestFigure3SecondOrderAttack reproduces the paper's second-order SQLI:
// the stored value "ID34FG'-- " read back and concatenated makes the
// trailing AND clause vanish, shrinking the QS — detected at step 1.
func TestFigure3SecondOrderAttack(t *testing.T) {
	qm := ModelOf(buildQS(t, ticketsQuery))
	attacked := buildQS(t, "SELECT * FROM tickets WHERE reservID = 'ID34FG'-- ' AND creditCard = 0")
	want := []Node{
		{CatFromTable, "tickets"},
		{CatSelectField, "*"},
		{CatField, "reservID"},
		{CatString, "ID34FG"},
		{CatFunc, "="},
	}
	if len(attacked) != len(want) {
		t.Fatalf("attacked QS has %d nodes, want %d:\n%s", len(attacked), len(want), attacked)
	}
	for i, w := range want {
		if attacked[i] != w {
			t.Errorf("node %d = %v, want %v", i, attacked[i], w)
		}
	}
	v := Compare(attacked, qm)
	if v.Match || v.Step != StepStructural {
		t.Errorf("verdict = %+v, want structural mismatch", v)
	}
}

// TestFigure4MimicryAttack reproduces the syntax-mimicry attack: the
// injected "AND 1=1" keeps the node count but swaps a FIELD_ITEM for an
// INT_ITEM — detected at step 2, at the node the paper highlights.
func TestFigure4MimicryAttack(t *testing.T) {
	qm := ModelOf(buildQS(t, ticketsQuery))
	attacked := buildQS(t, "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND 1=1-- ' AND creditCard = 0")
	want := []Node{
		{CatFromTable, "tickets"},
		{CatSelectField, "*"},
		{CatField, "reservID"},
		{CatString, "ID34FG"},
		{CatFunc, "="},
		{CatInt, "1"},
		{CatInt, "1"},
		{CatFunc, "="},
		{CatCond, "AND"},
	}
	if len(attacked) != len(want) {
		t.Fatalf("attacked QS has %d nodes, want %d:\n%s", len(attacked), len(want), attacked)
	}
	for i, w := range want {
		if attacked[i] != w {
			t.Errorf("node %d = %v, want %v", i, attacked[i], w)
		}
	}
	v := Compare(attacked, qm)
	if v.Match || v.Step != StepSyntactical {
		t.Fatalf("verdict = %+v, want syntactical mismatch", v)
	}
	// The first mismatching node is index 5: FIELD_ITEM creditCard in the
	// model vs INT_ITEM 1 in the attacked query (paper: "fourth row" of
	// the top-down rendering).
	if v.Index != 5 {
		t.Errorf("mismatch index = %d, want 5 (%s)", v.Index, v.Detail)
	}
}

func TestCompareMatchesBenignVariant(t *testing.T) {
	qm := ModelOf(buildQS(t, ticketsQuery))
	// Same query, different data values: must match (no false positive).
	benign := buildQS(t, "SELECT * FROM tickets WHERE reservID = 'ZZ99XX' AND creditCard = 9999")
	if v := Compare(benign, qm); !v.Match {
		t.Errorf("benign variant flagged: %+v", v)
	}
}

func TestCompareDataTypeChangeIsDetected(t *testing.T) {
	qm := ModelOf(buildQS(t, ticketsQuery))
	// creditCard given as a string instead of an int: the DATA TYPE of
	// the node changed, which step 2 must flag.
	variant := buildQS(t, "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 'x'")
	v := Compare(variant, qm)
	if v.Match || v.Step != StepSyntactical {
		t.Errorf("verdict = %+v, want syntactical mismatch on data type", v)
	}
}

func TestStackString(t *testing.T) {
	qs := buildQS(t, ticketsQuery)
	out := qs.String()
	lines := strings.Split(out, "\n")
	if len(lines) != len(qs) {
		t.Fatalf("String() has %d lines, want %d", len(lines), len(qs))
	}
	// Top-down: first line is the top of the stack (COND_ITEM AND).
	if lines[0] != "COND_ITEM AND" {
		t.Errorf("top line = %q, want COND_ITEM AND", lines[0])
	}
	if lines[len(lines)-1] != "FROM_TABLE tickets" {
		t.Errorf("bottom line = %q, want FROM_TABLE tickets", lines[len(lines)-1])
	}
}

func TestBuildStackInsert(t *testing.T) {
	qs := buildQS(t, "INSERT INTO users (name, bio) VALUES ('ann', 'hello')")
	want := []Node{
		{CatInsertTable, "users"},
		{CatInsertField, "name"},
		{CatInsertField, "bio"},
		{CatRowBegin, "VALUES"},
		{CatString, "ann"},
		{CatString, "hello"},
	}
	if len(qs) != len(want) {
		t.Fatalf("QS = \n%s", qs)
	}
	for i, w := range want {
		if qs[i] != w {
			t.Errorf("node %d = %v, want %v", i, qs[i], w)
		}
	}
}

func TestBuildStackUpdate(t *testing.T) {
	qs := buildQS(t, "UPDATE users SET bio = 'x' WHERE id = 3")
	want := []Node{
		{CatUpdateTable, "users"},
		{CatSetField, "bio"},
		{CatString, "x"},
		{CatField, "id"},
		{CatInt, "3"},
		{CatFunc, "="},
	}
	for i, w := range want {
		if qs[i] != w {
			t.Errorf("node %d = %v, want %v", i, qs[i], w)
		}
	}
}

func TestBuildStackDelete(t *testing.T) {
	qs := buildQS(t, "DELETE FROM logs WHERE ts < 100")
	if qs[0].Cat != CatDeleteTable || qs[0].Data != "logs" {
		t.Errorf("node 0 = %v, want DELETE_TABLE logs", qs[0])
	}
}

func TestBuildStackSubqueryMarkers(t *testing.T) {
	qs := buildQS(t, "SELECT * FROM t WHERE id IN (SELECT id FROM u)")
	var begins, ends int
	for _, n := range qs {
		switch n.Cat {
		case CatSubBegin:
			begins++
		case CatSubEnd:
			ends++
		}
	}
	if begins != 1 || ends != 1 {
		t.Errorf("subquery markers begin=%d end=%d, want 1/1", begins, ends)
	}
}

func TestBuildStackUnionMarker(t *testing.T) {
	qs := buildQS(t, "SELECT id FROM a UNION SELECT pw FROM b")
	var sawUnion bool
	for _, n := range qs {
		if n.Cat == CatUnion {
			sawUnion = true
		}
	}
	if !sawUnion {
		t.Errorf("UNION_ITEM missing:\n%s", qs)
	}
}

// TestUnionInjectionChangesStructure: a classic UNION-based injection
// must never compare equal to the original query's model.
func TestUnionInjectionChangesStructure(t *testing.T) {
	qm := ModelOf(buildQS(t, "SELECT name FROM products WHERE id = 7"))
	attacked := buildQS(t, "SELECT name FROM products WHERE id = 7 UNION SELECT passwd FROM users-- ")
	if v := Compare(attacked, qm); v.Match {
		t.Error("UNION injection not detected")
	}
}

// TestTautologyInjectionChangesStructure: OR 1=1 adds nodes.
func TestTautologyInjectionChangesStructure(t *testing.T) {
	qm := ModelOf(buildQS(t, "SELECT * FROM users WHERE name = 'ann' AND pass = 'pw'"))
	attacked := buildQS(t, "SELECT * FROM users WHERE name = 'ann' OR 1=1-- ' AND pass = 'x'")
	v := Compare(attacked, qm)
	if v.Match {
		t.Error("tautology injection not detected")
	}
}

func TestModelOfDoesNotMutateInput(t *testing.T) {
	qs := buildQS(t, ticketsQuery)
	_ = ModelOf(qs)
	if qs[3].Data != "ID34FG" {
		t.Errorf("ModelOf mutated the QS: %v", qs[3])
	}
}

func TestStringDataReturnsLiterals(t *testing.T) {
	qs := buildQS(t, "INSERT INTO c (a, b) VALUES ('<script>', 'ok')")
	got := qs.StringData()
	if len(got) != 2 || got[0] != "<script>" || got[1] != "ok" {
		t.Errorf("StringData = %v", got)
	}
}

func TestFingerprintStable(t *testing.T) {
	a := ModelOf(buildQS(t, ticketsQuery))
	b := ModelOf(buildQS(t, "SELECT * FROM tickets WHERE reservID = 'OTHER' AND creditCard = 1"))
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("models of same-shape queries must share a fingerprint")
	}
	c := ModelOf(buildQS(t, "SELECT * FROM tickets WHERE reservID = 'X'"))
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different shapes must not collide (FNV-1a)")
	}
	// The fingerprint is the nodes', however the model came to be: learned,
	// read back from its persisted form, or assembled by hand.
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Model
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Nodes, a.Nodes) || loaded.Fingerprint() != a.Fingerprint() ||
		(Model{Nodes: a.Nodes}).Fingerprint() != a.Fingerprint() {
		t.Errorf("a model read back from JSON, or built from the same nodes, fingerprints differently: %v", loaded)
	}
	if json.Unmarshal([]byte(`{"nodes": 7}`), &loaded) == nil {
		t.Error("nodes that are no list decoded into a model")
	}
}

func TestCategoryIsData(t *testing.T) {
	data := []Category{CatInt, CatReal, CatString, CatBool, CatNull, CatPlaceholder}
	for _, c := range data {
		if !c.IsData() {
			t.Errorf("%s.IsData() = false", c)
		}
	}
	elems := []Category{CatSelectField, CatFromTable, CatField, CatFunc, CatCond, CatOrder, CatLimit}
	for _, c := range elems {
		if c.IsData() {
			t.Errorf("%s.IsData() = true", c)
		}
	}
}

// TestCompareAcrossStatementKinds: for each kind of statement a model
// matches the query it was learned from and no injected variant of it.
func TestCompareAcrossStatementKinds(t *testing.T) {
	queries := []string{
		ticketsQuery,
		"SELECT name FROM products WHERE id = 7",
		"INSERT INTO users (name) VALUES ('x')",
		"UPDATE users SET bio = 'b' WHERE id = 1",
	}
	attacks := []string{
		"SELECT * FROM tickets WHERE reservID = 'ID34FG'-- ' AND creditCard = 0",
		"SELECT name FROM products WHERE id = 7 OR 1=1",
		"INSERT INTO users (name) VALUES ('x'), ('y')",
		"UPDATE users SET bio = 'b' WHERE id = 1 OR 1=1",
	}
	for i, q := range queries {
		qm := ModelOf(buildQS(t, q))
		if !Compare(buildQS(t, q), qm).Match {
			t.Errorf("benign %d does not match its own model", i)
		}
		if Compare(buildQS(t, attacks[i]), qm).Match {
			t.Errorf("attack %d slipped through", i)
		}
	}
}
