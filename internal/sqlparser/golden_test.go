package sqlparser_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/septic-db/septic/internal/attacks"
	"github.com/septic-db/septic/internal/benchlab"
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/sqlparser"
	"github.com/septic-db/septic/internal/webapp"
)

var update = flag.Bool("update", false, "rewrite testdata/parse_golden.txt from the parser in this checkout")

const goldenPath = "testdata/parse_golden.txt"

// recorder is a webapp.Executor that notes every statement text an
// application sends before handing it to the engine.
type recorder struct {
	db    *engine.DB
	texts *[]string
}

func (r recorder) Exec(q string) (*engine.Result, error) {
	*r.texts = append(*r.texts, q)
	return r.db.Exec(q)
}

func (r recorder) ExecArgs(q string, args ...engine.Value) (*engine.Result, error) {
	*r.texts = append(*r.texts, q)
	return r.db.ExecArgs(q, args...)
}

// deployRecorded builds spec's application over a fresh unguarded engine
// and returns it with the slice its statement texts are appended to,
// the schema and training statements already in it.
func deployRecorded(t *testing.T, spec benchlab.AppSpec) (*webapp.App, *[]string) {
	t.Helper()
	texts := new([]string)
	rec := recorder{db: engine.New(), texts: texts}
	for _, q := range spec.Schema {
		if _, err := rec.Exec(q); err != nil {
			t.Fatalf("%s schema: %v", spec.Name, err)
		}
	}
	app := spec.Build(rec)
	for _, req := range spec.Training {
		app.Serve(req.Clone())
	}
	return app, texts
}

// goldenOrdering are texts chosen so that a lexical error sits behind a
// grammatical one (or the reverse): the old lexer found a bad token only
// when the parser asked for it, and the golden file pins which of the two
// errors each of these reports.
var goldenOrdering = []string{
	"SELECT 1 ) 'open",
	"SELECT 1 FOO 'open",
	"SELEC 1 'open",
	"SELECT 1; SELECT 2 'open",
	"SELECT 1; 'open",
	"SELECT a FROM t WHERE `",
	"SELECT a FROM t WHERE ``",
	"SELECT a FROM t WHERE b = 1 /* open",
	"SELECT a FROM t /* c1 */ WHERE b = 1 -- c2",
	"SELECT t /* c */ . a FROM t",
	"SELECT t.*, t . a, `t`.`b` FROM t",
	"SELECT t. FROM t",
	"SELECT a b, c AS d, e key FROM t",
	"SELECT 1 @",
	"SELECT 1 \x80",
	"SELECT (1 'open",
	"INSERT INTO t VALUES (1, 'open",
	"INSERT INTO t (a, b VALUES (1)",
	"UPDATE t SET a 1 'open",
	"SELECT a FROM t WHERE a NOT 5 'open",
	"SELECT CASE END 'open",
	"SELECT 99999999999999999999, -9223372036854775808, 1e400, 1.5e3, .5, 5., 1e, 1e+",
	"SELECT - - 1, -(2), +3, -a, -1.5, - 'x'",
	"SELECT 0x, 0x4, 0xZZ, 0x41 'a' \"b\" 'c\\%d' 'e\\_f' 'g''h' \"i\"\"j\" 'k\\",
	"SELECT a--b, a-- b\nFROM t # tail",
	"SELECT count(*), COUNT(DISTINCT a), if(a, 1, 2), left(s, 1), right(s, 2), now() FROM t",
	"SELECT a FROM t WHERE a || b && c XOR d OR NOT e AND f <> g != h",
	"SELECT a FROM t WHERE a NOT IN (1, 2) AND b NOT LIKE 'x%' AND c NOT BETWEEN 1 AND 2 AND d IS NOT NULL",
	"SELECT a FROM (SELECT b FROM u) AS s LEFT OUTER JOIN v ON s.b = v.b, w CROSS JOIN x",
	"SELECT a FROM t GROUP BY a, b HAVING COUNT(*) > 1 ORDER BY a DESC, b ASC LIMIT 5, 10",
	"SELECT a FROM t LIMIT 10 OFFSET ? UNION ALL SELECT b FROM u UNION DISTINCT SELECT c FROM v",
	"CREATE TABLE IF NOT EXISTS t (id BIGINT(20) PRIMARY KEY AUTO_INCREMENT, s VARCHAR(255) NOT NULL DEFAULT 'x', u INT UNIQUE NULL, d DATETIME)",
	"DROP TABLE IF EXISTS t; SHOW TABLES; DESCRIBE t; EXPLAIN SELECT 1;;",
	"INSERT INTO t (a, key) SELECT a, b FROM u",
	"UPDATE t SET a = a + 1, b = 'x' WHERE c = 1 ORDER BY d LIMIT 1",
	"DELETE FROM t WHERE a = 1 ORDER BY b DESC LIMIT 2",
	";",
	";;SELECT 1",
	"/* only a comment */",
	"/* a */ SELECT 1 /* b */; /* c */ SELECT 2 -- d",
	"/* a */ SELECT x FROM (/* b */ SELECT 1) s /* c */; SELECT 2",
	"SELECT 'it''s', 'a\\'b', 'plain', '' FROM t WHERE s LIKE '100\\%' AND n = 'tab\\there'",
}

// goldenSection is one named source of statement texts.
type goldenSection struct {
	name   string
	texts  []string
	tokens bool // also record the Tokenize view
}

func goldenSections(t *testing.T) []goldenSection {
	t.Helper()
	var out []goldenSection

	// The four applications' BenchLab deployments: schema, training,
	// recorded workload.
	for _, spec := range append(benchlab.PaperSpecs(), benchlab.WaspMonSpec()) {
		app, texts := deployRecorded(t, spec)
		for _, req := range spec.Workload {
			app.Serve(req.Clone())
		}
		out = append(out, goldenSection{name: "app " + spec.Name, texts: *texts})
	}

	// The attack corpus and the sqlmap-style generators, through the
	// entry points they were written against.
	app, texts := deployRecorded(t, benchlab.WaspMonSpec())
	*texts = nil
	for _, c := range attacks.Corpus() {
		for _, req := range c.Setup {
			app.Serve(req.Clone())
		}
		app.Serve(c.Request.Clone())
	}
	for _, req := range attacks.Benign() {
		app.Serve(req.Clone())
	}
	out = append(out, goldenSection{name: "attacks corpus", texts: *texts})
	*texts = nil
	for _, p := range attacks.GenerateStringContext(1, 300) {
		app.Serve(webapp.Request{Path: "/device/view", Params: map[string]string{"name": p}})
	}
	for _, p := range attacks.GenerateNumericContext(2, 200) {
		app.Serve(webapp.Request{Path: "/reading/history", Params: map[string]string{"device": p, "limit": "10"}})
	}
	out = append(out, goldenSection{name: "attacks generators", texts: *texts})

	out = append(out, goldenSection{name: "fuzz seeds", texts: sqlparser.FuzzSeeds, tokens: true})
	out = append(out, goldenSection{name: "fuzz corpus", texts: fuzzCorpus(t), tokens: true})
	out = append(out, goldenSection{name: "lexer tests", texts: sqlparser.LexerInputs, tokens: true})
	out = append(out, goldenSection{name: "error ordering", texts: goldenOrdering, tokens: true})
	return out
}

// fuzzCorpus reads the checked-in FuzzParse corpus (Go's "go test fuzz
// v1" files, one string value each), in file-name order.
func fuzzCorpus(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("testdata/fuzz/FuzzParse/*")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	var out []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if lit, ok := strings.CutPrefix(line, "string("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				out = append(out, s)
			}
		}
	}
	return out
}

// describeErr renders an error exactly, with the position a SyntaxError
// carries next to its message.
func describeErr(err error) string {
	var serr *sqlparser.SyntaxError
	if errors.As(err, &serr) {
		return fmt.Sprintf("error %q pos=%d", err.Error(), serr.Pos)
	}
	return fmt.Sprintf("error %q", err.Error())
}

func describeStmt(stmt sqlparser.Statement) string {
	return fmt.Sprintf("%s comments=%q", sqlparser.Format(stmt), stmt.StatementComments())
}

func renderGolden(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	seen := map[string]bool{}
	for _, sec := range goldenSections(t) {
		fmt.Fprintf(&b, "# %s\n", sec.name)
		for _, q := range sec.texts {
			if seen[q] {
				continue
			}
			seen[q] = true
			fmt.Fprintf(&b, "%q\n", q)
			stmt, err := sqlparser.Parse(q)
			if err != nil {
				fmt.Fprintf(&b, "\tparse: %s\n", describeErr(err))
			} else {
				fmt.Fprintf(&b, "\tparse: ok %s\n", describeStmt(stmt))
			}
			var serr *sqlparser.SyntaxError
			if err != nil && !errors.As(err, &serr) {
				// More than one statement: record what the script entry sees.
				stmts, err := sqlparser.ParseAll(q)
				if err != nil {
					fmt.Fprintf(&b, "\tall: %s\n", describeErr(err))
				}
				for _, s := range stmts {
					fmt.Fprintf(&b, "\tall: ok %s\n", describeStmt(s))
				}
			}
			if sec.tokens {
				toks, err := sqlparser.Tokenize(q)
				if err != nil {
					fmt.Fprintf(&b, "\ttokens: %s\n", describeErr(err))
				} else {
					fmt.Fprintf(&b, "\ttokens: %v\n", toks)
				}
			}
		}
	}
	return b.Bytes()
}

// TestParseGolden is the differential the lexer/parser rewrite of PR 22
// was done behind. testdata/parse_golden.txt was written by the parser of
// the parent commit (`go test ./internal/sqlparser -run TestParseGolden
// -update` on that checkout) and may not change afterwards: for every
// statement text the repository's applications, attack corpus, payload
// generators, fuzz seeds and lexer tests produce it holds the formatted
// statement and its comments, or the exact error with its position.
//
// A new file under testdata/fuzz/FuzzParse (the fuzzer writes one for
// every failure it finds) or a new fuzz seed adds an entry, so the test
// fails until the file is re-recorded; the re-recording's diff must then
// be added lines only.
func TestParseGolden(t *testing.T) {
	got := renderGolden(t)
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (record it with -update on the parent parser)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s line %d differs\n got: %s\nwant: %s", goldenPath, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", goldenPath, len(gotLines), len(wantLines))
}
