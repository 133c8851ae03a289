package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/septic-db/septic/internal/sqlparser"
)

// Oracles for the kernels under the bound evaluator: each holds the new
// code to the code it replaced, kept here in its old form.

// likeOracle is LIKE as it was evaluated before patterns were bound: both
// sides lowered on every call.
func likeOracle(s, pattern string) bool {
	return likeMatch(strings.ToLower(s), strings.ToLower(pattern))
}

// FuzzLikeMatch: a LIKE bound to a literal pattern (lowered and classified
// once) and a LIKE whose pattern is computed per row both answer what the
// oracle answers, whatever the bytes.
func FuzzLikeMatch(f *testing.F) {
	for _, seed := range [][2]string{
		{"", ""}, {"", "%"}, {"", "%%"}, {"abc", ""}, {"abc", "%%"}, {"abc", "%b%"}, {"aBc", "%B%"}, {"ABC", "a_c"},
		{"50%", `50\%`}, {"50x", `50\%`}, {"a_b", `a\_b`}, {"axb", `a\_b`}, {`a\`, `a\`}, {`a\b`, `%\`}, {`a\`, `%\%`},
		{"%", "%"}, {"a%b", "a%b"}, {"_", `\_`}, {"x", "%_%"}, {"", "%_%"}, {"aaa", "%aa"}, {"mississippi", "%iss%ppi"},
		{"İstanbul", "%i%"}, {"İstanbul", "i%"}, {"istanbul", "İ%"}, {"\u212Aelvin", "k%"}, {"kelvin", "\u212A%"},
		{"\u212A", "%k%"}, {"k", "%\u212A%"}, {"STRASSE", "%ß%"}, {"straße", "%SS%"}, {"ǅ", "%ǆ%"}, {"Ǆ", "ǅ"},
		{"ÀÉÎ", "%é%"}, {"àéî", "%É%"}, {"a\xffb", "%\xff%"}, {"a\xffB", "a_b"}, {"Ⱥ", "%ⱥ%"}, {"ⱥ", "_"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, s, p string) {
		want := likeOracle(s, p)
		pattern := Str(p)
		var literal, computed bexpr
		literal.setPattern(p)
		if got := literal.like(s, &pattern); got != want {
			t.Errorf("%q LIKE literal %q = %t, the oracle says %t (flags %b, bound %q)", s, p, got, want, literal.flags, literal.val.S)
		}
		if got := computed.like(s, &pattern); got != want {
			t.Errorf("%q LIKE computed %q = %t, the oracle says %t", s, p, got, want)
		}
	})
}

// TestLikeThroughSQL: the statement-level view of the same kernel — NULL
// on either side, a number as the subject, a pattern that is a column.
func TestLikeThroughSQL(t *testing.T) {
	db := testDB(t)
	for q, want := range map[string]string{
		"SELECT 'Lisbon' LIKE '%SB%'":                                      "1",
		"SELECT 'Lisbon' LIKE 'l_sbon'":                                    "1",
		"SELECT 'Lisbon' LIKE 'porto'":                                     "0",
		"SELECT NULL LIKE '%'":                                             "NULL",
		"SELECT 'x' LIKE NULL":                                             "NULL",
		"SELECT 1234 LIKE '%23%'":                                          "1",
		"SELECT 'İstanbul' LIKE '%İST%'":                                   "1",
		"SELECT COUNT(*) FROM users WHERE city LIKE CONCAT('%', 'S', '%')": "2",
		"SELECT COUNT(*) FROM users WHERE name LIKE name":                  "4",
		"SELECT COUNT(*) FROM users WHERE pass LIKE '%W%'":                 "3",
		"SELECT COUNT(*) FROM users WHERE NOT (city LIKE '%o%')":           "0",
	} {
		if got := mustExec(t, db, q).Rows[0][0].String(); got != want {
			t.Errorf("%s = %s, want %s", q, got, want)
		}
	}
}

// sortOracle is sortByKeys before keys were classified: a stable sort
// under Compare, NULLs first ascending.
func sortOracle(order []int, keys []Value, orderBy []sqlparser.OrderItem) {
	nk := len(orderBy)
	slices.SortStableFunc(order, func(a, b int) int {
		for i := range orderBy {
			va, vb := keys[a*nk+i], keys[b*nk+i]
			c := 0
			switch {
			case va.IsNull() && vb.IsNull():
			case va.IsNull():
				c = -1
			case vb.IsNull():
				c = 1
			default:
				c, _ = Compare(va, vb)
			}
			if c == 0 {
				continue
			}
			if orderBy[i].Desc {
				return -c
			}
			return c
		}
		return 0
	})
}

// TestSortMatchesStableSortUnderCompare: over generated key columns — one
// kind or several, NULLs, integers float64 cannot tell apart, both zeros,
// NaN, strings that are numbers to Compare — sortByKeys arranges the rows
// exactly as the oracle does, ties and intransitive pairs included.
func TestSortMatchesStableSortUnderCompare(t *testing.T) {
	const big = 1 << 53
	pools := map[string][]Value{
		"int":    {Int(0), Int(1), Int(-1), Int(7), Int(7), Int(42), Int(big), Int(big + 1), Int(big + 2), Int(-big - 1), Int(math.MaxInt64), Int(math.MinInt64)},
		"text":   {Str(""), Str("a"), Str("A"), Str("ab"), Str("b"), Str("b"), Str("10"), Str("9"), Str(" 9"), Str("é"), Str("1e2")},
		"float":  {Float(0), Float(math.Copysign(0, -1)), Float(1.5), Float(-1.5), Float(math.Inf(1)), Float(math.Inf(-1)), Float(7)},
		"nan":    {Float(math.NaN()), Float(1), Float(2), Float(3), Int(2)},
		"bool":   {Bool(true), Bool(false), Int(1), Int(0), Float(0.5)},
		"mixed":  {Int(9), Str("9"), Str("9x"), Str(" 9"), Str("10"), Int(10), Float(9.5), Bool(true), Str("abc"), Str("1")},
		"prefix": {Str("12abc"), Str("12"), Str("1.2e1"), Str("x12"), Int(12), Float(12)},
	}
	var names []string
	for name := range pools {
		names = append(names, name)
	}
	slices.Sort(names)
	r := rand.New(rand.NewSource(19))
	for round := 0; round < 3000; round++ {
		nk := 1 + r.Intn(3)
		rows := r.Intn(40)
		if round%10 == 0 {
			rows = 150 + r.Intn(100) // past the sizes a sort finishes by insertion
		}
		orderBy := make([]sqlparser.OrderItem, nk)
		cols := make([][]Value, nk)
		var shape []string
		for i := range orderBy {
			orderBy[i].Desc = r.Intn(2) == 0
			name := names[r.Intn(len(names))]
			cols[i] = pools[name]
			shape = append(shape, fmt.Sprintf("%s desc=%t", name, orderBy[i].Desc))
		}
		nulls := r.Intn(4) == 0
		keys := make([]Value, 0, rows*nk)
		for i := 0; i < rows; i++ {
			for _, pool := range cols {
				v := pool[r.Intn(len(pool))]
				if nulls && r.Intn(5) == 0 {
					v = Null()
				}
				keys = append(keys, v)
			}
		}
		got, want := make([]int, rows), make([]int, rows)
		for i := range got {
			got[i], want[i] = i, i
		}
		sortOracle(want, keys, orderBy)
		sortByKeys(got, slices.Clone(keys), orderBy)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d, keys %v over %d rows:\n got %v\nwant %v\nkeys %v", round, shape, rows, got, want, keys)
		}
	}
}

// sameValueOracle is sameValue when it compared texts.
func sameValueOracle(a, b Value) bool {
	if a.IsNull() && b.IsNull() {
		return true
	}
	if a.IsNull() != b.IsNull() {
		return false
	}
	return a.Kind == b.Kind && a.String() == b.String()
}

// TestSameValueComparesFieldsLikeTexts pins every case of sameValue to the
// comparison of kinds and texts it replaced.
func TestSameValueComparesFieldsLikeTexts(t *testing.T) {
	negZero := math.Copysign(0, -1)
	values := []Value{
		Null(), {}, Int(0), Int(1), Int(-1), Int(math.MaxInt64), Int(math.MinInt64),
		Float(0), Float(negZero), Float(1), Float(1.5), Float(-1.5), Float(1e21), Float(2.5e-7),
		Float(math.NaN()), Float(math.Float64frombits(0x7ff8000000000001)), Float(-math.NaN()),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.MaxFloat64), Float(math.SmallestNonzeroFloat64),
		Str(""), Str("0"), Str("1"), Str("NULL"), Str("a"), Str("A"), Bool(true), Bool(false),
		{Kind: KindInt, I: 1, F: 2, S: "stale", B: true}, // only the field of the kind counts
		{Kind: KindString, S: "1", I: 1},
	}
	for _, a := range values {
		for _, b := range values {
			if got, want := sameValue(a, b), sameValueOracle(a, b); got != want {
				t.Errorf("sameValue(%#v, %#v) = %t, by kind and text %t", a, b, got, want)
			}
		}
	}
}

// TestIndexesMatchRebuildAfterDML: after every statement of a random
// INSERT / UPDATE / DELETE sequence — multi-row deletes from the middle,
// keyed ones, ORDER BY … LIMIT, NULLs in UNIQUE columns, failed
// statements — the incrementally maintained indexes equal a fresh rebuild.
func TestIndexesMatchRebuildAfterDML(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := New()
		mustExec(t, db, "CREATE TABLE x (id INT PRIMARY KEY, u TEXT UNIQUE, f FLOAT UNIQUE, k INT)")
		tbl := db.cat.Load().tables["x"]
		text := func() string {
			if r.Intn(4) == 0 {
				return "NULL"
			}
			return fmt.Sprintf("'u%d'", r.Intn(60))
		}
		float := func() string {
			return []string{"NULL", "0", "0 - 0.0", "1.5", "2.5e-7", "1e21", fmt.Sprint(r.Intn(40)), fmt.Sprintf("%d.25", r.Intn(40))}[r.Intn(8)]
		}
		for step := 0; step < 1200; step++ {
			var q string
			switch r.Intn(10) {
			case 0, 1, 2, 3:
				q = fmt.Sprintf("INSERT INTO x (id, u, f, k) VALUES (%d, %s, %s, %d)", r.Intn(150), text(), float(), r.Intn(6))
			case 4:
				q = fmt.Sprintf("UPDATE x SET u = %s, k = k + 1 WHERE id = %d", text(), r.Intn(150))
			case 5:
				q = fmt.Sprintf("UPDATE x SET id = id + %d, f = %s WHERE k = %d ORDER BY id DESC LIMIT %d", 150+r.Intn(3), float(), r.Intn(6), r.Intn(3))
			case 6:
				q = fmt.Sprintf("DELETE FROM x WHERE id = %d", r.Intn(150))
			case 7:
				q = fmt.Sprintf("DELETE FROM x WHERE k = %d", r.Intn(6))
			case 8:
				q = fmt.Sprintf("DELETE FROM x WHERE id > %d ORDER BY u DESC, id LIMIT %d", r.Intn(150), r.Intn(5))
			default:
				q = fmt.Sprintf("DELETE FROM x WHERE u LIKE '%%%d' OR f IS NULL", r.Intn(10))
			}
			_, _ = db.Exec(q) // duplicates fail; the indexes must not have moved
			got := tbl.indexes
			tbl.rebuildIndexes()
			if !reflect.DeepEqual(got, tbl.indexes) {
				t.Fatalf("seed %d step %d, after %s:\n  kept %v\nrebuilt %v", seed, step, q, got, tbl.indexes)
			}
			for ci, idx := range tbl.indexes {
				for key, ri := range idx {
					if ri >= len(tbl.Rows) || indexKey(tbl.Rows[ri][ci]) != key {
						t.Fatalf("seed %d step %d, after %s: index %d maps %q to row %d", seed, step, q, ci, key, ri)
					}
				}
			}
		}
		if len(tbl.Rows) == 0 {
			t.Fatalf("seed %d: the table ended empty, the sequence deletes too much to test anything", seed)
		}
	}
}
