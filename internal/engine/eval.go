package engine

import (
	"crypto/md5"
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"math"
	"strings"

	"github.com/septic-db/septic/internal/sqlparser"
)

// layout is the immutable half of a scope: which sources a row spans and
// where each one's columns sit in it. A table's own layout is built once
// in newTable and a select plan's once per plan, so executions share them
// and must not modify them.
type layout struct {
	// tables[i] names the source (alias if given, else table name,
	// lower-cased) of the columns in colNames[i].
	tables   []string
	colNames [][]string
	// offsets[i] is the index in a row where table i's columns begin.
	offsets []int
}

// addSource appends a table's columns to the layout.
func (l *layout) addSource(name string, cols []string) {
	l.offsets = append(l.offsets, l.width())
	l.tables = append(l.tables, strings.ToLower(name))
	l.colNames = append(l.colNames, cols)
}

// width returns the total number of columns in the layout.
func (l *layout) width() int {
	if len(l.offsets) == 0 {
		return 0
	}
	last := len(l.offsets) - 1
	return l.offsets[last] + len(l.colNames[last])
}

// scope resolves column references during evaluation: a layout plus the
// row currently under it. Scopes chain so correlated subqueries can see
// their enclosing query's row. A scope is a stack value of the executor
// that owns it; nothing retains a *scope past that executor's return.
type scope struct {
	parent *scope
	layout
	row []Value
}

// noScope is the scope of expressions that see no row: VALUES tuples and
// LIMIT clauses. Evaluation only reads a scope, so one serves everybody.
var noScope scope

// lookup resolves a column reference to its index in row, walking parent
// scopes for correlated subqueries. The boolean reports success.
func (sc *scope) lookup(table, name string) (*scope, int, bool) {
	table = strings.ToLower(table)
	for s := sc; s != nil; s = s.parent {
		for ti, tname := range s.tables {
			if table != "" && table != tname {
				continue
			}
			for ci, cname := range s.colNames[ti] {
				if strings.EqualFold(cname, name) {
					return s, s.offsets[ti] + ci, true
				}
			}
		}
	}
	return nil, 0, false
}

// evaluator computes expression values for one database. It is stateless
// and passed by value, so executing a statement never allocates one.
type evaluator struct {
	db *DB
}

func (ev evaluator) eval(e sqlparser.Expr, sc *scope) (Value, error) {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return literalValue(x), nil
	case *sqlparser.ColumnRef:
		s, idx, ok := sc.lookup(x.Table, x.Name)
		if !ok {
			return Value{}, fmt.Errorf("%w: %s", ErrNoSuchColumn, formatColRef(x))
		}
		return s.row[idx], nil
	case *sqlparser.BinaryExpr:
		return ev.evalBinary(x, sc)
	case *sqlparser.UnaryExpr:
		return ev.evalUnary(x, sc)
	case *sqlparser.FuncCall:
		return ev.evalFunc(x, sc)
	case *sqlparser.InExpr:
		return ev.evalIn(x, sc)
	case *sqlparser.BetweenExpr:
		return ev.evalBetween(x, sc)
	case *sqlparser.IsNullExpr:
		v, err := ev.eval(x.Expr, sc)
		if err != nil {
			return Value{}, err
		}
		res := v.IsNull()
		if x.Not {
			res = !res
		}
		return Bool(res), nil
	case *sqlparser.SubqueryExpr:
		rows, err := ev.subqueryRows(x.Select, sc)
		if err != nil {
			return Value{}, err
		}
		if len(rows) == 0 {
			return Null(), nil
		}
		if len(rows) > 1 {
			return Value{}, fmt.Errorf("scalar subquery returned %d rows", len(rows))
		}
		if len(rows[0]) != 1 {
			return Value{}, fmt.Errorf("scalar subquery returned %d columns", len(rows[0]))
		}
		return rows[0][0], nil
	case *sqlparser.ExistsExpr:
		rows, err := ev.subqueryRows(x.Select, sc)
		if err != nil {
			return Value{}, err
		}
		found := len(rows) > 0
		if x.Not {
			found = !found
		}
		return Bool(found), nil
	case *sqlparser.Placeholder:
		return Value{}, fmt.Errorf("unbound placeholder: use ExecArgs")
	case *sqlparser.CaseExpr:
		return ev.evalCase(x, sc)
	default:
		return Value{}, fmt.Errorf("unsupported expression %T", e)
	}
}

// evalCase implements both CASE forms with MySQL semantics: the operand
// form compares with =, the searched form evaluates each condition as a
// boolean; no arm matching yields ELSE or NULL.
func (ev evaluator) evalCase(x *sqlparser.CaseExpr, sc *scope) (Value, error) {
	var operand Value
	if x.Operand != nil {
		v, err := ev.eval(x.Operand, sc)
		if err != nil {
			return Value{}, err
		}
		operand = v
	}
	for _, w := range x.Whens {
		cond, err := ev.eval(w.Cond, sc)
		if err != nil {
			return Value{}, err
		}
		matched := false
		if x.Operand != nil {
			matched = Equal(operand, cond)
		} else {
			matched = !cond.IsNull() && cond.AsBool()
		}
		if matched {
			return ev.eval(w.Result, sc)
		}
	}
	if x.Else != nil {
		return ev.eval(x.Else, sc)
	}
	return Null(), nil
}

func formatColRef(c *sqlparser.ColumnRef) string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

func (ev evaluator) subqueryRows(sel *sqlparser.SelectStmt, sc *scope) ([][]Value, error) {
	res, err := ev.db.execSelect(sel, sc, nil)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

func (ev evaluator) evalBinary(x *sqlparser.BinaryExpr, sc *scope) (Value, error) {
	left, err := ev.eval(x.Left, sc)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case "AND", "OR":
		// A false AND operand or a true OR operand decides the result
		// without the other side being evaluated.
		if !left.IsNull() && left.AsBool() == (x.Op == "OR") {
			return Bool(x.Op == "OR"), nil
		}
	}
	right, err := ev.eval(x.Right, sc)
	if err != nil {
		return Value{}, err
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		// applyBinary's own case, kept inline: a WHERE clause runs this
		// once per scanned row, and the extra call costs 10 % of a scan.
		cmp, ok := Compare(left, right)
		if !ok {
			return Null(), nil
		}
		return Bool(compareHolds(x.Op, cmp)), nil
	}
	return applyBinary(x.Op, &left, &right)
}

func compareHolds(op string, cmp int) bool {
	switch op {
	case "=":
		return cmp == 0
	case "<>":
		return cmp != 0
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	default:
		return cmp >= 0
	}
}

// applyBinary applies a binary operator to its evaluated operands; the
// row evaluator and the grouping evaluator share it.
func applyBinary(op string, left, right *Value) (Value, error) {
	switch op {
	case "AND":
		// Three-valued: false wins over NULL, NULL over true.
		if (!left.IsNull() && !left.AsBool()) || (!right.IsNull() && !right.AsBool()) {
			return Bool(false), nil
		}
		if left.IsNull() || right.IsNull() {
			return Null(), nil
		}
		return Bool(true), nil
	case "OR":
		if (!left.IsNull() && left.AsBool()) || (!right.IsNull() && right.AsBool()) {
			return Bool(true), nil
		}
		if left.IsNull() || right.IsNull() {
			return Null(), nil
		}
		return Bool(false), nil
	case "XOR":
		if left.IsNull() || right.IsNull() {
			return Null(), nil
		}
		return Bool(left.AsBool() != right.AsBool()), nil
	case "=", "<>", "<", "<=", ">", ">=":
		cmp, ok := Compare(*left, *right)
		if !ok {
			return Null(), nil
		}
		return Bool(compareHolds(op, cmp)), nil
	case "LIKE":
		if left.IsNull() || right.IsNull() {
			return Null(), nil
		}
		return Bool(matchLike(left.String(), right.String())), nil
	case "+", "-", "*", "/", "%":
		if left.IsNull() || right.IsNull() {
			return Null(), nil
		}
		return arith(op, *left, *right)
	default:
		return Value{}, fmt.Errorf("unsupported operator %q", op)
	}
}

// arith implements MySQL-ish numeric operators: integer math stays
// integral except for '/', which always yields a float.
func arith(op string, a, b Value) (Value, error) {
	bothInt := a.Kind == KindInt && b.Kind == KindInt
	switch op {
	case "+":
		if bothInt {
			return Int(a.I + b.I), nil
		}
		return Float(a.AsFloat() + b.AsFloat()), nil
	case "-":
		if bothInt {
			return Int(a.I - b.I), nil
		}
		return Float(a.AsFloat() - b.AsFloat()), nil
	case "*":
		if bothInt {
			return Int(a.I * b.I), nil
		}
		return Float(a.AsFloat() * b.AsFloat()), nil
	case "/":
		d := b.AsFloat()
		if d == 0 {
			return Null(), nil // MySQL: division by zero yields NULL
		}
		return Float(a.AsFloat() / d), nil
	case "%":
		d := b.AsInt()
		if d == 0 {
			return Null(), nil
		}
		return Int(a.AsInt() % d), nil
	default:
		return Value{}, fmt.Errorf("unsupported arithmetic %q", op)
	}
}

func (ev evaluator) evalUnary(x *sqlparser.UnaryExpr, sc *scope) (Value, error) {
	v, err := ev.eval(x.Operand, sc)
	if err != nil {
		return Value{}, err
	}
	return applyUnary(x.Op, v)
}

func applyUnary(op string, v Value) (Value, error) {
	switch {
	case op != "NOT" && op != "-":
		return Value{}, fmt.Errorf("unsupported unary operator %q", op)
	case v.IsNull():
		return Null(), nil
	case op == "NOT":
		return Bool(!v.AsBool()), nil
	case v.Kind == KindInt:
		return Int(-v.I), nil
	default:
		return Float(-v.AsFloat()), nil
	}
}

func (ev evaluator) evalIn(x *sqlparser.InExpr, sc *scope) (Value, error) {
	left, err := ev.eval(x.Left, sc)
	if err != nil {
		return Value{}, err
	}
	if left.IsNull() {
		return Null(), nil
	}
	var candidates []Value
	if x.Subquery != nil {
		rows, err := ev.subqueryRows(x.Subquery, sc)
		if err != nil {
			return Value{}, err
		}
		candidates = make([]Value, 0, len(rows))
		for _, r := range rows {
			if len(r) != 1 {
				return Value{}, fmt.Errorf("IN subquery returned %d columns", len(r))
			}
			candidates = append(candidates, r[0])
		}
	} else {
		candidates = make([]Value, 0, len(x.List))
		for _, e := range x.List {
			v, err := ev.eval(e, sc)
			if err != nil {
				return Value{}, err
			}
			candidates = append(candidates, v)
		}
	}
	sawNull := false
	for _, c := range candidates {
		if c.IsNull() {
			sawNull = true
			continue
		}
		if Equal(left, c) {
			return Bool(!x.Not), nil
		}
	}
	if sawNull {
		return Null(), nil
	}
	return Bool(x.Not), nil
}

func (ev evaluator) evalBetween(x *sqlparser.BetweenExpr, sc *scope) (Value, error) {
	v, err := ev.eval(x.Expr, sc)
	if err != nil {
		return Value{}, err
	}
	low, err := ev.eval(x.Low, sc)
	if err != nil {
		return Value{}, err
	}
	high, err := ev.eval(x.High, sc)
	if err != nil {
		return Value{}, err
	}
	c1, ok1 := Compare(v, low)
	c2, ok2 := Compare(v, high)
	if !ok1 || !ok2 {
		return Null(), nil
	}
	in := c1 >= 0 && c2 <= 0
	if x.Not {
		in = !in
	}
	return Bool(in), nil
}

// matchLike implements SQL LIKE with % and _ wildcards, case-insensitive
// (MySQL's default collation).
func matchLike(s, pattern string) bool {
	return likeMatch(strings.ToLower(s), strings.ToLower(pattern))
}

func likeMatch(s, p string) bool {
	// Iterative two-pointer match with backtracking on '%'.
	var si, pi int
	star, sBack := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && p[pi] == '\\' && pi+1 < len(p) && (p[pi+1] == '%' || p[pi+1] == '_'):
			if s[si] == p[pi+1] {
				si++
				pi += 2
				continue
			}
			if star < 0 {
				return false
			}
			pi = star + 1
			sBack++
			si = sBack
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			sBack = si
			pi++
		case star >= 0:
			pi = star + 1
			sBack++
			si = sBack
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

// evalFunc dispatches scalar functions. Aggregates are handled by the
// grouping executor and reaching one here is an error.
func (ev evaluator) evalFunc(x *sqlparser.FuncCall, sc *scope) (Value, error) {
	if isAggregateName(x.Name) {
		return Value{}, fmt.Errorf("aggregate %s used outside grouping context", x.Name)
	}
	args := make([]Value, 0, len(x.Args))
	for _, a := range x.Args {
		v, err := ev.eval(a, sc)
		if err != nil {
			return Value{}, err
		}
		args = append(args, v)
	}
	return ev.callScalar(x.Name, args)
}

func (ev evaluator) callScalar(name string, args []Value) (Value, error) {
	argn := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s expects %d arguments, got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "CONCAT":
		var b strings.Builder
		for _, a := range args {
			if a.IsNull() {
				return Null(), nil
			}
			b.WriteString(a.String())
		}
		return Str(b.String()), nil
	case "CONCAT_WS":
		if len(args) < 1 {
			return Value{}, fmt.Errorf("CONCAT_WS expects a separator")
		}
		sep := args[0].String()
		parts := make([]string, 0, len(args)-1)
		for _, a := range args[1:] {
			if a.IsNull() {
				continue
			}
			parts = append(parts, a.String())
		}
		return Str(strings.Join(parts, sep)), nil
	case "LOWER", "LCASE":
		if err := argn(1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Str(strings.ToLower(args[0].String())), nil
	case "UPPER", "UCASE":
		if err := argn(1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Str(strings.ToUpper(args[0].String())), nil
	case "LENGTH", "CHAR_LENGTH":
		if err := argn(1); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Int(int64(len(args[0].String()))), nil
	case "TRIM":
		if err := argn(1); err != nil {
			return Value{}, err
		}
		return Str(strings.TrimSpace(args[0].String())), nil
	case "LTRIM":
		if err := argn(1); err != nil {
			return Value{}, err
		}
		return Str(strings.TrimLeft(args[0].String(), " ")), nil
	case "RTRIM":
		if err := argn(1); err != nil {
			return Value{}, err
		}
		return Str(strings.TrimRight(args[0].String(), " ")), nil
	case "REPLACE":
		if err := argn(3); err != nil {
			return Value{}, err
		}
		return Str(strings.ReplaceAll(args[0].String(), args[1].String(), args[2].String())), nil
	case "SUBSTRING", "SUBSTR":
		if len(args) != 2 && len(args) != 3 {
			return Value{}, fmt.Errorf("SUBSTRING expects 2 or 3 arguments")
		}
		s := args[0].String()
		start := int(args[1].AsInt())
		if start < 0 {
			start = len(s) + start + 1
		}
		if start < 1 {
			start = 1
		}
		if start > len(s) {
			return Str(""), nil
		}
		out := s[start-1:]
		if len(args) == 3 {
			n := int(args[2].AsInt())
			if n < 0 {
				n = 0
			}
			if n < len(out) {
				out = out[:n]
			}
		}
		return Str(out), nil
	case "LEFT":
		if err := argn(2); err != nil {
			return Value{}, err
		}
		s := args[0].String()
		n := int(args[1].AsInt())
		if n < 0 {
			n = 0
		}
		if n > len(s) {
			n = len(s)
		}
		return Str(s[:n]), nil
	case "RIGHT":
		if err := argn(2); err != nil {
			return Value{}, err
		}
		s := args[0].String()
		n := int(args[1].AsInt())
		if n < 0 {
			n = 0
		}
		if n > len(s) {
			n = len(s)
		}
		return Str(s[len(s)-n:]), nil
	case "ABS":
		if err := argn(1); err != nil {
			return Value{}, err
		}
		if args[0].Kind == KindInt {
			if args[0].I < 0 {
				return Int(-args[0].I), nil
			}
			return args[0], nil
		}
		return Float(math.Abs(args[0].AsFloat())), nil
	case "ROUND":
		if len(args) != 1 && len(args) != 2 {
			return Value{}, fmt.Errorf("ROUND expects 1 or 2 arguments")
		}
		digits := 0
		if len(args) == 2 {
			digits = int(args[1].AsInt())
		}
		mult := math.Pow(10, float64(digits))
		return Float(math.Round(args[0].AsFloat()*mult) / mult), nil
	case "FLOOR":
		if err := argn(1); err != nil {
			return Value{}, err
		}
		return Int(int64(math.Floor(args[0].AsFloat()))), nil
	case "CEIL", "CEILING":
		if err := argn(1); err != nil {
			return Value{}, err
		}
		return Int(int64(math.Ceil(args[0].AsFloat()))), nil
	case "MOD":
		if err := argn(2); err != nil {
			return Value{}, err
		}
		return arith("%", args[0], args[1])
	case "IF":
		if err := argn(3); err != nil {
			return Value{}, err
		}
		if !args[0].IsNull() && args[0].AsBool() {
			return args[1], nil
		}
		return args[2], nil
	case "IFNULL":
		if err := argn(2); err != nil {
			return Value{}, err
		}
		if args[0].IsNull() {
			return args[1], nil
		}
		return args[0], nil
	case "NULLIF":
		if err := argn(2); err != nil {
			return Value{}, err
		}
		if Equal(args[0], args[1]) {
			return Null(), nil
		}
		return args[0], nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null(), nil
	case "GREATEST":
		return extremum(args, 1)
	case "LEAST":
		return extremum(args, -1)
	case "MD5":
		if err := argn(1); err != nil {
			return Value{}, err
		}
		sum := md5.Sum([]byte(args[0].String()))
		return Str(hex.EncodeToString(sum[:])), nil
	case "SHA1":
		if err := argn(1); err != nil {
			return Value{}, err
		}
		sum := sha1.Sum([]byte(args[0].String()))
		return Str(hex.EncodeToString(sum[:])), nil
	case "HEX":
		if err := argn(1); err != nil {
			return Value{}, err
		}
		return Str(strings.ToUpper(hex.EncodeToString([]byte(args[0].String())))), nil
	case "NOW", "CURRENT_TIMESTAMP":
		return Str(ev.db.clock().UTC().Format("2006-01-02 15:04:05")), nil
	case "CURDATE", "CURRENT_DATE":
		return Str(ev.db.clock().UTC().Format("2006-01-02")), nil
	case "VERSION":
		return Str("5.7.0-septic"), nil
	case "DATABASE":
		return Str("app"), nil
	case "USER", "CURRENT_USER":
		return Str("app@localhost"), nil
	default:
		return Value{}, fmt.Errorf("unknown function %s", name)
	}
}

func extremum(args []Value, dir int) (Value, error) {
	if len(args) == 0 {
		return Value{}, fmt.Errorf("GREATEST/LEAST need at least one argument")
	}
	best := args[0]
	for _, a := range args[1:] {
		if a.IsNull() || best.IsNull() {
			return Null(), nil
		}
		if c, ok := Compare(a, best); ok && c*dir > 0 {
			best = a
		}
	}
	return best, nil
}

// isAggregateName reports whether the function is an aggregate.
func isAggregateName(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX", "GROUP_CONCAT":
		return true
	default:
		return false
	}
}
