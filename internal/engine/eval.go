package engine

import (
	"crypto/md5"
	"crypto/sha1"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"

	"github.com/septic-db/septic/internal/sqlparser"
)

// layout says which sources a row spans and where each one's columns sit
// in it. A table's own layout is built once in newTable and a plan's once
// per plan, so executions share them and must not modify them.
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

// resolve returns the row offset of a column reference, or -1. Only the
// binder asks: evaluation reads offsets.
func (l *layout) resolve(table, name string) int {
	table = strings.ToLower(table)
	for ti, tname := range l.tables {
		if table != "" && table != tname {
			continue
		}
		for ci, cname := range l.colNames[ti] {
			if strings.EqualFold(cname, name) {
				return l.offsets[ti] + ci
			}
		}
	}
	return -1
}

// frame is one query level of a running statement: the layout its column
// references were bound against and the row now under evaluation. Nested
// levels' frames form a stack, innermost last, in an array on the stack
// of the top-level executor: a level appends its own to the slice it was
// handed and passes the longer slice down, so nothing retains a frame.
type frame struct {
	layout *layout
	row    []Value
}

// bop is the operation of a bound expression node.
type bop uint8

const (
	opLit   bop = iota // val
	opCol              // row[n] of the frame kid levels up
	opParam            // args[n]: the value this execution binds to a '?'
	opErr              // err, raised when a row is evaluated
	opFail             // err, raised when reached, row or no row: it is the statement's, not an expression's
	// Binary operators over nodes[kid] and nodes[kid+1], opAnd to opMod.
	opAnd
	opOr
	opXor
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opLike
	opAdd
	opSub
	opMul
	opDiv
	opMod
	opNot
	opNeg
	opFunc     // scalar function val.S over nodes[kid:kid+n]
	opAgg      // aggregate val.S, likewise
	opIn       // nodes[kid] IN nodes[kid+1:kid+n]
	opInSub    // nodes[kid] IN (sel)
	opBetween  // nodes[kid] BETWEEN nodes[kid+1] AND nodes[kid+2]
	opIsNull   // nodes[kid] IS NULL
	opSubquery // (sel) as a scalar
	opExists   // EXISTS (sel)
	opCase     // [operand] {cond, result} [else], see flagOperand and flagElse
)

var binaryOps = map[string]bop{
	"AND": opAnd, "OR": opOr, "XOR": opXor, "=": opEq, "<>": opNe, "<": opLt, "<=": opLe, ">": opGt,
	">=": opGe, "LIKE": opLike, "+": opAdd, "-": opSub, "*": opMul, "/": opDiv, "%": opMod,
}

const (
	flagNot      = 1 << iota // NOT IN, NOT BETWEEN, IS NOT NULL, NOT EXISTS
	flagStar                 // COUNT(*)
	flagDistinct             // AGG(DISTINCT x)
	flagOperand              // CASE x WHEN …: nodes[kid] is x
	flagElse                 // CASE … ELSE: the last operand is the default
	flagPattern              // LIKE a literal: val.S is the pattern, lowered
	flagContains             // … of the form %text%, text free of wildcards
)

// bexpr is one node of a bound expression: what the binder (plan.go)
// makes of a sqlparser.Expr under a schema. What could not be resolved is
// an opErr that fails when, and only when, it is evaluated. Nodes live in
// their plan's arena and name their operands by index, so a published
// plan holds no pointer into itself and is never written.
type bexpr struct {
	op     bop
	flags  uint8
	kid, n int32
	val    Value
	sel    *sqlparser.SelectStmt
	err    error
}

// evaluator computes the bound expressions of one query level. It is a
// stack value of that level's executor: nodes is the level's arena,
// frames end with the level's own frame, and args are the execution's
// arguments, the same at every level.
type evaluator struct {
	cat    *catalog
	nodes  []bexpr
	frames []frame
	args   []Value
}

// setRow puts row under evaluation at this level.
func (ev *evaluator) setRow(row []Value) { ev.frames[len(ev.frames)-1].row = row }

// rowless returns ev with no frame in sight: a LIMIT clause was bound
// seeing no row, and a subquery in it must not see one either.
func (ev *evaluator) rowless() evaluator {
	return evaluator{cat: ev.cat, nodes: ev.nodes, frames: ev.frames[len(ev.frames):], args: ev.args}
}

// eval evaluates node i. It keeps to the nodes a scan evaluates per row —
// columns, literals, binary operators — and a small frame; evalOther has
// the rest.
func (ev *evaluator) eval(i int32) (Value, error) {
	if v := ev.leaf(i); v != nil {
		return *v, nil
	}
	n := &ev.nodes[i]
	if n.op < opAnd || n.op > opMod {
		return ev.evalOther(n)
	}
	// Operands are read where they are when they are leaves: a comparison
	// of a column with a literal copies neither.
	var lbuf, rbuf Value
	left, right := ev.leaf(n.kid), ev.leaf(n.kid+1)
	if left == nil {
		var err error
		if lbuf, err = ev.eval(n.kid); err != nil {
			return Value{}, err
		}
		left = &lbuf
	}
	// A false AND operand or a true OR operand decides the result without
	// the other side being evaluated.
	if (n.op == opAnd || n.op == opOr) && !left.IsNull() && left.AsBool() == (n.op == opOr) {
		return Bool(n.op == opOr), nil
	}
	if right == nil {
		var err error
		if rbuf, err = ev.eval(n.kid + 1); err != nil {
			return Value{}, err
		}
		right = &rbuf
	}
	return n.apply(left, right), nil
}

// leaf returns where node i's value is if it is a column, a literal or a
// bound argument, else nil.
func (ev *evaluator) leaf(i int32) *Value {
	switch n := &ev.nodes[i]; n.op {
	case opLit:
		return &n.val
	case opCol:
		return &ev.frames[len(ev.frames)-1-int(n.kid)].row[n.n]
	case opParam:
		if int(n.n) < len(ev.args) {
			return &ev.args[n.n]
		}
	}
	return nil
}

func (ev *evaluator) evalOther(n *bexpr) (Value, error) {
	switch n.op {
	case opErr, opFail:
		return Value{}, n.err
	case opParam: // leaf found no argument for it
		return Value{}, errors.New("unbound placeholder: use ExecArgs")
	case opNot, opNeg:
		v, err := ev.eval(n.kid)
		if err != nil {
			return Value{}, err
		}
		return applyUnary(n.op, v), nil
	case opFunc:
		var buf [4]Value
		args := buf[:0]
		for k := n.kid; k < n.kid+n.n; k++ {
			v, err := ev.eval(k)
			if err != nil {
				return Value{}, err
			}
			args = append(args, v)
		}
		if n.err != nil {
			return Value{}, n.err
		}
		return ev.callScalar(n.val.S, args)
	case opAgg:
		return Value{}, fmt.Errorf("aggregate %s used outside grouping context", n.val.S)
	case opIn, opInSub:
		return ev.evalIn(n)
	case opBetween:
		return ev.evalBetween(n)
	case opIsNull:
		v, err := ev.eval(n.kid)
		if err != nil {
			return Value{}, err
		}
		return Bool(v.IsNull() == (n.flags&flagNot == 0)), nil
	case opSubquery, opExists:
		// The subquery runs one level below: it sees this level's frames,
		// its row included.
		res, err := ev.cat.execSelect(n.sel, ev.frames, nil, ev.args)
		switch {
		case err != nil:
			return Value{}, err
		case n.op == opExists:
			return Bool((len(res.Rows) > 0) == (n.flags&flagNot == 0)), nil
		case len(res.Rows) == 0:
			return Null(), nil
		case len(res.Rows) > 1:
			return Value{}, fmt.Errorf("scalar subquery returned %d rows", len(res.Rows))
		case len(res.Rows[0]) != 1:
			return Value{}, fmt.Errorf("scalar subquery returned %d columns", len(res.Rows[0]))
		}
		return res.Rows[0][0], nil
	default:
		return ev.evalCase(n)
	}
}

// evalCase implements both CASE forms with MySQL semantics: the operand
// form compares with =, the searched form evaluates each condition as a
// boolean; no arm matching yields ELSE or NULL.
func (ev *evaluator) evalCase(n *bexpr) (Value, error) {
	k, end := n.kid, n.kid+n.n
	var operand Value
	if n.flags&flagOperand != 0 {
		v, err := ev.eval(k)
		if err != nil {
			return Value{}, err
		}
		operand = v
		k++
	}
	if n.flags&flagElse != 0 {
		end--
	}
	for ; k < end; k += 2 {
		cond, err := ev.eval(k)
		if err != nil {
			return Value{}, err
		}
		matched := !cond.IsNull() && cond.AsBool()
		if n.flags&flagOperand != 0 {
			matched = Equal(operand, cond)
		}
		if matched {
			return ev.eval(k + 1)
		}
	}
	if n.flags&flagElse != 0 {
		return ev.eval(end)
	}
	return Null(), nil
}

// compareHolds reports whether comparison op holds for a Compare result:
// bit cmp+1 of the operator's mask says so.
func compareHolds(op bop, cmp int) bool {
	const masks = 0b010<<0 | 0b101<<3 | 0b001<<6 | 0b011<<9 | 0b100<<12 | 0b110<<15 // = <> < <= > >=
	return masks>>(3*uint(op-opEq)+uint(cmp+1))&1 != 0
}

// apply applies the binary operator n to its evaluated operands; the row
// evaluator and the grouping evaluator share it.
func (n *bexpr) apply(left, right *Value) Value {
	switch n.op {
	case opEq, opNe, opLt, opLe, opGt, opGe:
		cmp, ok := Compare(*left, *right)
		if !ok {
			return Null()
		}
		return Bool(compareHolds(n.op, cmp))
	case opAnd:
		// Three-valued: false wins over NULL, NULL over true.
		if (!left.IsNull() && !left.AsBool()) || (!right.IsNull() && !right.AsBool()) {
			return Bool(false)
		}
	case opOr:
		if (!left.IsNull() && left.AsBool()) || (!right.IsNull() && right.AsBool()) {
			return Bool(true)
		}
	}
	switch {
	case left.IsNull() || right.IsNull():
		return Null()
	case n.op == opAnd:
		return Bool(true)
	case n.op == opOr:
		return Bool(false)
	case n.op == opXor:
		return Bool(left.AsBool() != right.AsBool())
	case n.op == opLike:
		return Bool(n.like(left.String(), right))
	default:
		return arith(n.op, *left, *right)
	}
}

// arith implements MySQL-ish numeric operators: integer math stays
// integral except for '/', which always yields a float.
func arith(op bop, a, b Value) Value {
	bothInt := a.Kind == KindInt && b.Kind == KindInt
	switch op {
	case opAdd:
		if bothInt {
			return Int(a.I + b.I)
		}
		return Float(a.AsFloat() + b.AsFloat())
	case opSub:
		if bothInt {
			return Int(a.I - b.I)
		}
		return Float(a.AsFloat() - b.AsFloat())
	case opMul:
		if bothInt {
			return Int(a.I * b.I)
		}
		return Float(a.AsFloat() * b.AsFloat())
	case opDiv:
		d := b.AsFloat()
		if d == 0 {
			return Null() // MySQL: division by zero yields NULL
		}
		return Float(a.AsFloat() / d)
	default: // opMod
		d := b.AsInt()
		if d == 0 {
			return Null()
		}
		return Int(a.AsInt() % d)
	}
}

func applyUnary(op bop, v Value) Value {
	switch {
	case v.IsNull():
		return Null()
	case op == opNot:
		return Bool(!v.AsBool())
	case v.Kind == KindInt:
		return Int(-v.I)
	default:
		return Float(-v.AsFloat())
	}
}

// evalIn evaluates every candidate before it answers, so an error in
// the list surfaces whether or not an earlier candidate matched.
func (ev *evaluator) evalIn(n *bexpr) (Value, error) {
	left, err := ev.eval(n.kid)
	if err != nil {
		return Value{}, err
	}
	if left.IsNull() {
		return Null(), nil
	}
	found, sawNull := false, false
	consider := func(c Value) {
		sawNull = sawNull || c.IsNull()
		found = found || Equal(left, c)
	}
	if n.op == opInSub {
		res, err := ev.cat.execSelect(n.sel, ev.frames, nil, ev.args)
		if err != nil {
			return Value{}, err
		}
		for _, r := range res.Rows {
			if len(r) != 1 {
				return Value{}, fmt.Errorf("IN subquery returned %d columns", len(r))
			}
			consider(r[0])
		}
	}
	for k := n.kid + 1; k < n.kid+n.n; k++ {
		c, err := ev.eval(k)
		if err != nil {
			return Value{}, err
		}
		consider(c)
	}
	switch {
	case found:
		return Bool(n.flags&flagNot == 0), nil
	case sawNull:
		return Null(), nil
	default:
		return Bool(n.flags&flagNot != 0), nil
	}
}

func (ev *evaluator) evalBetween(n *bexpr) (Value, error) {
	var v [3]Value
	for k := range v {
		var err error
		if v[k], err = ev.eval(n.kid + int32(k)); err != nil {
			return Value{}, err
		}
	}
	c1, ok1 := Compare(v[0], v[1])
	c2, ok2 := Compare(v[0], v[2])
	if !ok1 || !ok2 {
		return Null(), nil
	}
	return Bool((c1 >= 0 && c2 <= 0) == (n.flags&flagNot == 0)), nil
}

// setPattern binds a LIKE whose pattern is a literal: it is lowered here,
// once, and "%text%" with nothing else special in it becomes a substring
// search.
func (n *bexpr) setPattern(p string) {
	n.val = Str(strings.ToLower(p))
	n.flags |= flagPattern
	if isContains(n.val.S) {
		n.flags |= flagContains
	}
}

// isContains reports whether pattern p is "%text%", text free of wildcards.
func isContains(p string) bool {
	if len(p) < 2 || p[0] != '%' || p[len(p)-1] != '%' {
		return false
	}
	for i := 1; i < len(p)-1; i++ {
		if c := p[i]; c == '%' || c == '_' || c == '\\' {
			return false
		}
	}
	return true
}

// like implements SQL LIKE with % and _ wildcards, case-insensitive
// (MySQL's default collation): the answer is likeMatch over both sides
// lowered with strings.ToLower. An ASCII string is never lowered — the
// matchers fold its letters as they compare — so only a subject or a
// computed pattern with other runes in it pays for a copy. A computed
// pattern — a bound argument, which is what a literal is to the template
// of its shape — is looked at per row for what a literal one is at bind
// time, so a search costs the same whichever way its text got its plan.
func (n *bexpr) like(s string, pattern *Value) bool {
	if !isASCII(s) {
		s = strings.ToLower(s)
	}
	p, contains := n.val.S, n.flags&flagContains != 0
	if n.flags&flagPattern == 0 {
		if p = pattern.String(); !isASCII(p) {
			p = strings.ToLower(p)
		}
		contains = isContains(p)
	}
	// likeMatch pairs a '%' in the subject with one in the pattern before it
	// reads the pattern's as a wildcard; the substring search cannot.
	if contains && strings.IndexByte(s, '%') < 0 {
		return containsFold(s, p[1:len(p)-1])
	}
	return likeMatch(s, p)
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// foldByte lowers an ASCII letter and returns every other byte as it is.
func foldByte(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

// containsFold reports whether sub occurs in s, ASCII case folded on both
// sides.
func containsFold(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		j := 0
		for j < len(sub) && foldByte(s[i+j]) == foldByte(sub[j]) {
			j++
		}
		if j == len(sub) {
			return true
		}
	}
	return false
}

// likeMatch matches s against pattern p byte by byte, ASCII case folded
// on both sides.
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
		case pi < len(p) && (p[pi] == '_' || foldByte(p[pi]) == foldByte(s[si])):
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

// scalarArity is the argument count of each scalar function that takes
// a fixed number. The binder checks it (an opFunc with the wrong count
// carries the error and raises it once its arguments are evaluated), so
// callScalar indexes args without looking.
var scalarArity = map[string]int{
	"LOWER": 1, "LCASE": 1, "UPPER": 1, "UCASE": 1, "LENGTH": 1, "CHAR_LENGTH": 1, "TRIM": 1, "LTRIM": 1,
	"RTRIM": 1, "REPLACE": 3, "LEFT": 2, "RIGHT": 2, "ABS": 1, "FLOOR": 1, "CEIL": 1, "CEILING": 1, "MOD": 2,
	"IF": 3, "IFNULL": 2, "NULLIF": 2, "MD5": 1, "SHA1": 1, "HEX": 1,
}

func (ev *evaluator) callScalar(name string, args []Value) (Value, error) {
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
		if args[0].IsNull() {
			return Null(), nil
		}
		return Str(strings.ToLower(args[0].String())), nil
	case "UPPER", "UCASE":
		if args[0].IsNull() {
			return Null(), nil
		}
		return Str(strings.ToUpper(args[0].String())), nil
	case "LENGTH", "CHAR_LENGTH":
		if args[0].IsNull() {
			return Null(), nil
		}
		return Int(int64(len(args[0].String()))), nil
	case "TRIM":
		return Str(strings.TrimSpace(args[0].String())), nil
	case "LTRIM":
		return Str(strings.TrimLeft(args[0].String(), " ")), nil
	case "RTRIM":
		return Str(strings.TrimRight(args[0].String(), " ")), nil
	case "REPLACE":
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
		return Int(int64(math.Floor(args[0].AsFloat()))), nil
	case "CEIL", "CEILING":
		return Int(int64(math.Ceil(args[0].AsFloat()))), nil
	case "MOD":
		return arith(opMod, args[0], args[1]), nil
	case "IF":
		if !args[0].IsNull() && args[0].AsBool() {
			return args[1], nil
		}
		return args[2], nil
	case "IFNULL":
		if args[0].IsNull() {
			return args[1], nil
		}
		return args[0], nil
	case "NULLIF":
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
		sum := md5.Sum([]byte(args[0].String()))
		return Str(hex.EncodeToString(sum[:])), nil
	case "SHA1":
		sum := sha1.Sum([]byte(args[0].String()))
		return Str(hex.EncodeToString(sum[:])), nil
	case "HEX":
		return Str(strings.ToUpper(hex.EncodeToString([]byte(args[0].String())))), nil
	case "NOW", "CURRENT_TIMESTAMP":
		return Str(ev.cat.clock().UTC().Format("2006-01-02 15:04:05")), nil
	case "CURDATE", "CURRENT_DATE":
		return Str(ev.cat.clock().UTC().Format("2006-01-02")), nil
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
