// Package engine implements the in-memory relational DBMS that hosts
// SEPTIC. It plays the role MySQL plays in the paper: it receives query
// text, decodes and parses it (internal/sqlparser), validates it against
// the catalog, invokes the registered QueryHook — the point where SEPTIC
// is installed, "right before the execution step, after all potential
// modifications have been applied to the queries" (§II-A) — and then
// executes it.
//
// The engine supports the SQL surface the paper's web applications need:
// SELECT with joins, subqueries, UNION, GROUP BY/HAVING/ORDER BY/LIMIT,
// aggregate and scalar functions, INSERT (including INSERT..SELECT),
// UPDATE, DELETE, CREATE/DROP TABLE, SHOW TABLES and DESCRIBE, with
// MySQL-style weak typing in comparisons.
package engine

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind is the runtime type of a Value.
type Kind int

// Value kinds. Enums start at 1 so the zero value is invalid; the zero
// Value is still usable because IsNull treats KindInvalid as an error
// sentinel rather than data.
const (
	KindInvalid Kind = iota
	KindNull
	KindInt
	KindFloat
	KindString
	KindBool
)

// String names the kind for error messages.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a single cell value. It is a small tagged union; only the
// field matching Kind is meaningful.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
	B    bool
}

// Constructors.

// Null returns the SQL NULL value.
func Null() Value { return Value{Kind: KindNull} }

// Int returns an integer value.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// Str returns a string value.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{Kind: KindBool, B: b} }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// String renders the value the way the mysql client would.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.B {
			return "1"
		}
		return "0"
	default:
		return "<invalid>"
	}
}

// appendText appends what String returns, without the intermediate
// string.
func (v Value) appendText(b []byte) []byte {
	switch v.Kind {
	case KindInt:
		return strconv.AppendInt(b, v.I, 10)
	case KindFloat:
		return strconv.AppendFloat(b, v.F, 'g', -1, 64)
	default:
		return append(b, v.String()...)
	}
}

// AsFloat coerces the value to a float the way MySQL does in numeric
// context: strings convert via their longest numeric prefix (so 'abc' is
// 0 and '1x' is 1 — the behaviour behind several classic injection
// tricks), booleans are 0/1, NULL is 0.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt:
		return float64(v.I)
	case KindFloat:
		return v.F
	case KindBool:
		if v.B {
			return 1
		}
		return 0
	case KindString:
		return numericPrefix(v.S)
	default:
		return 0
	}
}

// AsInt coerces to integer via AsFloat, truncating.
func (v Value) AsInt() int64 {
	if v.Kind == KindInt {
		return v.I
	}
	return int64(v.AsFloat())
}

// AsBool coerces to boolean: nonzero numbers and numeric-prefix strings
// are true, following MySQL's truthiness.
func (v Value) AsBool() bool {
	switch v.Kind {
	case KindBool:
		return v.B
	case KindNull:
		return false
	default:
		return v.AsFloat() != 0
	}
}

// numericPrefix parses the longest numeric prefix of s, MySQL-style.
func numericPrefix(s string) float64 {
	s = strings.TrimLeft(s, " \t")
	end := 0
	sawDigit, sawDot, sawExp := false, false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			sawDigit = true
			end = i + 1
		case (c == '+' || c == '-') && i == 0:
			end = i + 1
		case c == '.' && !sawDot && !sawExp:
			sawDot = true
			end = i + 1
		case (c == 'e' || c == 'E') && sawDigit && !sawExp:
			sawExp = true
			end = i + 1
		case (c == '+' || c == '-') && i > 0 && (s[i-1] == 'e' || s[i-1] == 'E'):
			end = i + 1
		default:
			goto done
		}
	}
done:
	if !sawDigit {
		return 0
	}
	f, err := strconv.ParseFloat(strings.TrimRight(s[:end], "eE+-"), 64)
	if err != nil {
		return 0
	}
	return f
}

// Compare orders two values MySQL-style and reports -1, 0 or +1. When
// either side is NULL the second return value is false (the comparison
// result is NULL). Two strings compare as strings; mixed types compare
// numerically — which is why "creditCard = '1234abc'" can match 1234.
func Compare(a, b Value) (int, bool) {
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	if a.Kind == KindString && b.Kind == KindString {
		return strings.Compare(a.S, b.S), true
	}
	af, bf := a.AsFloat(), b.AsFloat()
	switch {
	case af < bf:
		return -1, true
	case af > bf:
		return 1, true
	default:
		return 0, true
	}
}

// Equal reports value equality under Compare semantics (NULL != NULL).
func Equal(a, b Value) bool {
	c, ok := Compare(a, b)
	return ok && c == 0
}
