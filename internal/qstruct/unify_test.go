package qstruct

import (
	"testing"
)

// TestNumericLiteralsUnify pins the validation-time coercion behaviour:
// the same application query issued with "watts = 1300" and
// "watts = 1300.5" must match one model — MySQL validates the value
// against the FLOAT column either way.
func TestNumericLiteralsUnify(t *testing.T) {
	qm := ModelOf(buildQS(t, "INSERT INTO readings (device_id, watts) VALUES (1, 12.5)"))
	intVariant := buildQS(t, "INSERT INTO readings (device_id, watts) VALUES (2, 1300)")
	if v := Compare(intVariant, qm); !v.Match {
		t.Errorf("integer literal against REAL_ITEM model flagged: %+v", v)
	}
	floatVariant := buildQS(t, "INSERT INTO readings (device_id, watts) VALUES (2.0, 9.9)")
	if v := Compare(floatVariant, qm); !v.Match {
		t.Errorf("float literal against INT_ITEM model flagged: %+v", v)
	}
}

// TestNumericUnificationDoesNotWeakenDetection: unifying INT and REAL
// must not let string/field/type-class changes through.
func TestNumericUnificationDoesNotWeakenDetection(t *testing.T) {
	qm := ModelOf(buildQS(t, "SELECT * FROM t WHERE a = 1"))
	cases := []struct {
		name  string
		query string
	}{
		{"string for number", "SELECT * FROM t WHERE a = 'x'"},
		{"field for number", "SELECT * FROM t WHERE a = b"},
		{"null for number", "SELECT * FROM t WHERE a = NULL"},
		{"bool for number", "SELECT * FROM t WHERE a = TRUE"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if v := Compare(buildQS(t, tt.query), qm); v.Match {
				t.Errorf("%s matched the numeric model", tt.query)
			}
		})
	}
	// And the unifying direction still matches.
	if v := Compare(buildQS(t, "SELECT * FROM t WHERE a = 2.5"), qm); !v.Match {
		t.Errorf("real literal should match int model: %+v", v)
	}
}
