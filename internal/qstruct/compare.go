package qstruct

import "fmt"

// CompareStep identifies which step of SEPTIC's two-step SQLI detection
// algorithm produced a verdict (paper §II-C3).
type CompareStep int

// Comparison steps.
const (
	// StepNone means no step failed (the query matches its model).
	StepNone CompareStep = iota
	// StepStructural is step 1: the node counts of QS and QM differ —
	// the injection changed the shape of the query (Fig. 3).
	StepStructural
	// StepSyntactical is step 2: same node count, but some node's
	// element type or element data differs — a syntax-mimicry attack
	// (Fig. 4).
	StepSyntactical
)

// String names the step the way the demo's event display does.
func (s CompareStep) String() string {
	switch s {
	case StepNone:
		return "none"
	case StepStructural:
		return "structural"
	case StepSyntactical:
		return "syntactical"
	default:
		return fmt.Sprintf("CompareStep(%d)", int(s))
	}
}

// Verdict is the result of comparing a query structure against a model.
type Verdict struct {
	// Match is true when the QS conforms to the QM.
	Match bool
	// Step records which detection step failed (StepNone on match).
	Step CompareStep
	// Index is the stack index of the first mismatching node for
	// StepSyntactical verdicts; -1 otherwise.
	Index int
	// Distance quantifies how far the structure sat from the model — the
	// demo display's "distance" column: the node-count delta for
	// structural mismatches, the index of the first mismatching node for
	// syntactical ones, 0 on match.
	Distance int
	// Detail is a human-readable explanation for the log.
	Detail string
}

// Compare runs SEPTIC's two-step SQLI detection: (1) verify the node
// counts of QS and QM are equal; (2) only if step 1 passes, verify each
// QS node against the corresponding QM node. Data nodes must agree on
// DATA TYPE (the QM holds ⊥ for their data); element nodes must agree on
// both ELEM TYPE and ELEM DATA.
func Compare(qs Stack, qm Model) Verdict {
	if len(qs) != len(qm.Nodes) {
		return Verdict{
			Match:    false,
			Step:     StepStructural,
			Index:    -1,
			Distance: lenDelta(len(qs), len(qm.Nodes)),
			Detail: fmt.Sprintf("query structure has %d nodes, model has %d",
				len(qs), len(qm.Nodes)),
		}
	}
	for i := range qs {
		got, want := qs[i], qm.Nodes[i]
		if !categoriesCompatible(got.Cat, want.Cat) {
			return Verdict{
				Match:    false,
				Step:     StepSyntactical,
				Index:    i,
				Distance: i,
				Detail: fmt.Sprintf("node %d: got ⟨%s, %s⟩, model expects ⟨%s, %s⟩",
					i, got.Cat, got.Data, want.Cat, want.Data),
			}
		}
		if !got.Cat.IsData() && got.Data != want.Data {
			return Verdict{
				Match:    false,
				Step:     StepSyntactical,
				Index:    i,
				Distance: i,
				Detail: fmt.Sprintf("node %d (%s): got %q, model expects %q",
					i, got.Cat, got.Data, want.Data),
			}
		}
	}
	return Verdict{Match: true, Step: StepNone, Index: -1}
}

// lenDelta is the absolute node-count difference — the structural
// distance reported in verdicts.
func lenDelta(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}

// categoriesCompatible reports whether a QS node of category got may
// occupy a QM slot of category want. Categories must match exactly,
// except that the two numeric literal kinds unify: MySQL validates
// INSERT/UPDATE values against the column type before execution, so the
// same application query legitimately yields INT_ITEM on one request
// ("watts=1300") and REAL_ITEM on the next ("watts=1300.5"). Treating
// them as distinct would make SEPTIC flag benign traffic; an injection
// cannot exploit the unification because both kinds are pure literals.
func categoriesCompatible(got, want Category) bool {
	if got == want {
		return true
	}
	numeric := func(c Category) bool { return c == CatInt || c == CatReal }
	return numeric(got) && numeric(want)
}
