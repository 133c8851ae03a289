package core

import (
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/qstruct"
	"github.com/septic-db/septic/internal/sqlparser"
)

// Detection is the attack detector's verdict for one query.
type Detection struct {
	// Attack is AttackNone when the query is clean.
	Attack AttackType
	// Step is the SQLI algorithm step that fired (SQLI attacks only).
	Step qstruct.CompareStep
	// Plugin names the confirming plugin (stored-injection only).
	Plugin string
	// Distance is the query's distance from its closest model (SQLI
	// attacks only): the node-count delta when Step is structural, the
	// index of the first mismatching node when syntactical.
	Distance int
	// Detail explains the finding for the event register.
	Detail string
}

// Detector is the "attack detector" module of Fig. 1. It performs the
// two kinds of discovery: SQLI detection by comparing the query
// structure against the learned query model, and stored-injection
// detection by running plugins over the values INSERT and UPDATE are
// about to write.
type Detector struct {
	plugins []Plugin
}

// NewDetector builds a detector with the given stored-injection plugin
// chain (DefaultPlugins for the paper's set).
func NewDetector(plugins []Plugin) *Detector {
	return &Detector{plugins: plugins}
}

// DetectSQLI compares the query structure with the learned query models
// using the two-step algorithm (§II-C3): (1) node counts must match;
// (2) each node's element type — and, for element nodes, element data —
// must match. The query conforms if ANY learned model for its
// identifier matches; otherwise the reported verdict comes from the
// closest model (a syntactical mismatch is closer than a structural
// one), which gives the event register the most precise explanation.
func (d *Detector) DetectSQLI(qs qstruct.Stack, models ModelView) (Detection, bool) {
	var best qstruct.Verdict
	haveBest := false
	for _, qm := range models.models {
		verdict := qstruct.Compare(qs, qm)
		if verdict.Match {
			return Detection{}, false
		}
		if !haveBest || (best.Step == qstruct.StepStructural && verdict.Step == qstruct.StepSyntactical) {
			best = verdict
			haveBest = true
		}
	}
	if !haveBest {
		// No models at all: nothing to compare against, not an attack.
		return Detection{}, false
	}
	return Detection{
		Attack:   AttackSQLI,
		Step:     best.Step,
		Distance: best.Distance,
		Detail:   best.Detail,
	}, true
}

// DetectStored runs the plugin chain over the strings the statement
// writes: its string literals and the strings args binds to its '?'
// placeholders, in the order the query structure lists them (the
// STRING_ITEM data of qstruct.BuildStack(stmt, args...)). Per the paper it
// applies to INSERT and UPDATE commands; other statements are never
// checked. It reads no model, so it judges every execution of a write,
// whatever its identifier.
func (d *Detector) DetectStored(stmt sqlparser.Statement, args []engine.Value) (det Detection, attack bool) {
	switch stmt.(type) {
	case *sqlparser.InsertStmt, *sqlparser.UpdateStmt:
	default:
		return Detection{}, false
	}
	sqlparser.WalkExprs(stmt, func(e sqlparser.Expr) {
		var v engine.Value // the data node qstruct.BuildStack pushes for e
		switch x := e.(type) {
		case *sqlparser.Literal:
			v = engine.LiteralValue(x)
		case *sqlparser.Placeholder:
			if x.Index < len(args) {
				v = args[x.Index]
			}
		}
		if attack || v.Kind != engine.KindString {
			return
		}
		for _, p := range d.plugins {
			if !p.Filter(v.S) {
				continue // step 1: cheap character filter
			}
			if detail, found := p.Validate(v.S); found { // step 2
				det, attack = Detection{Attack: AttackStored, Plugin: p.Name(), Detail: detail}, true
				return
			}
		}
	})
	return det, attack
}
