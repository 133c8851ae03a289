package demo

import (
	"strings"
	"testing"

	"github.com/septic-db/septic/internal/attacks"
)

// TestDemoPhases runs the whole demonstration and checks the paper's
// headline claims case by case: every corpus label must hold.
func TestDemoPhases(t *testing.T) {
	report, err := Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(report.Outcomes) != len(attacks.Corpus()) {
		t.Fatalf("outcomes = %d, want %d", len(report.Outcomes), len(attacks.Corpus()))
	}

	for _, o := range report.Outcomes {
		c := o.Case
		// Phase A: with sanitization only, every attack executes.
		if !o.ExecutedUnprotected {
			t.Errorf("%s: did not execute against sanitization-only app", c.Name)
		}
		// Phase B: the WAF blocks exactly the non-evading cases.
		if o.BlockedByWAF == c.EvadesWAF {
			t.Errorf("%s: BlockedByWAF=%t but EvadesWAF=%t", c.Name, o.BlockedByWAF, c.EvadesWAF)
		}
		// Proxy baseline: labels must match.
		if o.BlockedByProxy == c.EvadesProxy {
			t.Errorf("%s: BlockedByProxy=%t but EvadesProxy=%t", c.Name, o.BlockedByProxy, c.EvadesProxy)
		}
		// Phase D: SEPTIC blocks everything — zero false negatives.
		if !o.BlockedBySeptic {
			t.Errorf("%s: SEPTIC missed the attack", c.Name)
		}
	}

	// Phase C: training learned models and a retrain added none.
	if report.ModelsLearned == 0 {
		t.Error("training learned no models")
	}
	if report.RetrainAdded != 0 {
		t.Errorf("retrain added %d models, want 0", report.RetrainAdded)
	}

	// Phase D/E: zero false positives for SEPTIC on benign traffic.
	if report.FP.Septic != 0 {
		t.Errorf("SEPTIC false positives = %d, want 0", report.FP.Septic)
	}
	// The WAF and proxy must also be clean on this benign set (the demo's
	// benign traffic is not adversarial to them).
	if report.FP.WAF != 0 {
		t.Errorf("WAF false positives = %d on plain benign traffic", report.FP.WAF)
	}
	if report.FP.Proxy != 0 {
		t.Errorf("proxy false positives = %d on plain benign traffic", report.FP.Proxy)
	}

	// Phase E: SEPTIC strictly dominates the other mechanisms.
	det := report.DetectionCounts()
	if det["septic"] != len(report.Outcomes) {
		t.Errorf("septic detected %d/%d", det["septic"], len(report.Outcomes))
	}
	if det["modsec"] >= det["septic"] {
		t.Errorf("modsec (%d) should trail septic (%d)", det["modsec"], det["septic"])
	}
	if det["proxy"] >= det["septic"] {
		t.Errorf("proxy (%d) should trail septic (%d)", det["proxy"], det["septic"])
	}
}

// TestDemoBlocksAnUntrainedStoredXSS: phase D's stored XSS through an
// entry point training never visited is blocked, though the guard has no
// model to compare it with.
func TestDemoBlocksAnUntrainedStoredXSS(t *testing.T) {
	report, err := Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !report.UntrainedWriteBlocked {
		t.Errorf("%s was executed: a stored XSS through an entry point with no model", UntrainedWrite)
	}
}

func TestDemoSummaryRenders(t *testing.T) {
	report, err := Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	s := report.Summary()
	for _, want := range []string{
		"phase E", "tautology-encoded-quote", "second-order-profile",
		"detection totals", "false positives", "training",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestMismatchCasesEvadeEverythingButSeptic is the paper's thesis in one
// assertion: for every semantic-mismatch attack, SEPTIC is the only
// mechanism that blocks it.
func TestMismatchCasesEvadeEverythingButSeptic(t *testing.T) {
	report, err := Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	found := 0
	for _, o := range report.Outcomes {
		if !o.Case.Mismatch || !o.Case.EvadesWAF {
			continue
		}
		found++
		if o.BlockedByWAF || !o.BlockedBySeptic {
			t.Errorf("%s: WAF=%t SEPTIC=%t, want only SEPTIC", o.Case.Name,
				o.BlockedByWAF, o.BlockedBySeptic)
		}
	}
	if found == 0 {
		t.Fatal("no WAF-evading mismatch cases in corpus")
	}
}
