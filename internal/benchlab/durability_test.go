package benchlab

import (
	"strings"
	"testing"
)

func TestRunDurability(t *testing.T) {
	rows, err := RunDurability(t.TempDir(), 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(DurabilityPolicies()) {
		t.Fatalf("%d rows, want %d", len(rows), len(DurabilityPolicies()))
	}
	for _, r := range rows {
		if r.TrainPerUpdate <= 0 || r.DetectPerQuery <= 0 {
			t.Fatalf("row %s has zero latency: %+v", r.Policy, r)
		}
		switch r.Policy {
		case "off":
			if r.Appends != 0 {
				t.Fatalf("no-WAL row has %d appends", r.Appends)
			}
		case "always":
			// 32 puts, each fsynced; the switch to prevention mode for the
			// detection half is not a record.
			if r.Appends != 32 || r.Fsyncs != r.Appends {
				t.Fatalf("always row: %+v", r)
			}
		default:
			if r.Appends != 32 {
				t.Fatalf("%s row: %+v", r.Policy, r)
			}
		}
	}
	out := FormatDurability(rows)
	for _, want := range []string{"policy", "off", "always", "%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}
