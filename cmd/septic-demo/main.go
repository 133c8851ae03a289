// Command septic-demo runs the five phases of the DSN'17 demonstration
// (§IV) end to end and prints the displays the paper describes: the
// attack outcomes per phase, the SEPTIC event register, and the final
// mechanism comparison of phase E.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/septic-db/septic/internal/attacks"
	"github.com/septic-db/septic/internal/demo"
)

func main() {
	verbose := flag.Bool("v", false, "also print the SEPTIC event register")
	flag.Parse()
	if err := run(*verbose); err != nil {
		fmt.Fprintln(os.Stderr, "septic-demo:", err)
		os.Exit(1)
	}
}

func run(verbose bool) error {
	fmt.Println("SEPTIC demonstration — scenario: WaspMon (PHP energy monitor) + MySQL-like engine")
	fmt.Printf("attack corpus: %d cases (%d exploiting the semantic mismatch), %d benign requests\n\n",
		len(attacks.Corpus()), attacks.MismatchCount(), len(attacks.Benign()))

	report, err := demo.Run()
	if err != nil {
		return err
	}

	fmt.Println("phase A — sanitization functions only (mysql_real_escape_string et al.)")
	executed := 0
	for _, o := range report.Outcomes {
		if o.ExecutedUnprotected {
			executed++
		}
	}
	fmt.Printf("  %d/%d attacks executed against the sanitized application\n\n",
		executed, len(report.Outcomes))

	fmt.Println("phase B — ModSecurity WAF enabled (mini OWASP CRS, paranoia 1)")
	det := report.DetectionCounts()
	fmt.Printf("  %d/%d attacks blocked; %d false negatives (the semantic-mismatch cases)\n\n",
		det["modsec"], len(report.Outcomes), len(report.Outcomes)-det["modsec"])

	fmt.Println("phase C — SEPTIC training")
	fmt.Printf("  %d query models learned from the benign crawl\n", report.ModelsLearned)
	fmt.Printf("  re-running the crawl added %d models (duplicates are never re-added)\n\n",
		report.RetrainAdded)

	fmt.Println("phase D — SEPTIC prevention mode")
	fmt.Printf("  %d/%d attacks blocked, %d false positives on benign traffic\n",
		det["septic"], len(report.Outcomes), report.FP.Septic)
	fmt.Printf("  stored XSS through %s, never trained (no model): blocked=%t\n\n",
		demo.UntrainedWrite.Path, report.UntrainedWriteBlocked)

	fmt.Print(report.Summary())

	if verbose {
		fmt.Println("\nSEPTIC events (register excerpt):")
		for _, e := range report.SepticEvents {
			fmt.Println("  " + e.String())
		}
	}
	return nil
}
