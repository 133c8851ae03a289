// Command septic-bench regenerates the paper's quantitative results:
//
//	septic-bench fig5      — the §II-F performance study (Fig. 5):
//	                         average latency overhead of the NN/YN/NY/YY
//	                         SEPTIC configurations on the three
//	                         applications, replayed BenchLab-style.
//	septic-bench accuracy  — the §IV detection comparison (phases A–E):
//	                         per-mechanism detection and false-positive
//	                         table over the attack corpus.
//	septic-bench sweep     — extra scalability sweep: overhead vs number
//	                         of concurrent browsers (the shape of the
//	                         paper's 1→20-browser ramp).
//	septic-bench table1    — Table I regenerated behaviourally: which
//	                         actions each operation mode takes.
//	septic-bench durability — crash-safety overhead: per-update training
//	                         latency with the write-ahead log off and at
//	                         each fsync policy (never/interval/always),
//	                         plus the detection-path latency showing
//	                         durability stays off the read path.
//	septic-bench overload  — adaptive overload control: a loopback
//	                         deployment with a known service time and
//	                         execution capacity driven at 1×/2×/4×
//	                         capacity; reports shed rate and admitted
//	                         p50/p99 per offered load (-json records
//	                         the rows for the committed ledger).
//	septic-bench repl      — replication lag: a read replica follows a
//	                         training primary over loopback while
//	                         serving the Address Book workload in
//	                         detection mode; reports the lag-over-time
//	                         table and the catch-up time to lag 0.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/septic-db/septic/internal/benchlab"
	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/demo"
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/obs"
	"github.com/septic-db/septic/internal/repllab"
	"github.com/septic-db/septic/internal/waf"
)

// usage lists every subcommand; TestToolingNamesWhatExists holds the
// Makefile, CI and scripts to it.
const usage = "usage: septic-bench table1|fig5|accuracy|sweep|durability|overload|repl [flags]"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "septic-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	defaults := benchlab.DefaultParams()
	fig5Flags := flag.NewFlagSet("fig5", flag.ExitOnError)
	machines := fig5Flags.Int("machines", defaults.Machines, "client machines (sequential by default: overhead is a ratio, not a load test)")
	browsers := fig5Flags.Int("browsers", defaults.BrowsersPerMachine, "browsers per machine")
	loops := fig5Flags.Int("loops", defaults.Loops, "workload replays per browser")
	rounds := fig5Flags.Int("rounds", 7, "interleaved measurement rounds (best mean kept)")
	webtier := fig5Flags.Int("webtier", benchlab.DefaultWebTierWork,
		"per-request web-tier work (SHA-256 rounds) standing in for Apache+PHP; 0 = bare DBMS")
	overHTTP := fig5Flags.Bool("http", false,
		"serve the applications over real loopback HTTP instead of the synthetic web tier")
	fig5Obs := fig5Flags.Bool("obs", false,
		"instrument the replayed deployments and print the pipeline stage-latency percentiles")

	sweepFlags := flag.NewFlagSet("sweep", flag.ExitOnError)
	sweepLoops := sweepFlags.Int("loops", 3, "workload replays per browser")

	accFlags := flag.NewFlagSet("accuracy", flag.ExitOnError)
	paranoia := accFlags.Int("paranoia", 1, "WAF paranoia level (1 or 2)")

	durFlags := flag.NewFlagSet("durability", flag.ExitOnError)
	durUpdates := durFlags.Int("updates", 2000, "distinct training updates per policy")
	durRounds := durFlags.Int("rounds", 3, "measurement rounds (best training latency kept)")

	ovlFlags := flag.NewFlagSet("overload", flag.ExitOnError)
	ovlService := ovlFlags.Duration("service", 2*time.Millisecond, "injected executor latency per query")
	ovlGate := ovlFlags.Int("gate", 4, "server concurrent-execution capacity")
	ovlTarget := ovlFlags.Duration("target", 5*time.Millisecond, "admission queueing-delay target")
	ovlClients := ovlFlags.Int("clients", 64, "concurrent wire connections generating load")
	ovlDuration := ovlFlags.Duration("duration", 2*time.Second, "measured window per offered-load point")
	ovlJSON := ovlFlags.String("json", "", "record the sweep into this JSON file (e.g. BENCH_overload.json)")

	replFlags := flag.NewFlagSet("repl", flag.ExitOnError)
	replUpdates := replFlags.Int("updates", 5000, "distinct training updates on the primary during the measured window")
	replLoops := replFlags.Int("loops", 200, "Address Book workload replays on the replica while the stream applies")

	if len(os.Args) < 2 {
		return errors.New(usage)
	}
	switch os.Args[1] {
	case "table1":
		return runTable1()
	case "fig5":
		if err := fig5Flags.Parse(os.Args[2:]); err != nil {
			return err
		}
		p := benchlab.Params{
			Machines: *machines, BrowsersPerMachine: *browsers, Loops: *loops,
			WebTierWork: *webtier, HTTP: *overHTTP,
		}
		if *overHTTP {
			p.WebTierWork = 0 // the real network path replaces the stand-in
		}
		if *fig5Obs {
			p.Obs = obs.NewHub()
		}
		if err := runFig5(p, *rounds); err != nil {
			return err
		}
		printStageTable(p.Obs)
		return nil
	case "accuracy":
		if err := accFlags.Parse(os.Args[2:]); err != nil {
			return err
		}
		return runAccuracy(*paranoia)
	case "sweep":
		if err := sweepFlags.Parse(os.Args[2:]); err != nil {
			return err
		}
		return runSweep(*sweepLoops)
	case "durability":
		if err := durFlags.Parse(os.Args[2:]); err != nil {
			return err
		}
		return runDurability(*durUpdates, *durRounds)
	case "overload":
		if err := ovlFlags.Parse(os.Args[2:]); err != nil {
			return err
		}
		return runOverload(*ovlService, *ovlGate, *ovlTarget, *ovlClients, *ovlDuration, *ovlJSON)
	case "repl":
		if err := replFlags.Parse(os.Args[2:]); err != nil {
			return err
		}
		return runRepl(*replUpdates, *replLoops)
	default:
		return fmt.Errorf("unknown subcommand %q\n%s", os.Args[1], usage)
	}
}

func runFig5(p benchlab.Params, rounds int) error {
	fmt.Printf("replaying workloads: %d machines × %d browsers, %d loops, %d rounds\n\n",
		p.Machines, p.BrowsersPerMachine, p.Loops, rounds)
	var all [][]benchlab.Overhead
	for _, spec := range benchlab.PaperSpecs() {
		series, err := benchlab.Series(spec, p, rounds)
		if err != nil {
			return err
		}
		all = append(all, series)
		fmt.Printf("  %s done (baseline mean %v)\n", spec.Name, series[0].Base)
	}
	fmt.Println()
	fmt.Print(benchlab.FormatFig5(all))
	fmt.Println("\npaper (Fig. 5): overhead ranges 0.5% (NN) to 2.2% (YY); YN ≈ 0.8%;")
	fmt.Println("similar across the three applications. Compare shapes, not absolutes.")
	return nil
}

func runAccuracy(paranoia int) error {
	var opts []demo.RunOption
	if paranoia >= 2 {
		opts = append(opts, demo.WithWAFOptions(waf.WithParanoia(waf.Paranoia2)))
		fmt.Println("WAF at paranoia level 2 (aggressive PL2 rules active)")
	}
	report, err := demo.Run(opts...)
	if err != nil {
		return err
	}
	fmt.Print(report.Summary())
	return nil
}

// runTable1 regenerates Table I behaviourally: for each operation mode
// it runs a training query, an attack and a benign query against a
// fresh deployment and reports which actions SEPTIC took.
func runTable1() error {
	const (
		benign = "SELECT pass FROM users WHERE name = 'ann'"
		attack = "SELECT pass FROM users WHERE name = 'ann' OR 1=1-- '"
	)
	fmt.Println("Table I — operation modes and actions taken by SEPTIC")
	fmt.Printf("%-12s %-8s %-12s %-12s %-10s %-10s\n",
		"mode", "learns", "logs attack", "drops query", "execs atk", "execs benign")
	for _, mode := range []core.Mode{core.ModeTraining, core.ModeDetection, core.ModePrevention} {
		guard := core.New(core.Config{Mode: core.ModeTraining})
		db := engine.New(engine.WithQueryHook(guard))
		for _, q := range []string{
			"CREATE TABLE users (name TEXT, pass TEXT)",
			"INSERT INTO users (name, pass) VALUES ('ann', 'pw')",
			benign,
		} {
			if _, err := db.Exec(q); err != nil {
				return err
			}
		}
		modelsBefore := guard.Store().ModelCount()
		guard.SetConfig(core.Config{
			Mode: mode, DetectSQLI: true, DetectStored: true, IncrementalLearning: true,
		})

		_, atkErr := db.Exec(attack)
		_, benignErr := db.Exec(benign)
		if _, err := db.Exec("SELECT name FROM users WHERE pass = 'pw'"); err != nil {
			return fmt.Errorf("new-shape query in %s: %w", mode, err)
		}
		learned := guard.Store().ModelCount() > modelsBefore
		attacksLogged := len(guard.Logger().Attacks()) > 0
		fmt.Printf("%-12s %-8s %-12s %-12s %-10s %-10s\n",
			mode,
			mark(learned),
			mark(attacksLogged),
			mark(atkErr != nil),
			mark(atkErr == nil),
			mark(benignErr == nil))
	}
	fmt.Println("\npaper: training learns and executes; detection logs and executes;")
	fmt.Println("prevention logs and drops. Benign queries execute in every mode.")
	return nil
}

func mark(b bool) string {
	if b {
		return "x"
	}
	return ""
}

// printStageTable renders the stage-latency percentiles accumulated in
// hub over the whole run (all deployments and configurations pooled).
// No-op when observability was not requested.
func printStageTable(hub *obs.Hub) {
	if hub == nil {
		return
	}
	snap := hub.Metrics.Snapshot()
	names := make([]string, 0, len(snap.Histograms))
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("\npipeline stage latencies (pooled over the run)")
	fmt.Printf("%-30s %10s %10s %10s %10s %10s\n",
		"stage", "count", "p50", "p95", "p99", "max")
	for _, name := range names {
		h := snap.Histograms[name]
		fmt.Printf("%-30s %10d %10v %10v %10v %10v\n",
			name, h.Count,
			time.Duration(h.P50NS), time.Duration(h.P95NS),
			time.Duration(h.P99NS), time.Duration(h.MaxNS))
	}
}

func runSweep(loops int) error {
	const rounds = 5
	spec := benchlab.PaperSpecs()[2] // ZeroCMS: the largest workload
	fmt.Printf("overhead (YY vs baseline) as browser count grows — %s workload\n\n", spec.Name)
	fmt.Printf("%10s %14s %14s %10s\n", "browsers", "base mean", "YY mean", "overhead")
	for _, n := range []int{1, 2, 4, 8, 12, 16, 20} {
		p := benchlab.Params{Machines: 1, BrowsersPerMachine: n, Loops: loops,
			WebTierWork: benchlab.DefaultWebTierWork}
		var baseMin, yyMin time.Duration
		for r := 0; r < rounds; r++ {
			base, err := benchlab.Run(spec, benchlab.ConfigBaseline, p)
			if err != nil {
				return err
			}
			yy, err := benchlab.Run(spec, benchlab.ConfigYY, p)
			if err != nil {
				return err
			}
			if m := base.TrimmedMean(10); baseMin == 0 || m < baseMin {
				baseMin = m
			}
			if m := yy.TrimmedMean(10); yyMin == 0 || m < yyMin {
				yyMin = m
			}
		}
		pct := 100 * (float64(yyMin) - float64(baseMin)) / float64(baseMin)
		fmt.Printf("%10d %14v %14v %9.2f%%\n", n, baseMin, yyMin, pct)
	}
	return nil
}

// runDurability measures the crash-safety overhead table: per-update
// training latency at each WAL fsync policy vs the no-WAL baseline.
// Rounds are interleaved per policy inside RunDurability-sized runs; the
// best (minimum-noise) training latency per policy is kept, the way the
// fig5 lane keeps its best round.
func runDurability(updates, rounds int) error {
	fmt.Printf("durability overhead: %d distinct training updates per policy, %d round(s)\n\n",
		updates, rounds)
	best := map[string]benchlab.DurabilityRow{}
	for r := 0; r < rounds; r++ {
		dir, err := os.MkdirTemp("", "septic-durability-")
		if err != nil {
			return err
		}
		rows, err := benchlab.RunDurability(dir, updates)
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		for _, row := range rows {
			if b, ok := best[row.Policy]; !ok || row.TrainPerUpdate < b.TrainPerUpdate {
				best[row.Policy] = row
			}
		}
	}
	ordered := make([]benchlab.DurabilityRow, 0, len(best))
	for _, p := range benchlab.DurabilityPolicies() {
		ordered = append(ordered, best[p])
	}
	fmt.Print(benchlab.FormatDurability(ordered))
	fmt.Println("\nfsync=always is the no-acknowledged-loss configuration; " +
		"interval bounds the loss window to the flush period at near-never cost.")
	return nil
}

// runRepl runs the replication-lag lane: a primary trains continuously
// while a loopback replica follows its WAL stream and serves the
// Address Book workload in detection mode.
func runRepl(updates, loops int) error {
	if updates < 1 || loops < 1 {
		return fmt.Errorf("repl: -updates and -loops must both be >= 1")
	}
	fmt.Printf("replication lag: %d training updates on the primary, %d workload replays on the replica\n\n",
		updates, loops)
	dir, err := os.MkdirTemp("", "septic-repl-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	res, err := repllab.RunRepl(dir, updates, loops)
	if err != nil {
		return err
	}
	fmt.Print(repllab.FormatRepl(res))
	if !res.Converged {
		return fmt.Errorf("replica did not converge to lag 0 within the deadline")
	}
	return nil
}
