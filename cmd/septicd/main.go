// Command septicd runs the SEPTIC-protected database server: the
// equivalent of the demo's "MySQL DBMS server, including the SEPTIC
// mechanism" virtual machine. It is flag parsing, a signal wait and the
// operator's start-up and shutdown lines around internal/server, which
// assembles the deployment (DESIGN.md §14 has the boot and shutdown
// order and the reason for each step's place).
//
// Usage:
//
//	septicd [-addr 127.0.0.1:3306] [-mode training|detection|prevention]
//	        [-models models.json] [-sqli] [-stored]
//	        [-domains domains.json]
//	        [-wal-dir DIR] [-wal-fsync always|interval|never]
//	        [-checkpoint-interval D] [-wal-force-recover]
//	        [-max-conns N] [-query-timeout D] [-idle-timeout D]
//	        [-drain-timeout D] [-fail-open] [-obs-addr 127.0.0.1:9188]
//	        [-pipeline-workers N] [-max-in-flight N]
//	        [-shed-target D] [-max-concurrent N]
//	        [-repl-listen ADDR] [-replicate-from ADDR]
//
// The server speaks the wire protocol of internal/wire. A setting that
// could not take effect — -repl-listen, -wal-force-recover without
// -wal-dir, -max-concurrent without -shed-target, -models with
// -replicate-from — is refused at start-up.
//
// -wal-dir is where learned models live (DESIGN.md §11), and the demo's
// persistent-model restart (phase D) is a restart on the same directory:
// every model learned, deleted or approved, in every protection domain,
// is logged before it is acknowledged; a crash loses nothing acknowledged
// under the default -wal-fsync=always. Only models are kept there — the
// mode and the detectors are what this run's flags and domains file say.
// Without -wal-dir models are kept in memory and go with the process.
// The directory is single-writer, and mid-log damage refuses to boot
// unless -wal-force-recover truncates it. Such a server is also a
// replication primary (§12), on the main port and on -repl-listen;
// -replicate-from makes this server a read replica of one: run it with
// -mode detection.
//
// -models, and "store" in a domains-file entry, name a seed: a model
// file read at boot into a domain that has no models yet (a first boot;
// any boot without -wal-dir) and never written. Once the WAL directory
// holds the domain's models the file is left unread. A seed that is
// named but cannot be read is a start-up error.
//
// With -domains the server is multi-tenant (§9): the JSON file maps
// application names to one protection domain each, reached by the wire
// HELLO or a "/* app:query-id */" comment; everything else lands in the
// default domain the global flags configure.
//
//	{
//	  "shop":  {"mode": "prevention", "sqli": true, "stored": true,
//	            "fail_open": false, "store": "shop-models.json"},
//	  "blog":  {"mode": "training"}
//	}
//
// "mode" is required; sqli/stored/incremental default to true and
// fail_open to false. Entries may carry overload policy (§13):
// "quota_rate", "quota_burst", "max_in_flight", and "breaker": true
// (+"breaker_slow_ms") for a circuit breaker around the domain's
// detection pipeline. -shed-target sheds load adaptively with typed,
// retryable responses; /healthz on -obs-addr reports 503 while draining
// or shedding, beside /metrics, /events, /qm and /debug/pprof (§8).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/septic-db/septic/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "septicd:", err)
		os.Exit(1)
	}
}

// flagSet binds septicd's flags to cfg, whose values on entry are the
// defaults -h shows, and the -domains file name to domains.
func flagSet(cfg *server.Config, domains *string) *flag.FlagSet {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	fs.StringVar(&cfg.Addr, "addr", cfg.Addr, "listen address")
	fs.StringVar(&cfg.Mode, "mode", cfg.Mode, "septic mode: training, detection or prevention")
	fs.StringVar(&cfg.Models, "models", cfg.Models, "query-model seed file, read at boot when the default domain has no models yet")
	fs.StringVar(domains, "domains", "", "protection-domain config file (JSON; multi-tenant mode)")
	fs.BoolVar(&cfg.SQLI, "sqli", cfg.SQLI, "enable SQLI detection")
	fs.BoolVar(&cfg.Stored, "stored", cfg.Stored, "enable stored-injection detection")
	fs.BoolVar(&cfg.Quiet, "quiet", cfg.Quiet, "suppress the live event display")
	fs.StringVar(&cfg.Audit, "audit", cfg.Audit, "append JSON audit records to this file")

	fs.IntVar(&cfg.MaxConns, "max-conns", cfg.MaxConns, "maximum concurrent sessions (0 = unlimited)")
	fs.DurationVar(&cfg.QueryTimeout, "query-timeout", cfg.QueryTimeout, "per-query execution timeout (0 = none)")
	fs.DurationVar(&cfg.IdleTimeout, "idle-timeout", cfg.IdleTimeout, "disconnect sessions idle for this long (0 = never)")
	fs.DurationVar(&cfg.DrainTimeout, "drain-timeout", cfg.DrainTimeout, "graceful-shutdown drain deadline before force-closing sessions")
	fs.BoolVar(&cfg.FailOpen, "fail-open", cfg.FailOpen, "admit queries when the protection path faults (default fail-closed)")
	fs.StringVar(&cfg.ObsAddr, "obs-addr", cfg.ObsAddr, "serve /metrics, /events, /qm and /debug/pprof on this address (empty = observability off)")

	fs.IntVar(&cfg.PipelineWorkers, "pipeline-workers", cfg.PipelineWorkers, "per-session worker pool for v2 pipelined sessions")
	fs.IntVar(&cfg.MaxInFlight, "max-in-flight", cfg.MaxInFlight, "per-session admission bound for v2 pipelined sessions")

	fs.DurationVar(&cfg.ShedTarget, "shed-target", cfg.ShedTarget, "queueing-delay target for adaptive load shedding (0 = shedding off)")
	fs.IntVar(&cfg.MaxConcurrent, "max-concurrent", cfg.MaxConcurrent, "server-wide concurrent query bound behind -shed-target (0 = 4×GOMAXPROCS)")

	fs.StringVar(&cfg.WALDir, "wal-dir", cfg.WALDir, "write-ahead-log directory for crash-safe model durability (empty = off)")
	fs.StringVar(&cfg.WALFsync, "wal-fsync", cfg.WALFsync, "WAL durability policy: always, interval or never")
	fs.BoolVar(&cfg.WALForceRecover, "wal-force-recover", cfg.WALForceRecover, "boot past mid-log WAL damage, truncating it and dropping every record beyond it")
	fs.DurationVar(&cfg.CheckpointInterval, "checkpoint-interval", cfg.CheckpointInterval, "background WAL checkpoint/compaction period (0 = only at shutdown)")

	fs.StringVar(&cfg.ReplListen, "repl-listen", cfg.ReplListen, "dedicated replication listener address (requires -wal-dir; empty = serve replication on the main port only)")
	fs.StringVar(&cfg.ReplicateFrom, "replicate-from", cfg.ReplicateFrom, "primary address to replicate from (makes this server a read replica)")
	return fs
}

func run(args []string) error {
	cfg := server.Defaults()
	var domains string
	if err := flagSet(&cfg, &domains).Parse(args); err != nil {
		return err
	}
	if domains != "" {
		var err error
		if cfg.Domains, err = server.LoadDomains(domains); err != nil {
			return err
		}
	}
	// Before the "listening" line: whoever acts on it may signal at once.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	st, err := server.Start(cfg)
	if err != nil {
		return err
	}
	printBoot(cfg, st)
	<-sig

	fmt.Println("\nsepticd: draining sessions")
	err = st.Shutdown(context.Background())
	printShutdown(st)
	return err
}

func printBoot(cfg server.Config, st *server.Stack) {
	if persist := st.Guard.Persistence(); persist != nil {
		pst := persist.Stats()
		fmt.Printf("septicd: wal %s (fsync=%s): %d record(s) replayed in %s",
			cfg.WALDir, cfg.WALFsync, pst.RecoveredRecords, pst.RecoveryDuration.Round(time.Millisecond))
		if pst.TornSegments > 0 {
			fmt.Printf(", torn tail truncated (%d record(s) dropped)", pst.DroppedRecords)
		}
		if pst.RecoveredSkipped > 0 {
			fmt.Printf(", %d record(s) skipped (unknown domain?)", pst.RecoveredSkipped)
		}
		fmt.Println()
	}
	switch {
	case cfg.ReplicateFrom != "":
		fmt.Printf("septicd: replica of %s, resuming after seq %d\n", cfg.ReplicateFrom, st.ResumeSeq)
	case cfg.WALDir == "":
		// Every primary can learn: the default domain learns new
		// identifiers incrementally in any mode.
		fmt.Println("septicd: no -wal-dir: learned query models are kept in memory only")
	}
	// What each domain starts with, recovered or seeded, and the mode in
	// force — read back from the guard, not from the flags.
	for _, d := range st.Guard.Domains() {
		fmt.Printf("septicd: domain %s (mode=%s, %d query models)\n", d.Name(), d.Mode(), d.Store().Len())
	}
	if st.ReplAddr != "" {
		fmt.Printf("septicd: replication on %s\n", st.ReplAddr)
	}
	if st.ObsAddr != "" {
		fmt.Printf("septicd: observability on http://%s (/metrics /events /qm /healthz /debug/pprof)\n", st.ObsAddr)
	}
	policy := "fail-closed"
	if cfg.FailOpen {
		policy = "fail-open"
	}
	fmt.Printf("septicd: listening on %s (mode=%s sqli=%t stored=%t policy=%s max-conns=%d)\n",
		st.Addr, st.Guard.Mode(), cfg.SQLI, cfg.Stored, policy, cfg.MaxConns)
}

func printShutdown(st *server.Stack) {
	if st.ReplicaErr != nil {
		fmt.Fprintln(os.Stderr, "septicd: replication stream:", st.ReplicaErr)
	}
	if st.DrainTimedOut {
		fmt.Println("septicd: drain deadline exceeded, sessions force-closed")
	}
	if persist := st.Guard.Persistence(); persist != nil {
		pst := persist.Stats()
		fmt.Printf("septicd: wal: %d append(s), %d fsync(s), %d checkpoint(s)\n",
			pst.WAL.Appends, pst.WAL.Fsyncs, pst.Checkpoints)
	}
	stats := st.Guard.Stats()
	fmt.Printf("septicd: %d queries seen, %d models learned, %d attacks (%d blocked)\n",
		stats.QueriesSeen, stats.ModelsLearned, stats.AttacksFound, stats.AttacksBlocked)
	for _, d := range st.Guard.Domains() {
		if pending := d.Store().PendingReview(); len(pending) > 0 {
			fmt.Printf("septicd: domain %s: %d incrementally learned identifiers await review:\n",
				d.Name(), len(pending))
			for _, id := range pending {
				fmt.Println("  " + id)
			}
		}
	}
}
