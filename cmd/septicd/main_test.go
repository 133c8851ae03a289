package main

import (
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/septic-db/septic/internal/server"
)

// TestFlagsAreTheShippedConfiguration: septicd with no arguments runs
// server.Defaults(), and its flags are the 24 it has always had — a flag
// added, dropped or renamed is an interface change and must edit this
// list on purpose.
func TestFlagsAreTheShippedConfiguration(t *testing.T) {
	cfg := server.Defaults()
	var domains string
	fs := flagSet(&cfg, &domains)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, server.Defaults()) || domains != "" {
		t.Errorf("no arguments parsed to\n%+v (-domains %q), want server.Defaults()\n%+v", cfg, domains, server.Defaults())
	}
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := strings.Fields(`addr audit checkpoint-interval domains drain-timeout fail-open
		idle-timeout max-concurrent max-conns max-in-flight mode models obs-addr
		pipeline-workers query-timeout quiet repl-listen replicate-from shed-target
		sqli stored wal-dir wal-force-recover wal-fsync`)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}

// TestFlagsReachTheConfig: every flag sets the field it names.
func TestFlagsReachTheConfig(t *testing.T) {
	cfg := server.Defaults()
	var domains string
	err := flagSet(&cfg, &domains).Parse(strings.Fields(`-addr :1 -mode training -models m.json
		-domains d.json -sqli=false -stored=false -quiet -audit a.jsonl -max-conns 7
		-query-timeout 2s -idle-timeout 3s -drain-timeout 4s -fail-open -obs-addr :2
		-pipeline-workers 5 -max-in-flight 6 -shed-target 8ms -max-concurrent 9
		-wal-dir w -wal-fsync never -wal-force-recover -checkpoint-interval 10s
		-repl-listen :3 -replicate-from :4`))
	if err != nil {
		t.Fatal(err)
	}
	want := server.Config{
		Addr: ":1", Mode: "training", Models: "m.json", Quiet: true, Audit: "a.jsonl",
		MaxConns: 7, QueryTimeout: 2 * time.Second, IdleTimeout: 3 * time.Second,
		DrainTimeout: 4 * time.Second, FailOpen: true, ObsAddr: ":2",
		PipelineWorkers: 5, MaxInFlight: 6, ShedTarget: 8 * time.Millisecond, MaxConcurrent: 9,
		WALDir: "w", WALFsync: "never", WALForceRecover: true, CheckpointInterval: 10 * time.Second,
		ReplListen: ":3", ReplicateFrom: ":4",
	}
	if !reflect.DeepEqual(cfg, want) || domains != "d.json" {
		t.Errorf("parsed\n%+v (-domains %q), want\n%+v (-domains \"d.json\")", cfg, domains, want)
	}
}

// bootLines starts cfg on an ephemeral port and returns what printBoot
// tells the operator about it.
func bootLines(t *testing.T, cfg server.Config) string {
	t.Helper()
	cfg.Addr, cfg.Quiet = "127.0.0.1:0", true
	st, err := server.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Shutdown(context.Background())
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printBoot(cfg, st)
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestBootLinesSayWhereModelsLive: every domain is listed with the mode
// in force and what it starts with, and without -wal-dir the operator is
// told, once, that nothing learned will outlast the process.
func TestBootLinesSayWhereModelsLive(t *testing.T) {
	const memoryOnly = "septicd: no -wal-dir: learned query models are kept in memory only\n"
	seed := filepath.Join(t.TempDir(), "models.json")
	if err := os.WriteFile(seed, []byte(`{"version": 3, "sets": {"q": {"models": [], "sums": []}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := server.Defaults()
	cfg.Models = seed
	cfg.Domains = map[string]server.DomainSpec{"shop": {Mode: "training"}}
	for _, walDir := range []string{"", t.TempDir()} {
		cfg.WALDir = walDir
		out := bootLines(t, cfg)
		for _, want := range []string{
			"septicd: domain default (mode=prevention, 1 query models)\n",
			"septicd: domain shop (mode=training, 0 query models)\n",
			"(mode=prevention sqli=true",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("-wal-dir %q: boot lines lack %q:\n%s", walDir, want, out)
			}
		}
		if got, want := strings.Count(out, memoryOnly), map[bool]int{true: 1}[walDir == ""]; got != want {
			t.Errorf("-wal-dir %q: the memory-only notice appears %d time(s), want %d:\n%s", walDir, got, want, out)
		}
	}
}
