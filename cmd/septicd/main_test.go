package main

import (
	"context"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/septic-db/septic/internal/server"
)

// TestFlagsAreTheShippedConfiguration: septicd with no arguments runs
// server.Defaults(), and its flags are these 23 — a flag added, dropped
// or renamed is an interface change and must edit this list on purpose.
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
		pipeline-workers query-timeout quiet replicate-from shed-target
		sqli stored wal-dir wal-force-recover wal-fsync`)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v\nwant    %v", got, want)
	}
}

// TestDocumentsNameOnlyFlagsThatExist: the usage block of the package
// doc lists every flag flagSet defines and no other, README's flag table
// names only defined flags, and none of the repository's documents (every
// *.md under its root) names the deleted -repl-listen. History may:
// CHANGES.md, and a change request at the root, whose title line carries
// its kind in brackets ("# … [test_repair] …").
func TestDocumentsNameOnlyFlagsThatExist(t *testing.T) {
	defined := make(map[string]bool)
	flagSet(new(server.Config), new(string)).VisitAll(func(f *flag.Flag) { defined[f.Name] = true })

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, usage, ok := strings.Cut(string(src), "// Usage:\n//\n")
	usage, _, _ = strings.Cut(usage, "\n//\n")
	if !ok || usage == "" {
		t.Fatal("main.go's package doc has no usage block")
	}
	flagName := regexp.MustCompile(`(?:^|[\s\[])-([a-z][a-z-]*)`)
	inUsage := make(map[string]bool)
	for _, m := range flagName.FindAllStringSubmatch(usage, -1) {
		inUsage[m[1]] = true
		if !defined[m[1]] {
			t.Errorf("the usage block names -%s, which septicd does not define", m[1])
		}
	}
	for name := range defined {
		if !inUsage[name] {
			t.Errorf("septicd defines -%s, which the usage block omits", name)
		}
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile("(?m)^\\| `-([a-z][a-z-]*)` \\|").FindAllStringSubmatch(string(readme), -1)
	if len(rows) == 0 {
		t.Fatal("README.md has no flag table")
	}
	for _, m := range rows {
		if !defined[m[1]] {
			t.Errorf("README.md's flag table names -%s, which septicd does not define", m[1])
		}
	}

	const root = "../.."
	changeRequest := regexp.MustCompile(`^# .*\[[a-z_]+\]`)
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		doc, _ := filepath.Rel(root, path)
		doc = filepath.ToSlash(doc)
		if d.IsDir() || filepath.Ext(doc) != ".md" || doc == "CHANGES.md" {
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if title, _, _ := strings.Cut(string(text), "\n"); !strings.Contains(doc, "/") && changeRequest.MatchString(title) {
			return nil
		}
		for i, line := range strings.Split(string(text), "\n") {
			if strings.Contains(line, "-repl-listen") {
				t.Errorf("%s:%d names -repl-listen, which septicd no longer has", doc, i+1)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
		-replicate-from :4`))
	if err != nil {
		t.Fatal(err)
	}
	want := server.Config{
		Addr: ":1", Mode: "training", Models: "m.json", Quiet: true, Audit: "a.jsonl",
		MaxConns: 7, QueryTimeout: 2 * time.Second, IdleTimeout: 3 * time.Second,
		DrainTimeout: 4 * time.Second, FailOpen: true, ObsAddr: ":2",
		PipelineWorkers: 5, MaxInFlight: 6, ShedTarget: 8 * time.Millisecond, MaxConcurrent: 9,
		WALDir: "w", WALFsync: "never", WALForceRecover: true, CheckpointInterval: 10 * time.Second,
		ReplicateFrom: ":4",
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
