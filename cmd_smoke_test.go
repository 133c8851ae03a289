package septic_test

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"

	"github.com/septic-db/septic/internal/attacks"
	"github.com/septic-db/septic/internal/wire"
)

// Smoke tests for the command-line tools: build and run each binary the
// way a user would, asserting on the output's load-bearing lines. These
// protect the cmd/ wiring from rot; the logic behind each command is
// unit-tested in its package.

func runCommand(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

func TestSepticDemoCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping command smoke test in -short mode")
	}
	n := len(attacks.Corpus())
	out := runCommand(t, "run", "./cmd/septic-demo")
	for _, want := range []string{
		"phase A", "phase B", "phase C", "phase D", "phase E",
		fmt.Sprintf("%d/%d attacks blocked", n, n), "0 false positives",
		"0 added on retrain",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("demo output missing %q", want)
		}
	}
}

func TestSepticBenchAccuracyCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping command smoke test in -short mode")
	}
	n := len(attacks.Corpus())
	out := runCommand(t, "run", "./cmd/septic-bench", "accuracy")
	for _, want := range []string{fmt.Sprintf("septic %d/%d", n, n), "modsec", "proxy"} {
		if !strings.Contains(out, want) {
			t.Errorf("accuracy output missing %q:\n%s", want, out)
		}
	}
}

func TestSepticBenchFig5CommandTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping command smoke test in -short mode")
	}
	out := runCommand(t, "run", "./cmd/septic-bench", "fig5",
		"-loops", "2", "-rounds", "1")
	for _, want := range []string{"Fig. 5", "Address Book", "refbase", "ZeroCMS", "NN", "YY"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig5 output missing %q:\n%s", want, out)
		}
	}
}

// septicBenchSubcommands asks septic-bench for a lane it does not have —
// the parallel replay, deleted once bench/ reported its figures — and
// returns the subcommands the usage text lists: the command must exit
// non-zero and say what it does know.
func septicBenchSubcommands(t *testing.T) []string {
	t.Helper()
	out, err := exec.Command("go", "run", "./cmd/septic-bench", "parallel").CombinedOutput()
	if err == nil {
		t.Fatalf("septic-bench parallel exited 0:\n%s", out)
	}
	m := regexp.MustCompile(`usage: septic-bench (\S+) \[flags\]`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("septic-bench parallel printed no usage text:\n%s", out)
	}
	return strings.Split(string(m[1]), "|")
}

func TestSepticBenchUnknownSubcommandPrintsUsage(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping command smoke test in -short mode")
	}
	got := septicBenchSubcommands(t)
	want := []string{"table1", "fig5", "accuracy", "sweep", "durability", "overload", "repl"}
	if !slices.Equal(got, want) {
		t.Errorf("usage lists %v, want exactly %v", got, want)
	}
}

// TestToolingNamesWhatExists reads the Makefile, the CI workflow and the
// scripts they call: every Benchmark name they select and every
// septic-bench subcommand they run must be one `go test -list` or the
// command's usage still knows, so a deletion cannot leave a target that
// silently runs nothing.
func TestToolingNamesWhatExists(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping command smoke test in -short mode")
	}
	benchmarks := "\n" + runCommand(t, "test", "-list", "^Benchmark", "./...")
	subcommands := septicBenchSubcommands(t)
	files, err := filepath.Glob("scripts/*.sh")
	if err != nil {
		t.Fatal(err)
	}
	benchName := regexp.MustCompile(`Benchmark[A-Z]\w*`)
	benchLane := regexp.MustCompile(`septic-bench (\w+)`)
	for _, file := range append(files, "Makefile", ".github/workflows/ci.yml") {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range benchName.FindAllString(string(text), -1) {
			if !strings.Contains(benchmarks, "\n"+name) {
				t.Errorf("%s selects %s: no benchmark of that name is left", file, name)
			}
		}
		for _, m := range benchLane.FindAllStringSubmatch(string(text), -1) {
			if !slices.Contains(subcommands, m[1]) {
				t.Errorf("%s runs septic-bench %s: the command knows only %v", file, m[1], subcommands)
			}
		}
	}
}

// septicdRun boots the built daemon on an ephemeral port in the given mode
// and waits for its listening line, which must name that mode. stop sends
// SIGTERM, requires exit status 0 and returns the shutdown output.
func septicdRun(t *testing.T, bin, mode string, args ...string) (addr string, stop func() string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-quiet", "-mode", mode}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cmd.Process.Kill() })

	lines := bufio.NewScanner(stdout)
	listening := regexp.MustCompile(fmt.Sprintf(
		`^septicd: listening on (\S+) \(mode=%s sqli=true stored=true policy=fail-closed max-conns=%d\)$`,
		mode, wire.DefaultMaxConns))
	for addr == "" && lines.Scan() {
		if m := listening.FindStringSubmatch(lines.Text()); m != nil {
			addr = m[1]
		}
	}
	if addr == "" {
		t.Fatalf("no listening line for mode %s before stdout closed; stderr:\n%s", mode, stderr.String())
	}
	return addr, func() string {
		t.Helper()
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		var rest []string
		for lines.Scan() {
			rest = append(rest, lines.Text())
		}
		if err := cmd.Wait(); err != nil {
			t.Errorf("septicd after SIGTERM: %v; stderr:\n%s", err, stderr.String())
		}
		return strings.Join(rest, "\n")
	}
}

// TestSepticdCommand runs the daemon the way an operator runs the paper's
// demo: boot in training mode on a WAL directory, teach it one query over
// the wire, SIGTERM, exit 0 with the shutdown summary; boot again on the
// same directory in prevention mode — the mode the banner names is the
// mode in force — and the tautology on that query is blocked, not learned.
func TestSepticdCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping command smoke test in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "septicd")
	runCommand(t, "build", "-o", bin, "./cmd/septicd")
	walDir := t.TempDir()
	session := func(mode string, attack bool, summary string) {
		t.Helper()
		addr, stop := septicdRun(t, bin, mode, "-wal-dir", walDir)
		c, err := wire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, q := range []string{"CREATE TABLE users (id INT, name TEXT)", "SELECT name FROM users WHERE id = 1"} {
			if _, err := c.Exec(q); err != nil {
				t.Fatalf("%s mode: %s: %v", mode, q, err)
			}
		}
		if attack {
			if _, err := c.Exec("SELECT name FROM users WHERE id = 1 OR 1=1"); err == nil || !strings.Contains(err.Error(), "septic sqli") {
				t.Errorf("%s mode: the tautology: %v, want it blocked", mode, err)
			}
		}
		out := stop()
		for _, want := range []string{"septicd: draining sessions", summary} {
			if !strings.Contains(out, want) {
				t.Errorf("%s mode: shutdown output missing %q:\n%s", mode, want, out)
			}
		}
	}
	session("training", false, "septicd: 2 queries seen, 2 models learned, 0 attacks (0 blocked)")
	session("prevention", true, "septicd: 3 queries seen, 0 models learned, 1 attacks (1 blocked)")
}

func TestExampleCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping command smoke test in -short mode")
	}
	cases := []struct {
		path string
		want []string
	}{
		{"./examples/quickstart", []string{"trained:", "benign login: 1 row(s)", "BLOCKED"}},
		{"./examples/secondorder", []string{"COND_ITEM AND", "FROM_TABLE tickets", "second-order (Fig. 3): BLOCKED", "syntax mimicry (Fig. 4): BLOCKED"}},
		{"./examples/waspmon", []string{"FALSE NEGATIVE", "attack BLOCKED", "benign request still fine"}},
		{"./examples/clientdiversity", []string{"BLOCKED by the server-side SEPTIC", "raw TCP attacker", "\"blocked\":true"}},
		{"./examples/adminreview", []string{"[pending]", "rejected:", "approved:", "BLOCKED"}},
		{"./examples/batchjob", []string{"imported INV-1001", "BLOCKED by SEPTIC", "1 attacks blocked"}},
	}
	for _, tc := range cases {
		t.Run(tc.path, func(t *testing.T) {
			out := runCommand(t, "run", tc.path)
			for _, want := range tc.want {
				if !strings.Contains(out, want) {
					t.Errorf("%s output missing %q", tc.path, want)
				}
			}
		})
	}
}
