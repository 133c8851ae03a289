package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/septic-db/septic/internal/qstruct"
)

// update regenerates the golden files instead of asserting against
// them: go test ./internal/core/ -run TestGoldenCorpus -update
var update = flag.Bool("update", false, "rewrite golden corpus files")

// TestGoldenCorpus pins the externally observable analysis of every
// query in testdata/corpus/: the item stack SEPTIC builds (paper Fig. 2
// rendering), the skeleton and skeleton-hash identifier, and the verdict
// a guard trained on the case's `train:` queries reaches — including
// which detector fired and at what distance. Any change to the lexer,
// parser, stack builder, hashing or detection logic that shifts one of
// these surfaces here as a readable diff, to be either fixed or
// consciously accepted with -update.
func TestGoldenCorpus(t *testing.T) {
	cases, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.txt"))
	if err != nil || len(cases) == 0 {
		t.Fatalf("no corpus cases found: %v", err)
	}
	sort.Strings(cases)
	for _, path := range cases {
		name := strings.TrimSuffix(filepath.Base(path), ".txt")
		t.Run(name, func(t *testing.T) {
			train, query := readCorpusCase(t, path)
			got := renderCorpusCase(t, train, query)
			goldenPath := strings.TrimSuffix(path, ".txt") + ".golden"
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatalf("write golden: %v", err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("golden mismatch for %s\n--- want\n%s--- got\n%s", name, want, got)
			}
		})
	}
}

// readCorpusCase parses a corpus file: '#' comment lines, zero or more
// `train:` queries, exactly one `query:` line.
func readCorpusCase(t *testing.T, path string) (train []string, query string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "train:"):
			train = append(train, strings.TrimSpace(strings.TrimPrefix(line, "train:")))
		case strings.HasPrefix(line, "query:"):
			if query != "" {
				t.Fatalf("%s:%d: second query: line", path, ln+1)
			}
			query = strings.TrimSpace(strings.TrimPrefix(line, "query:"))
		default:
			t.Fatalf("%s:%d: unrecognized line %q", path, ln+1, line)
		}
	}
	if query == "" {
		t.Fatalf("%s: no query: line", path)
	}
	return train, query
}

// renderCorpusCase runs the case and renders the golden text.
func renderCorpusCase(t *testing.T, train []string, query string) string {
	t.Helper()
	sep := New(Config{Mode: ModeTraining})
	for _, q := range train {
		if err := sep.BeforeExecute(hookCtxFor(t, q)); err != nil {
			t.Fatalf("training %q: %v", q, err)
		}
	}
	sep.SetConfig(DefaultConfig())

	hctx := hookCtxFor(t, query)
	verdictErr := sep.BeforeExecute(hctx)

	var b strings.Builder
	fmt.Fprintf(&b, "query    %s\n", hctx.Decoded)
	fmt.Fprintf(&b, "skeleton %s\n", qstruct.Skeleton(hctx.Stmt))
	fmt.Fprintf(&b, "id       %016x\n", qstruct.SkeletonHash(hctx.Stmt))
	b.WriteString("stack\n")
	for _, line := range strings.Split(qstruct.BuildStack(hctx.Stmt).String(), "\n") {
		fmt.Fprintf(&b, "  | %s |\n", line)
	}
	if verdictErr == nil {
		b.WriteString("verdict  admitted\n")
		return b.String()
	}
	b.WriteString("verdict  blocked\n")
	attacks := sep.Logger().Attacks()
	if len(attacks) == 0 {
		t.Fatalf("query blocked (%v) but no attack event recorded", verdictErr)
	}
	a := attacks[len(attacks)-1]
	fmt.Fprintf(&b, "detector %s\n", a.Detector())
	fmt.Fprintf(&b, "distance %d\n", a.Distance)
	fmt.Fprintf(&b, "detail   %s\n", a.Detail)
	return b.String()
}
