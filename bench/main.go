// Command bench is the repository's benchmark: four closed-loop
// workloads over the stack assembled as cmd/septicd assembles it, five
// end-to-end metrics measured with tracing off, and a per-layer ledger
// measured from outside in a separate traced run. See README.md.
//
//	go run -C bench .                          every workload, untraced then traced
//	go run -C bench . -workload wire_hit -trace 0 -seed 7 -seconds 10
//	go run -C bench . -repeat 10               repeatability of the end-to-end metrics
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	p := defaultParams()
	names := flag.String("workload", "", "comma-separated workloads (default: all)")
	trace := flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics, tracing on; default: both, each in a fresh process")
	repeat := flag.Int("repeat", 0, "run the untraced pass this many times per workload and report the spread of every end-to-end metric")
	flag.Int64Var(&p.seed, "seed", p.seed, "seed of every generated input")
	flag.Float64Var(&p.seconds, "seconds", p.seconds, "measured window in seconds (the definition runs 10 or more)")
	flag.Parse()
	p.traced = min(p.traced, p.seconds/2)

	var selected []*workload
	for _, name := range strings.Split(*names, ",") {
		if name == "" {
			continue
		}
		w := workloadByName(name)
		if w == nil {
			fatalf("unknown workload %q", name)
		}
		selected = append(selected, w)
	}
	if len(selected) == 0 {
		selected = workloads
	}

	switch {
	case *repeat > 0:
		os.Exit(repeatRuns(selected, p, *repeat))
	case *trace == 0 || *trace == 1:
		if len(selected) != 1 {
			fatalf("-trace %d measures one workload in this process; name it with -workload", *trace)
		}
		os.Exit(single(selected[0], p, *trace == 1))
	default:
		os.Exit(all(selected, p))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// single measures one workload in this process and prints the metrics
// by name, then the result object on the last line.
func single(w *workload, p params, traced bool) int {
	shape := fmt.Sprintf("%d clients, closed loop, %s", numClients, w.transport)
	if w.transport == v2Pipelined {
		shape += fmt.Sprintf(" window %d", pipelineWindow)
	}
	if w.training {
		shape += ", training mode, wal fsync=always"
	}
	fmt.Printf("workload %s seed %d trace %t window %gs warm-up %gs: %s\n", w.name, p.seed, traced, p.seconds, p.warmup, shape)
	res, problems, err := run(w, p, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	printMetrics(res.Metrics)
	fmt.Printf("%-28s %14.6g ratio (%d of %d operations differ from the oracle)\n", "fail_ratio",
		float64(res.Failed)/float64(max(1, res.Attempted)), res.Failed, res.Attempted)
	for _, problem := range problems {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", w.name, problem)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-28s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

// child runs one workload and pass in a fresh process of this program
// and returns the result object from its last line.
func child(w *workload, p params, traced bool, seed int64) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", w.name, "-trace", trace, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(p.seconds))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s trace %s: no result (%v): %s", w.name, trace, runErr, stdout.String())
	}
	return &res, nil
}

// all runs every selected workload untraced and then traced, each in
// its own process, prints both sets of metrics and stores them.
func all(selected []*workload, p params) int {
	type entry struct {
		Workload string  `json:"workload"`
		Why      string  `json:"why"`
		EndToEnd *result `json:"end_to_end"`
		PerLayer *result `json:"per_layer"`
	}
	var entries []entry
	code := 0
	for _, w := range selected {
		e := entry{Workload: w.name, Why: w.why}
		for _, traced := range []bool{false, true} {
			res, err := child(w, p, traced, p.seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			fmt.Printf("\n== %s, tracing %s: %d operations, %d failed\n", w.name,
				map[bool]string{false: "off", true: "on"}[traced], res.Attempted, res.Failed)
			printMetrics(res.Metrics)
			if !res.Correct {
				code = 1
			}
			if traced {
				e.PerLayer = res
			} else {
				e.EndToEnd = res
			}
		}
		entries = append(entries, e)
	}
	data, err := json.MarshalIndent(entries, "", "  ")
	if err == nil {
		err = os.MkdirAll(p.out, 0o755)
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(p.out, "results.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("\nresults written to %s\n", filepath.Join(p.out, "results.json"))
	if code != 0 {
		fmt.Fprintln(os.Stderr, "bench: FAILED: some operations differ from the oracle (fail_ratio > 0)")
	}
	return code
}

// definition is the part of BENCHMARK.json the repeatability check
// needs.
type definition struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRuns runs the untraced pass n times per workload, each in a
// fresh process with its own seed, and reports for every end-to-end
// metric the median, the quartiles, their distance as a share of the
// median, and whether the second half of the runs is worse than the
// first by more than the metric's bound.
func repeatRuns(selected []*workload, p params, n int) int {
	specPath := filepath.Join("..", "BENCHMARK.json") // the program runs in bench/
	data, err := os.ReadFile(specPath)
	if err != nil {
		fatalf("%v", err)
	}
	var def definition
	if err := json.Unmarshal(data, &def); err != nil {
		fatalf("%s: %v", specPath, err)
	}
	code := 0
	fmt.Printf("%-11s %-14s %12s %12s %12s %8s %6s %9s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "halves")
	for _, w := range selected {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			res, err := child(w, p, false, p.seed+int64(i))
			if err != nil {
				fatalf("%v", err)
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d of %d operations failed\n", w.name, p.seed+int64(i), res.Failed, res.Attempted)
				code = 1
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, m := range def.EndToEnd {
			v := values[m.Name]
			q := quartiles(v)
			spread := (q[2] - q[0]) / q[1]
			first, second := median(v[:len(v)/2]), median(v[len(v)/2:])
			worse := (second - first) / first
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if (m.Name != "setup_s" && spread > m.Bound) || worse > m.Bound {
				verdict = "EXCEEDED"
				code = 1
			}
			fmt.Printf("%-11s %-14s %12.6g %12.6g %12.6g %7.2f%% %5.0f%% %+7.2f%% %s\n",
				w.name, m.Name, q[1], q[0], q[2], 100*spread, 100*m.Bound, 100*worse, verdict)
		}
	}
	return code
}

// quartiles cuts v at its quartiles the way Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is
// how the benchmark's acceptance measures spread.
func quartiles(v []float64) (q [3]float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return [3]float64{s[0], s[0], s[0]}
	}
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
