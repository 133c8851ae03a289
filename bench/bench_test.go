package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs every workload for a fraction of a second, untraced
// and traced, and checks that the metrics BENCHMARK.json names are the
// ones emitted, that no operation differs from the oracle, and that the
// layer shares add up.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(def.Workloads), len(workloads))
	}

	p := defaultParams()
	p.seconds, p.segment, p.burst, p.warmup, p.traced = 0.3, 0.1, 0.02, 0.1, 0.3
	p.setups, p.setupFor, p.probeN, p.embedTrace = 1, 0, 200, 1<<13
	p.out = t.TempDir()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

	for _, dw := range def.Workloads {
		w := workloadByName(dw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the program does not have", dw.Name)
		}
		for _, pass := range []struct {
			traced bool
			want   []struct{ Name, Unit string }
		}{{false, def.EndToEnd}, {true, def.PerLayer}} {
			res, problems, err := run(w, p, pass.traced)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, pass.traced, err)
			}
			for _, problem := range problems {
				t.Errorf("%s traced=%t: %s", w.name, pass.traced, problem)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t, %d of %d operations failed", w.name, pass.traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(pass.want) {
				t.Errorf("%s traced=%t: %d metrics emitted, BENCHMARK.json names %d", w.name, pass.traced, len(res.Metrics), len(pass.want))
			}
			shares := 0.0
			for _, m := range pass.want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: metric %s not emitted", w.name, pass.traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s is %v", w.name, m.Name, got.Value)
				case !name.MatchString(m.Name):
					t.Errorf("metric name %q", m.Name)
				case !pass.traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.name, m.Name, got.Value)
				}
				if strings.HasSuffix(m.Name, ".share") {
					shares += got.Value
				}
			}
			if pass.traced && math.Abs(shares-1) > 0.1 {
				t.Errorf("%s: layer shares sum to %.3f, want 1.0 within 0.1", w.name, shares)
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(p.out, "wal*")); len(left) > 0 {
		t.Errorf("scratch WAL directories left behind: %v", left)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	got := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	want := [3]float64{3.5, 13.5, 31.0}
	if got != want {
		t.Fatalf("quartiles = %v, want %v", got, want)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.record(v * 10)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		got, want := h.quantile(q), q*1e6
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", q, got, want)
		}
	}
}
