package obs

import (
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	// Every handle must be inert at nil: disabled instrumentation calls
	// these unconditionally.
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var g *Gauge
	g.Set(7)
	g.Add(-1)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(time.Millisecond)
	if s := h.Snapshot(); s.Count != 0 {
		t.Error("nil histogram observed something")
	}
	var reg *Registry
	if reg.Counter("x") != nil || reg.Gauge("x") != nil || reg.Histogram("x") != nil {
		t.Error("nil registry returned live metrics")
	}
	reg.GaugeFunc("x", func() int64 { return 1 })
	if s := reg.Snapshot(); len(s.Counters) != 0 {
		t.Error("nil registry snapshot non-empty")
	}
}

func TestRegistryHandlesAreStable(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("same name resolved two counters")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("same name resolved two gauges")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("same name resolved two histograms")
	}
	r.Counter("a").Add(2)
	r.Gauge("g").Set(-4)
	r.GaugeFunc("f", func() int64 { return 11 })
	s := r.Snapshot()
	if s.Counters["a"] != 2 || s.Gauges["g"] != -4 || s.Gauges["f"] != 11 {
		t.Errorf("snapshot mismatch: %+v", s)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// 100 observations at ~1µs, 10 at ~1ms: p50 must sit in the
	// microsecond band, p99 in the millisecond band.
	for i := 0; i < 100; i++ {
		h.Observe(900 * time.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(900 * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 110 {
		t.Fatalf("count = %d, want 110", s.Count)
	}
	if s.P50NS <= 0 || s.P50NS > 1_000 {
		t.Errorf("p50 = %dns, want in (0, 1µs]", s.P50NS)
	}
	if s.P99NS < 500_000 || s.P99NS > 1_000_000 {
		t.Errorf("p99 = %dns, want in [0.5ms, 1ms]", s.P99NS)
	}
	if s.MaxNS != 900_000 {
		t.Errorf("max = %dns, want 900µs", s.MaxNS)
	}
	if got := s.Mean(); got < 70*time.Microsecond || got > 100*time.Microsecond {
		t.Errorf("mean = %v, out of expected band", got)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := newHistogram()
	h.Observe(time.Hour) // beyond the last finite bound
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P99NS != int64(time.Hour) {
		t.Errorf("overflow percentile = %d, want the observed max", s.P99NS)
	}
	last := s.Buckets[len(s.Buckets)-1]
	if last.UpperNS != -1 || last.Cumulative != 1 {
		t.Errorf("+Inf bucket = %+v", last)
	}
}

func TestBucketIndexMatchesLinearScan(t *testing.T) {
	probes := []int64{0, 1, 99, 100, 101, 999, 1_000, 1_001, 5 * 1e9, 10_000_000_000, 10_000_000_001}
	for _, ns := range probes {
		want := len(bucketBounds)
		for i, b := range bucketBounds {
			if ns <= b {
				want = i
				break
			}
		}
		if got := bucketIndex(ns); got != want {
			t.Errorf("bucketIndex(%d) = %d, want %d", ns, got, want)
		}
	}
}

func TestConcurrentObservation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x")
	c := r.Counter("c")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(time.Microsecond)
				c.Inc()
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 4000 {
		t.Errorf("counter = %d, want 4000", got)
	}
	if s := h.Snapshot(); s.Count != 4000 {
		t.Errorf("histogram count = %d, want 4000", s.Count)
	}
}
