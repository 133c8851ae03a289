// Package obs is the observability layer: a dependency-free metrics
// registry (counters, gauges, latency histograms) and the introspection
// HTTP endpoints of http.go, which also serve what the process hands
// them as closures — the guard's event register, its QM store. It exists
// so the paper's demo can be *watched* on a live septicd — queries
// crossing the validation→execution boundary, the QM store training,
// attacks flagged with their detector and distance — instead of read off
// opaque counters after the fact.
//
// Design constraints, in order:
//
//   - Disabled must be free: every instrumented component holds a nil
//     *Hub (or nil *Histogram etc.) by default and guards its
//     instrumentation behind one pointer check, so the cached hot path
//     keeps its zero-allocation guarantee and its nanosecond budget.
//   - Enabled must be cheap: counters and gauges are single atomics and
//     histogram observation is two atomic adds into fixed buckets.
//     Nothing on the query path formats strings or allocates per
//     observation.
//   - No dependencies: the package imports only the standard library
//     (TestLeafPackage holds it to that), so instrumenting a package can
//     never create an import cycle.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; a nil *Counter ignores Add (disabled instrumentation).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. Safe on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (active connections, backlog
// occupancy). A nil *Gauge ignores all writes.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value. Safe on a nil receiver.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (negative to decrement). Safe on a nil
// receiver.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current gauge reading. Safe on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry names and owns the metrics of one process. Metric handles are
// created (or found) by name; reads happen through Snapshot. Lookup is
// mutex-guarded but metrics are resolved once at component construction
// and cached as struct fields, so the query path never touches the map.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	hists      map[string]*Histogram
}

// NewRegistry builds an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() int64),
		hists:      make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns nil, which is a valid disabled counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge computed at snapshot time by calling f —
// the pull shape for values a component already tracks (cache occupancy,
// live connection counts). f must be safe to call from any goroutine.
// No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, f func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = f
}

// Histogram returns the named latency histogram, creating it on first
// use. A nil registry returns nil, which is a valid disabled histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric, the JSON body of
// /metrics. Maps are keyed by metric name.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot reads every metric once. Gauge funcs are called outside the
// registry lock-free metric reads but inside the registration lock;
// they must not re-enter the registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, f := range r.gaugeFuncs {
		s.Gauges[name] = f()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// names returns the sorted keys of a metric map — Prometheus exposition
// and tests want deterministic order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Hub is the single handle an instrumented component takes. A nil *Hub
// disables observability entirely — components must guard timing work
// behind a nil check; the metric methods are nil-safe on their own.
type Hub struct {
	Metrics *Registry
}

// NewHub builds a hub with a fresh registry.
func NewHub() *Hub {
	return &Hub{Metrics: NewRegistry()}
}
