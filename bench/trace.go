package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/septic-db/septic/internal/engine"
)

// traceSampling is the share of requests that get spans: one in 64.
const traceSampling = 64

// span is one timed interval. Spans of one request share Req; Parent is
// the ID of the span that caused this one, 0 for a client span. Times
// are nanoseconds since the traced loop started.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans from outside the program: the clients call it
// around each sampled request, and it sits in the engine's hook slot in
// front of the guard to time guard.BeforeExecute as the child span.
//
// Nothing in the wire protocol carries a request id, so the hook span
// is matched to its request by statement text: a sampled client
// announces its text, and the next hook call that sees that text takes
// the request id. When several requests with the same text are in
// flight the hook call may belong to a sibling; the text, and so the
// guard's work, is the same, and the child still lies inside the
// parent's interval because the announcement is withdrawn when the
// reply arrives.
type tracer struct {
	inner engine.QueryHook
	base  time.Time

	// timeAll makes the wrapper time every call into lastHook; the
	// single-goroutine probe reads it after each direct execution.
	timeAll  atomic.Bool
	lastHook atomic.Int64

	// on gates the clients' sampling; the traced loop turns it on for
	// every other slice.
	on        atomic.Bool
	announced atomic.Int32
	mu        sync.Mutex
	want      map[string]uint64 // statement text -> request id
	spans     []span
}

func newTracer(inner engine.QueryHook) *tracer {
	return &tracer{inner: inner, want: make(map[string]uint64), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) BeforeExecute(ctx *engine.HookContext) error {
	if t.timeAll.Load() {
		start := time.Now()
		err := t.inner.BeforeExecute(ctx)
		t.lastHook.Store(int64(time.Since(start)))
		return err
	}
	if t.announced.Load() == 0 {
		return t.inner.BeforeExecute(ctx)
	}
	t.mu.Lock()
	req, ok := t.want[ctx.Raw]
	if ok {
		delete(t.want, ctx.Raw)
	}
	t.mu.Unlock()
	if !ok {
		return t.inner.BeforeExecute(ctx)
	}
	start := time.Since(t.base)
	err := t.inner.BeforeExecute(ctx)
	end := time.Since(t.base)
	t.add(span{Name: "core.hook", ID: req<<1 | 1, Parent: req << 1, Req: req, Start: int64(start), End: int64(end)})
	return err
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < cap(t.spans) { // never grows inside a loop
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// sample decides whether client c's n-th request is traced and, if so,
// announces its text and returns its request id (0: not traced).
func (t *tracer) sample(c *client, n uint64, sql string) uint64 {
	if t == nil || n%traceSampling != 0 || !t.on.Load() {
		return 0
	}
	req := 1 + uint64(c.idx) + numClients*(n/traceSampling)
	t.mu.Lock()
	t.want[sql] = req
	t.mu.Unlock()
	t.announced.Add(1)
	return req
}

// finish records the client span of a traced request and withdraws its
// announcement if no hook call took it.
func (t *tracer) finish(sql string, req uint64, sent, at time.Duration) {
	t.announced.Add(-1)
	t.mu.Lock()
	if t.want[sql] == req {
		delete(t.want, sql)
	}
	t.mu.Unlock()
	t.add(span{Name: "client.request", ID: req << 1, Req: req, Start: int64(sent), End: int64(at)})
}

// hookDurations returns the duration of every hook span, in ns.
func (t *tracer) hookDurations() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Parent != 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(file)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	return err
}
