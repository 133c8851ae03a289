package main

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/wire"
)

// hist is a fixed-size latency histogram: values below 2^histSubBits ns
// are exact, larger ones fall in buckets 1/128 to 1/256 of their value
// wide. Recording never allocates, so the measured window does not grow
// the heap on the benchmark's account.
type hist struct {
	counts [histBuckets]uint32
	n      int64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histBuckets = (42 - histSubBits) * histSub // values up to 2^40 ns, 18 minutes
)

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	idx := int(ns)
	if ns >= histSub {
		shift := bits.Len64(uint64(ns)) - 1 - histSubBits
		idx = shift*histSub + int(ns>>uint(shift))
		if idx >= histBuckets {
			idx = histBuckets - 1
		}
	}
	h.counts[idx]++
	h.n++
}

func (h *hist) add(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in ns, interpolated inside its bucket.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var before float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if before+float64(c) > rank {
			low, width := float64(i), 1.0
			if i >= histSub {
				shift := uint(i/histSub - 1)
				low, width = float64(int64(i%histSub+histSub)<<shift), float64(int64(1)<<shift)
			}
			return low + width*(rank-before+0.5)/float64(c)
		}
		before += float64(c)
	}
	return 0
}

// client is one closed-loop load generator: it sends its source's next
// statement only after an earlier one has been answered. Exactly one of
// exec (one request at a time) and submit (a window of pipelineWindow
// in flight) is set.
type client struct {
	idx    int
	src    *source
	exec   func(o *op) (*engine.Result, error)
	submit func(o *op) *wire.Future
	conn   *wire.Client
}

// clientRun is what one client measured in one loop.
type clientRun struct {
	slices  []hist // latency by the slice in which the reply arrived
	done    atomic.Int64
	checked int64 // replies compared with the oracle, inside the window or not
	blocked int64 // replies the guard blocked
	failed  int64
	failure string        // first mismatch, for the report
	gen     time.Duration // time spent outside Exec / Submit+Wait
	wall    time.Duration
}

// loopStats is one closed-loop run of every client, cut into slices of
// equal length, with rate, median latency and allocations per slice. The
// untraced run's window is made of one-slice loops (see window); the
// traced run cuts one loop into many and takes its tail percentiles over
// all samples.
type loopStats struct {
	checked, blocked, failed int64
	failure                  string
	qps, allocs, p50us       []float64 // per slice
	all                      hist
	genBusyPct               float64
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// loop runs every client for dur, cut into nSlices slices. With tr set,
// one request in traceSampling gets a client span while tr is on, and
// lets the hook wrapper record its child span; atSlice, if not nil, runs
// at the start of every slice (the traced run switches tracing there).
func (f *fixture) loop(dur time.Duration, nSlices int, tr *tracer, atSlice func(k int)) *loopStats {
	stop := watchdog(f.w.name+" loop", dur+30*time.Second)
	defer stop()
	sliceLen := dur / time.Duration(nSlices)
	dur = sliceLen * time.Duration(nSlices)
	runs := make([]*clientRun, len(f.clients))
	base := time.Now()
	var wg sync.WaitGroup
	for i, c := range f.clients {
		runs[i] = &clientRun{slices: make([]hist, nSlices)}
		wg.Add(1)
		go func(c *client, r *clientRun) {
			defer wg.Done()
			if c.submit != nil {
				c.loopPipelined(r, base, dur, sliceLen, tr)
			} else {
				c.loopSync(r, base, dur, sliceLen, tr, f.w.writes)
			}
		}(c, runs[i])
	}
	// The sampler reads the process's allocation count and the clients'
	// completed-operation counters at every slice boundary; both deltas
	// come from the same instant, so timer jitter cancels in their ratio.
	type mark struct {
		at      time.Duration
		mallocs uint64
		done    int64
	}
	marks := make([]mark, nSlices+1)
	var ms runtime.MemStats
	for k := range marks {
		time.Sleep(time.Until(base.Add(time.Duration(k) * sliceLen)))
		if atSlice != nil && k < nSlices {
			atSlice(k)
		}
		runtime.ReadMemStats(&ms)
		marks[k] = mark{at: time.Since(base), mallocs: ms.Mallocs}
		for _, r := range runs {
			marks[k].done += r.done.Load()
		}
	}
	wg.Wait()

	st := &loopStats{}
	var gen, wall time.Duration
	for _, r := range runs {
		st.checked += r.checked
		st.blocked += r.blocked
		st.failed += r.failed
		if st.failure == "" {
			st.failure = r.failure
		}
		gen += r.gen
		wall += r.wall
	}
	if wall > 0 {
		st.genBusyPct = 100 * float64(gen) / float64(wall)
	}
	for k := 0; k < nSlices; k++ {
		ops := float64(marks[k+1].done - marks[k].done)
		st.qps = append(st.qps, ops/(marks[k+1].at-marks[k].at).Seconds())
		if ops == 0 {
			continue // a stalled slice: a rate of 0, nothing else to report
		}
		st.allocs = append(st.allocs, float64(marks[k+1].mallocs-marks[k].mallocs)/ops)
		var h hist
		for _, r := range runs {
			h.add(&r.slices[k])
		}
		st.p50us = append(st.p50us, h.quantile(0.50)/1e3)
		st.all.add(&h)
	}
	return st
}

// windowStats is the untraced run's measured window, one value per
// segment. qps and p50us are corrected to the nominal host speed; speed
// is the factor each was corrected by.
type windowStats struct {
	qps, p50us, allocs      []float64
	rawQPS, rawP50us, speed []float64
	nominal                 float64
	samples                 int64
}

// window measures for p.seconds: segments of the closed loop with a
// burst of the reference load before and after each. The host's speed
// during a segment is taken as the mean rate of the two bursts over the
// reference's nominal rate; the segment's rate is divided and its median
// latency multiplied by it. Allocations per operation do not depend on
// the host and are left as counted.
func (f *fixture) window(p params, book func(*loopStats)) (*windowStats, error) {
	fsyncDir := ""
	if f.w.training {
		fsyncDir = p.out // the disk the write-ahead log is on
	}
	ref, err := newReference(fsyncDir)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	defer ref.close()
	secs := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	win := &windowStats{nominal: ref.nominal()}
	begun := time.Now()
	before, err := ref.burst(secs(p.burst))
	if err != nil {
		return nil, err
	}
	for time.Since(begun).Seconds() < p.seconds {
		st := f.loop(secs(p.segment), 1, nil, nil)
		book(st)
		after, err := ref.burst(secs(p.burst))
		if err != nil {
			return nil, err
		}
		if len(st.p50us) == 1 { // else nothing completed: a stall, no latency to correct
			speed := (before + after) / 2 / win.nominal
			win.speed = append(win.speed, speed)
			win.rawQPS = append(win.rawQPS, st.qps[0])
			win.rawP50us = append(win.rawP50us, st.p50us[0])
			win.qps = append(win.qps, st.qps[0]/speed)
			win.p50us = append(win.p50us, st.p50us[0]*speed)
			win.allocs = append(win.allocs, st.allocs[0])
			win.samples += st.all.n
		}
		before = after
	}
	if len(win.qps) == 0 {
		return nil, fmt.Errorf("no operation completed in %g s", p.seconds)
	}
	return win, nil
}

// complete books one reply that arrived at time at (since the loop's
// start) for a request sent at sent.
func (r *clientRun) complete(want outcome, sql string, res *engine.Result, err error, sent, at, dur, sliceLen time.Duration) {
	if at < dur {
		r.slices[at/sliceLen].record(int64(at - sent))
		r.done.Add(1)
	}
	r.checked++
	got := outcomeOf(res, err)
	if got == blocked {
		r.blocked++
	}
	if got != want {
		r.failed++
		if r.failure == "" {
			r.failure = fmt.Sprintf("%s: outcome %d, oracle %d (%v)", sql, got, want, err)
		}
	}
}

func (c *client) loopSync(r *clientRun, base time.Time, dur, sliceLen time.Duration, tr *tracer, toCycleEnd bool) {
	var n uint64
	at := time.Since(base)
	start := at
	for at < dur || (toCycleEnd && !c.src.atCycleStart()) {
		o := c.src.next()
		req := tr.sample(c, n, o.sql)
		n++
		sent := time.Since(base)
		r.gen += sent - at
		res, err := c.exec(o)
		at = time.Since(base)
		r.complete(o.want, o.sql, res, err, sent, at, dur, sliceLen)
		if req != 0 {
			tr.finish(o.sql, req, sent, at)
		}
	}
	r.wall = at - start
}

func (c *client) loopPipelined(r *clientRun, base time.Time, dur, sliceLen time.Duration, tr *tracer) {
	type slot struct {
		f    *wire.Future
		sent time.Duration
		want outcome
		sql  string
		req  uint64
	}
	var ring [pipelineWindow]slot
	wait := func(s *slot) time.Duration {
		res, err := s.f.Wait()
		at := time.Since(base)
		r.complete(s.want, s.sql, res, err, s.sent, at, dur, sliceLen)
		if s.req != 0 {
			tr.finish(s.sql, s.req, s.sent, at)
		}
		s.f = nil
		return at
	}
	var n uint64
	at := time.Since(base)
	start := at
	for head := 0; ; head = (head + 1) % pipelineWindow {
		s := &ring[head]
		if s.f != nil {
			at = wait(s)
		}
		if at >= dur {
			break
		}
		o := c.src.next()
		s.want, s.sql = o.want, o.sql
		s.req = tr.sample(c, n, o.sql)
		n++
		s.sent = time.Since(base)
		r.gen += s.sent - at
		s.f = c.submit(o)
		if ring[(head+1)%pipelineWindow].f == nil {
			at = time.Since(base) // window still filling: nothing to wait for
		}
	}
	r.wall = at - start
	for i := range ring {
		if ring[i].f != nil {
			wait(&ring[i])
		}
	}
}

// dial connects the workload's clients to addr, or binds them to the
// engine for the embedded workload.
func (f *fixture) dial(addr string, srcs []*source) error {
	for i, src := range srcs {
		c := &client{idx: i, src: src}
		switch f.w.transport {
		case embedded:
			db := f.st.db
			c.exec = func(o *op) (*engine.Result, error) {
				return db.ExecAppContext(context.Background(), "", o.sql, o.args...)
			}
		case v1Sync:
			conn, err := wire.Dial(addr)
			if err != nil {
				return err
			}
			c.conn = conn
			c.exec = func(o *op) (*engine.Result, error) { return conn.ExecArgs(o.sql, o.args...) }
		case v2Pipelined:
			conn, err := wire.Dial(addr, wire.WithPipeline(pipelineWindow))
			if err != nil {
				return err
			}
			if v := conn.ProtocolVersion(); v != 2 {
				return fmt.Errorf("negotiated protocol v%d, want v2", v)
			}
			c.conn = conn
			c.submit = func(o *op) *wire.Future { return conn.Submit(o.sql, o.args...) }
		}
		f.clients = append(f.clients, c)
	}
	return nil
}
