package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/qstruct"
	"github.com/septic-db/septic/internal/sqlparser"
	"github.com/septic-db/septic/internal/wal"
	"github.com/septic-db/septic/internal/wire"
)

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}

// timed runs call n times on one goroutine and returns each duration in
// ns, less the cost of reading the clock, and the heap allocations per
// call.
func timed(n int, clock float64, call func(i int)) (ns []float64, allocs float64) {
	if n == 0 {
		return nil, 0
	}
	ns = make([]float64, n)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for i := range ns {
		start := time.Now()
		call(i)
		ns[i] = max(0, float64(time.Since(start))-clock)
	}
	runtime.ReadMemStats(&ms)
	return ns, float64(ms.Mallocs-mallocs) / float64(n)
}

func sum(v []float64) (s float64) {
	for _, x := range v {
		s += x
	}
	return s
}

// walProbeN is the fixed number of durable updates the WAL probes make,
// so their counts (fsyncs, bytes) repeat exactly from run to run.
const walProbeN = 2000

// codecProbeN bounds the recorded request/response pairs kept for the
// JSON codec probe.
const codecProbeN = 2000

type probeStats struct {
	checked, blocked, failed int
	failure                  string
}

// probe times each layer's public entry points from outside, on one
// goroutine, over the next statements client 0 would have sent, and
// reports each layer's share of the workload's depth-1 end-to-end time.
func (f *fixture) probe(p params, tr *tracer, layer func(string, float64, string)) (ps probeStats, err error) {
	stop := watchdog(f.w.name+" probe", 150*time.Second)
	defer stop()
	w, src := f.w, f.clients[0].src
	n := p.probeN
	if cycle := src.cycle(); w.writes {
		n = max(1, n/cycle) * cycle // whole cycles leave the tables as they were
	}
	if w.training {
		n = min(n, 2*walProbeN) // every statement costs an fsync here
	}
	take := func() []op {
		batch := make([]op, n)
		for i := range batch {
			batch[i] = *src.next()
		}
		return batch
	}
	clockNS, _ := timed(20000, 0, func(int) {})
	clock := median(clockNS)

	batch := take()
	stmts := make([]sqlparser.Statement, n)
	parse, parseAllocs := timed(n, clock, func(i int) { stmts[i], err = sqlparser.Parse(batch[i].sql) })
	if err != nil {
		return ps, fmt.Errorf("parse: %w", err)
	}
	var stackSink qstruct.Stack
	var hashSink uint64
	build, _ := timed(n, clock, func(i int) { stackSink = qstruct.BuildStack(stmts[i]) })
	skeleton, _ := timed(n, clock, func(i int) { hashSink += qstruct.SkeletonHash(stmts[i]) })
	_, _ = stackSink, hashSink
	layer("sqlparser.parse_ns", median(parse), "ns")
	layer("sqlparser.parse_allocs", parseAllocs, "allocs")
	layer("qstruct.build_ns", median(build), "ns")
	layer("qstruct.skeleton_hash_ns", median(skeleton), "ns")

	check := func(o *op, res *engine.Result, err error) {
		ps.checked++
		got := outcomeOf(res, err)
		if got == blocked {
			ps.blocked++
		}
		if got != o.want {
			ps.failed++
			if ps.failure == "" {
				ps.failure = fmt.Sprintf("%s: outcome %d, oracle %d (%v)", o.sql, got, o.want, err)
			}
		}
	}

	// Direct execution: engine and guard without transport. The hook
	// wrapper times the guard inside it.
	tr.timeAll.Store(true)
	hook := make([]float64, n)
	kept, keptFrom := make([]*engine.Result, min(n, codecProbeN)), batch
	exec, execAllocs := timed(n, clock, func(i int) {
		res, err := f.st.db.ExecAppContext(context.Background(), "", batch[i].sql, batch[i].args...)
		hook[i] = float64(tr.lastHook.Load())
		check(&batch[i], res, err)
		if i < len(kept) {
			kept[i] = res
		}
	})
	tr.timeAll.Store(false)
	layer("engine.exec_ns", median(exec), "ns")
	layer("engine.exec_allocs", execAllocs, "allocs")
	layer("engine.self_ns", max(0, median(exec)-median(hook)), "ns")

	// Depth-1 round trips over loopback, both protocols. A cold workload
	// needs statements the caches have not seen for each.
	var rtt [3][]float64 // by protocol version
	var rttAllocs [3]float64
	if f.srv != nil {
		for version := 1; version <= 2; version++ {
			var opts []wire.ClientOption
			if version == 2 {
				opts = append(opts, wire.WithPipeline(pipelineWindow))
			}
			conn, err := wire.Dial(f.addr, opts...)
			if err != nil {
				return ps, err
			}
			if w.cold {
				batch = take()
			}
			rtt[version], rttAllocs[version] = timed(n, clock, func(i int) {
				res, err := conn.ExecArgs(batch[i].sql, batch[i].args...)
				check(&batch[i], res, err)
			})
			_ = conn.Close()
		}
	}
	version := w.transport.protocol()
	own := rtt[version] // nil for the embedded workload
	layer("wire.rtt_v1_ns", median(rtt[1]), "ns")
	layer("wire.rtt_v2_ns", median(rtt[2]), "ns")
	wireSelf, wireAllocs := 0.0, 0.0
	if own != nil {
		wireSelf = max(0, median(own)-median(exec))
		wireAllocs = max(0, rttAllocs[version]-execAllocs)
	}
	layer("wire.self_ns", wireSelf, "ns")
	layer("wire.allocs_per_req", wireAllocs, "allocs")

	// JSON codec alone: a recorded request/response pair written to and
	// read back from a buffer.
	var buf bytes.Buffer
	var reqIn wire.Request
	var respIn wire.Response
	pairs := make([]wire.Response, 0, len(kept))
	sqls := make([]string, 0, len(kept))
	for i, res := range kept {
		if res == nil {
			continue // blocked: no result to encode
		}
		resp := wire.Response{Columns: res.Columns, Affected: res.Affected, LastInsertID: res.LastInsertID}
		for _, row := range res.Rows {
			wr := make([]wire.WireValue, len(row))
			for j, v := range row {
				wr[j] = wire.ToWire(v)
			}
			resp.Rows = append(resp.Rows, wr)
		}
		pairs = append(pairs, resp)
		sqls = append(sqls, keptFrom[i].sql)
	}
	roundTrip := func(out, in any) {
		if err == nil {
			err = wire.WriteJSONFrame(&buf, out)
		}
		if err == nil {
			err = wire.ReadJSONFrame(&buf, in)
		}
	}
	codec, _ := timed(len(pairs), clock, func(i int) {
		buf.Reset()
		reqIn, respIn = wire.Request{}, wire.Response{}
		roundTrip(&wire.Request{Query: sqls[i]}, &reqIn)
		roundTrip(&pairs[i], &respIn)
	})
	if err != nil {
		return ps, fmt.Errorf("json codec: %w", err)
	}
	layer("wire.json_codec_ns", median(codec), "ns")

	// The store and the log, on scratch instances (train_wal only).
	var wp walProbe
	if w.training {
		if wp, err = probeWAL(p, clock, stmts); err != nil {
			return ps, err
		}
	}
	layer("core.put_ns", median(wp.put), "ns")
	layer("core.put_wal_ns", median(wp.putWAL), "ns")
	layer("core.recover_us_per_record", wp.recoverUS, "us")
	layer("wal.append_ns", wp.appendNS, "ns")
	layer("wal.fsyncs_per_update", wp.fsyncs, "count")
	layer("wal.bytes_per_update", wp.bytes, "B")

	// Shares of the depth-1 end-to-end time, from totals over the
	// batch. The engine parses only when its cache misses, and the guard
	// builds the structure and hashes the skeleton only when its verdict
	// cache misses (or it is learning): both happen on every statement
	// of a cold workload and on none of a cached one.
	execT, hookT := sum(exec), sum(hook)
	e2e := execT
	wireT := 0.0
	if own != nil {
		e2e = sum(own)
		wireT = e2e - execT
	}
	var parseT, qsT, walT float64
	if w.cold {
		parseT, qsT = sum(parse), sum(build)+sum(skeleton)
	}
	if w.training {
		walT = float64(n) * (sum(wp.putWAL)/float64(len(wp.putWAL)) - sum(wp.put)/float64(len(wp.put)))
	}
	for name, t := range map[string]float64{
		"sqlparser.share": parseT,
		"qstruct.share":   qsT,
		"core.share":      hookT - qsT - walT,
		"engine.share":    execT - hookT - parseT,
		"wire.share":      wireT,
		"wal.share":       walT,
	} {
		layer(name, max(0, t/e2e), "ratio")
	}
	return ps, nil
}

// walProbe is what probeWAL measured.
type walProbe struct {
	put, putWAL         []float64 // ns per Store.Put, without and with the sink
	fsyncs, bytes       float64   // per durable update
	recoverUS, appendNS float64
}

// probeWAL times Store.Put without and with the durability sink, a
// crash recovery of what it wrote, and bare appends of the same size,
// all on scratch instances with checkpoints off.
func probeWAL(p params, clock float64, stmts []sqlparser.Statement) (wp walProbe, err error) {
	models := make([]qstruct.Model, len(stmts))
	ids := make([]string, len(stmts))
	for i, s := range stmts {
		models[i] = qstruct.ModelOf(qstruct.BuildStack(s))
		ids[i] = "probe:t" + strconv.Itoa(i)
	}
	store := core.NewStore()
	wp.put, _ = timed(len(models), clock, func(i int) { store.Put(ids[i], models[i], false) })

	dir, err := os.MkdirTemp(p.out, "walprobe-")
	if err != nil {
		return wp, err
	}
	defer os.RemoveAll(dir)
	guard := core.New(core.Config{Mode: core.ModeTraining})
	persist, err := guard.AttachPersistence(core.PersistenceOptions{Dir: dir, Fsync: wal.FsyncAlways})
	if err != nil {
		return wp, err
	}
	n := min(walProbeN, len(models))
	acked := 0
	wp.putWAL, _ = timed(n, clock, func(i int) {
		if guard.Store().Put(ids[i], models[i], false) {
			acked++
		}
	})
	wp.fsyncs = float64(persist.Stats().WAL.Fsyncs) / float64(n)
	wp.bytes = float64(dirBytes(dir)) / float64(n)
	persist.Kill()
	again := core.New(core.Config{Mode: core.ModeTraining})
	recovered, err := again.AttachPersistence(core.PersistenceOptions{Dir: dir, Fsync: wal.FsyncAlways})
	if err != nil {
		return wp, fmt.Errorf("recover: %w", err)
	}
	rst := recovered.Stats()
	recovered.Kill()
	if acked != n || int(rst.RecoveredRecords) != n || again.Store().Len() != n {
		return wp, fmt.Errorf("wal probe: %d puts, %d acknowledged, %d records recovered, %d identifiers in the recovered store",
			n, acked, rst.RecoveredRecords, again.Store().Len())
	}
	wp.recoverUS = float64(rst.RecoveryDuration.Microseconds()) / float64(n)

	logDir, err := os.MkdirTemp(p.out, "walprobe-")
	if err != nil {
		return wp, err
	}
	defer os.RemoveAll(logDir)
	log, _, err := wal.Open(wal.Options{Dir: logDir, Policy: wal.FsyncNever}, nil)
	if err != nil {
		return wp, err
	}
	payload := make([]byte, max(1, int(wp.bytes)-16)) // 16 bytes of framing per record
	appendNS, _ := timed(len(models), clock, func(int) {
		if _, aerr := log.Append(payload); aerr != nil {
			err = aerr
		}
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	wp.appendNS = median(appendNS)
	return wp, err
}
