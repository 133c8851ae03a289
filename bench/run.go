package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/wal"
	"github.com/septic-db/septic/internal/wire"
)

// params fixes the shape of one run. Everything but seed, seconds and
// trace has one value in every real run; the smoke test shortens them.
type params struct {
	seed       int64
	seconds    float64 // measured window
	segment    float64 // untraced run: seconds of the closed loop between two reference bursts
	burst      float64 // untraced run: seconds of one reference burst
	warmup     float64 // unmeasured closed loop before it
	traced     float64 // traced run: seconds of the loop with tracing on, and as many with it off
	setups     int     // untraced run: fewest fixtures built; set-up time is their median
	setupFor   float64 // and cheap ones are rebuilt until this many seconds have gone
	probeN     int     // statements per probe phase
	embedTrace int
	out        string
}

func defaultParams() params {
	return params{seed: 1, seconds: 20, segment: 1, burst: 0.25, warmup: 3, traced: 5, setups: 3, setupFor: 2, probeN: 20000,
		embedTrace: embedMissTrace, out: "out"}
}

const checkpointInterval = 5 * time.Second

// tracedSlice is the slice length, in seconds, of the traced run's loop,
// which alternates slices with tracing off and on.
const tracedSlice = 0.25

// maxSetups bounds how often an untraced run repeats its set-up.
const maxSetups = 25

// fixture is one workload deployed and ready to measure.
type fixture struct {
	w       *workload
	st      *stack
	srv     *wire.Server
	addr    string
	clients []*client
	persist *core.Persistence
	walDir  string
}

// setUp builds the whole fixture from the seed: both deployments, the
// trace with its oracle, the WAL, the server and the connections.
func setUp(w *workload, p params) (f *fixture, err error) {
	stop := watchdog(w.name+" set-up", 120*time.Second)
	defer stop()
	ref, err := deploy(false)
	if err != nil {
		return nil, fmt.Errorf("reference deployment: %w", err)
	}
	sut, err := deploy(true)
	if err != nil {
		return nil, err
	}
	if !w.training {
		ref.protect()
		sut.protect()
	}
	srcs, err := w.build(rand.New(rand.NewSource(p.seed)), ref, sut, p.embedTrace)
	if err != nil {
		return nil, err
	}
	f = &fixture{w: w, st: sut}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if w.training {
		// As septicd: attach after the domains exist, before listening.
		if err = os.MkdirAll(p.out, 0o755); err != nil {
			return nil, err
		}
		if f.walDir, err = os.MkdirTemp(p.out, "wal-"); err != nil {
			return nil, err
		}
		f.persist, err = sut.guard.AttachPersistence(core.PersistenceOptions{
			Dir: f.walDir, Fsync: wal.FsyncAlways, CheckpointInterval: checkpointInterval,
		})
		if err != nil {
			return nil, err
		}
	}
	if w.transport != embedded {
		if f.srv, f.addr, err = sut.serve(); err != nil {
			return nil, err
		}
	}
	if err = f.dial(f.addr, srcs); err != nil {
		return nil, err
	}
	return f, nil
}

// close stops the clients, the server and the WAL, waits for them, and
// removes the WAL directory.
func (f *fixture) close() {
	for _, c := range f.clients {
		if c.conn != nil {
			_ = c.conn.Close()
		}
	}
	if f.srv != nil {
		_ = f.srv.Close()
	}
	if f.persist != nil {
		f.persist.Kill()
	}
	if f.walDir != "" {
		_ = os.RemoveAll(f.walDir)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run measures one workload in this process and returns what it
// prints. problems lists every check that failed; the run is correct
// when it is empty.
func run(w *workload, p params, traced bool) (res *result, problems []string, err error) {
	res = &result{Metrics: make(map[string]metric)}
	note := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	var blockedReplies int64
	book := func(st *loopStats) {
		res.Attempted += st.checked
		res.Failed += st.failed
		blockedReplies += st.blocked
		if st.failure != "" {
			note("%s", st.failure)
		}
	}

	// An untraced run sets up several times and reports the median:
	// at least p.setups times, and cheap set-ups again until p.setupFor
	// seconds have gone, so a 10 ms set-up is timed as steadily as a 1 s
	// one.
	var f *fixture
	var setupS []float64
	for begun := time.Now(); ; {
		start := time.Now()
		if f, err = setUp(w, p); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if n := len(setupS); traced || n >= maxSetups || (n >= p.setups && time.Since(begun).Seconds() > p.setupFor) {
			break
		}
		f.close()
	}
	defer func() { f.close() }()

	before, err := f.st.tableCounts()
	if err != nil {
		return nil, nil, err
	}
	atStart := f.st.guard.Stats()
	secs := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

	book(f.loop(secs(p.warmup), 1, nil, nil))
	runtime.GC()
	if !traced {
		win, err := f.window(p, book)
		if err != nil {
			return nil, nil, err
		}
		res.Metrics["qps"] = metric{median(win.qps), "ops/s"}
		res.Metrics["lat_p50_us"] = metric{median(win.p50us), "us"}
		res.Metrics["allocs_per_op"] = metric{median(win.allocs), "allocs"}
		res.Metrics["setup_s"] = metric{median(setupS), "s"}
		fmt.Printf("latency samples: %d in %d segments of %g s, a %g s reference burst on either side of each; each metric is the median of its per-segment values\n",
			win.samples, len(win.qps), p.segment, p.burst)
		fmt.Printf("host speed (reference rate / nominal %.0f/s): median %.3f, from %.3f to %.3f; qps and lat_p50_us are corrected to 1.000\n",
			win.nominal, median(win.speed), quantile(win.speed, 0), quantile(win.speed, 1))
		fmt.Printf("as measured: qps %.6g ops/s, lat_p50_us %.6g us\n", median(win.rawQPS), median(win.rawP50us))
	} else {
		// One loop, tracing on in every other slice: the guard sits in
		// the hook slot alone in even slices and behind the timing wrapper
		// in odd ones, so drift over the loop cancels in the overhead.
		stats0, cache0 := f.st.guard.Stats(), f.st.guard.CacheStats()
		var pst0 core.PersistenceStats
		if f.persist != nil {
			pst0 = f.persist.Stats()
		}
		tr := newTracer(f.st.guard)
		tr.base = time.Now()
		nSlices := 2 * max(1, int(p.traced/tracedSlice))
		st := f.loop(secs(p.traced*2), nSlices, tr, func(k int) {
			on := k%2 == 1
			tr.on.Store(on)
			if on {
				f.st.db.SetHook(tr)
			} else {
				f.st.db.SetHook(f.st.guard)
			}
		})
		tr.on.Store(false)
		f.st.db.SetHook(tr) // the probe times the guard through it
		book(st)
		var plain, traced []float64
		for k, qps := range st.qps {
			if k%2 == 1 {
				traced = append(traced, qps)
			} else {
				plain = append(plain, qps)
			}
		}
		layer := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
		f.layerCounts(layer, stats0, cache0, pst0)
		overhead := 0.0
		if base := median(plain); base > 0 {
			overhead = 100 * (base - median(traced)) / base
		}
		layer("trace.overhead_pct", overhead, "%")
		layer("client.lat_p99_us", st.all.quantile(0.99)/1e3, "us")
		layer("client.lat_p999_us", st.all.quantile(0.999)/1e3, "us")
		layer("client.generator_busy_pct", st.genBusyPct, "%")
		hooks := tr.hookDurations()
		layer("core.hook_ns", median(hooks), "ns")
		layer("core.hook_p99_ns", quantile(hooks, 0.99), "ns")
		probeFailed, perr := f.probe(p, tr, layer)
		if perr != nil {
			return nil, nil, fmt.Errorf("probe: %w", perr)
		}
		res.Attempted += int64(probeFailed.checked)
		res.Failed += int64(probeFailed.failed)
		blockedReplies += int64(probeFailed.blocked)
		if probeFailed.failure != "" {
			note("probe: %s", probeFailed.failure)
		}
		if err := os.MkdirAll(p.out, 0o755); err != nil {
			return nil, nil, err
		}
		path := filepath.Join(p.out, "trace-"+w.name+".jsonl")
		if err := tr.write(path); err != nil {
			return nil, nil, err
		}
		fmt.Printf("spans: %d written to %s (1 request in %d)\n", len(tr.spans), path, traceSampling)
	}

	// Steady state: every loaded table is back at its size.
	after, err := f.st.tableCounts()
	if err != nil {
		return nil, nil, err
	}
	for table, n := range before {
		if after[table] != n {
			note("table %s has %d rows after the run, %d before", table, after[table], n)
		}
	}
	// Cross-checks against the guard's own counters: it blocked exactly
	// the replies the clients saw blocked, and learned exactly one model
	// per train_wal statement and none in prevention mode.
	atEnd := f.st.guard.Stats()
	if n := atEnd.AttacksBlocked - atStart.AttacksBlocked; n != blockedReplies {
		note("guard counted %d blocked attacks, clients saw %d blocked replies", n, blockedReplies)
	}
	if w.attacks && blockedReplies == 0 {
		note("no attack was sent")
	}
	learned, sent := atEnd.ModelsLearned-atStart.ModelsLearned, int64(0)
	if w.training {
		for _, c := range f.clients {
			sent += int64(c.src.issued)
		}
	}
	if learned != sent {
		note("guard learned %d models, want %d (one per train_wal statement, none in prevention mode)", learned, sent)
	}
	if w.training {
		lost, err := f.verifyDurable()
		if err != nil {
			return nil, nil, err
		}
		if lost > 0 {
			res.Failed += int64(lost)
			note("%d acknowledged identifiers missing after re-attach", lost)
		}
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	return res, problems, nil
}

// layerCounts reports the counters the layers keep themselves, as
// deltas over the traced loop.
func (f *fixture) layerCounts(layer func(string, float64, string),
	stats0 core.Stats, cache0 core.CacheStats, pst0 core.PersistenceStats) {
	stats1, cache1 := f.st.guard.Stats(), f.st.guard.CacheStats()
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	layer("core.cache_hit_ratio", ratio, "ratio")
	layer("core.cache_evictions", float64(cache1.Evictions-cache0.Evictions), "count")
	layer("core.cache_invalidations", float64(cache1.Invalidations-cache0.Invalidations), "count")
	layer("core.attacks_blocked", float64(stats1.AttacksBlocked-stats0.AttacksBlocked), "count")
	layer("core.models_learned", float64(stats1.ModelsLearned-stats0.ModelsLearned), "count")
	var sheds, refused, panics int64
	if f.srv != nil {
		sheds, refused, panics = f.srv.Sheds(), f.srv.Refused(), f.srv.Panics()
	}
	layer("wire.sheds", float64(sheds), "count")
	layer("wire.refused", float64(refused), "count")
	layer("wire.panics", float64(panics), "count")
	var rotations, checkpoints, models, walBytes float64
	if f.persist != nil {
		pst1 := f.persist.Stats()
		rotations = float64(pst1.WAL.Rotations - pst0.WAL.Rotations)
		checkpoints = float64(pst1.Checkpoints - pst0.Checkpoints)
		for _, d := range f.st.guard.Domains() {
			models += float64(d.Store().ModelCount())
		}
		walBytes = float64(dirBytes(f.walDir))
	}
	layer("wal.rotations", rotations, "count")
	layer("core.checkpoints", checkpoints, "count")
	layer("core.store_models", models, "count")
	layer("wal.dir_bytes", walBytes, "B")
}

// verifyDurable plays a crash after train_wal: the persistence handle
// is killed without a flush, a fresh guard re-attaches to the same
// directory, and every identifier a client got an answer for must be
// in its store. It returns how many are missing.
func (f *fixture) verifyDurable() (lost int, err error) {
	f.persist.Kill() // every loop has drained: nothing is in flight
	f.persist = nil
	guard := core.New(core.Config{Mode: core.ModeTraining})
	for _, spec := range specs() {
		if _, err := guard.RegisterDomain(spec.Prefix, core.Config{Mode: core.ModeTraining}); err != nil {
			return 0, err
		}
	}
	again, err := guard.AttachPersistence(core.PersistenceOptions{Dir: f.walDir, Fsync: wal.FsyncAlways})
	if err != nil {
		return 0, fmt.Errorf("re-attach: %w", err)
	}
	defer again.Kill()
	ab, _ := guard.Domain("ab")
	present := make(map[int]bool)
	for _, id := range ab.Store().IDs() {
		if rest, ok := strings.CutPrefix(id, "ab:t"); ok {
			if n, err := strconv.Atoi(rest[:strings.IndexByte(rest+"#", '#')]); err == nil {
				present[n] = true
			}
		}
	}
	issued := 0
	for _, c := range f.clients {
		issued += c.src.issued
		for k := 0; k < c.src.issued; k++ {
			if !present[c.idx+numClients*k] {
				lost++
			}
		}
	}
	pst := again.Stats()
	fmt.Printf("durability: %d identifiers acknowledged, %d missing after kill and re-attach (%d records replayed in %s); flush policy fsync=always, checkpoint every %s\n",
		issued, lost, pst.RecoveredRecords, pst.RecoveryDuration.Round(time.Millisecond), checkpointInterval)
	fmt.Printf("store: %d identifiers in domain ab, wal dir: %d bytes\n", ab.Store().Len(), dirBytes(f.walDir))
	return lost, nil
}

func dirBytes(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}

// watchdog aborts the process with a goroutine dump if the phase it
// guards is still running after limit: a hung benchmark must fail, not
// wait for the caller's timeout.
func watchdog(phase string, limit time.Duration) (stop func()) {
	t := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "bench: %s still running after %s; goroutines:\n", phase, limit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	return func() { t.Stop() }
}
