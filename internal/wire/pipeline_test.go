package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/obs"
	"github.com/septic-db/septic/internal/raceflag"
)

// gatedHook wraps the guard and parks any query whose text equals
// match until gate is closed — the test lever for wedging chosen
// queries inside the engine while others run.
type gatedHook struct {
	inner engine.QueryHook
	match string
	gate  chan struct{}
}

func (g *gatedHook) BeforeExecute(ctx *engine.HookContext) error {
	if ctx.Raw == g.match {
		<-g.gate
	}
	if g.inner != nil {
		return g.inner.BeforeExecute(ctx)
	}
	return nil
}

// eventually waits up to five seconds for cond, failing the test with
// what() if it never holds: for state the server settles a step after
// the client can observe its cause.
func eventually(t *testing.T, cond func() bool, what func() string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal(what())
		}
	}
}

// dialOpts dials with arbitrary client options and registers cleanup.
func dialOpts(t *testing.T, addr string, opts ...ClientOption) *Client {
	t.Helper()
	c, err := Dial(addr, opts...)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestPipelinedRoundTrip(t *testing.T) {
	snapshotGoroutines(t)
	addr, _, _ := startServer(t, core.Config{Mode: core.ModeTraining})
	c := dialOpts(t, addr, WithPipeline(8))
	if got := c.ProtocolVersion(); got != 2 {
		t.Fatalf("ProtocolVersion = %d, want 2", got)
	}
	if _, err := c.Exec("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("INSERT INTO t (name) VALUES ('ann'), ('bob')")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 || res.LastInsertID != 2 {
		t.Errorf("insert result = %+v", res)
	}
	res, err = c.ExecArgs("SELECT id, name FROM t WHERE id = ?", engine.Value{Kind: engine.KindInt, I: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].S != "ann" {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Columns[0] != "id" || res.Columns[1] != "name" {
		t.Errorf("columns = %v", res.Columns)
	}
	// Errors still arrive per request, not per connection.
	if _, err := c.Exec("SELECT * FROM missing"); err == nil {
		t.Fatal("want error for missing table")
	}
	if _, err := c.Exec("SELECT id FROM t"); err != nil {
		t.Fatalf("session must survive a query error: %v", err)
	}
}

// TestPipelinedManyFuturesInFlight drives a full window of concurrent
// submits and checks every response is matched to its request.
func TestPipelinedManyFuturesInFlight(t *testing.T) {
	snapshotGoroutines(t)
	addr, _, _ := startServer(t, core.Config{Mode: core.ModeTraining})
	c := dialOpts(t, addr, WithPipeline(16))
	if _, err := c.Exec("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := c.Exec(fmt.Sprintf("INSERT INTO t (id, name) VALUES (%d, 'u%d')", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	futs := make([]*Future, n)
	for i := 0; i < n; i++ {
		futs[i] = c.Submit(fmt.Sprintf("SELECT name FROM t WHERE id = %d", i))
	}
	for i, f := range futs {
		res, err := f.Wait()
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].S != fmt.Sprintf("u%d", i) {
			t.Fatalf("future %d matched wrong response: %v", i, res.Rows)
		}
	}
	// Wait may be called again and must return the cached outcome.
	if res, err := futs[0].Wait(); err != nil || res.Rows[0][0].S != "u0" {
		t.Fatalf("second Wait: %v %v", res, err)
	}
}

// TestChaosPipelinedOutOfOrderCompletion pins the multiplexing itself:
// a slow query submitted first must not block fast ones submitted after
// it, and all must complete correctly. The slow one leads a burst of 16
// submitted before any wait, so the burst reaches the server in one
// client flush: a writer that held its flush while any request of the
// session is still inside the server would hold the 15 fast answers
// behind the parked one. The gate opens in a cleanup too, so a failure
// ends the test instead of leaving srv.Close waiting on the parked
// executor.
func TestChaosPipelinedOutOfOrderCompletion(t *testing.T) {
	snapshotGoroutines(t)
	guard := core.New(core.Config{Mode: core.ModeTraining})
	slow := make(chan struct{})
	var once sync.Once
	db := engine.New(engine.WithQueryHook(&gatedHook{
		inner: guard, match: "SELECT id FROM t WHERE id = 1", gate: slow,
	}))
	srv := NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { once.Do(func() { close(slow) }); _ = srv.Close() })

	const burst = 16
	c := dialOpts(t, addr, WithPipeline(burst))
	if _, err := c.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= burst; id++ {
		if _, err := c.Exec(fmt.Sprintf("INSERT INTO t (id) VALUES (%d)", id)); err != nil {
			t.Fatal(err)
		}
	}

	futs := make([]*Future, burst)
	for i := range futs { // futs[0] parks in the engine
		futs[i] = c.Submit(fmt.Sprintf("SELECT id FROM t WHERE id = %d", i+1))
	}

	fastDone := make(chan error, 1)
	go func() {
		for i, f := range futs[1:] {
			res, err := f.Wait()
			if err == nil && (len(res.Rows) != 1 || res.Rows[0][0].I != int64(i+2)) {
				err = fmt.Errorf("id %d answered with %v", i+2, res.Rows)
			}
			if err != nil {
				fastDone <- err
				return
			}
		}
		fastDone <- nil
	}()
	select {
	case err := <-fastDone:
		if err != nil {
			t.Fatalf("fast query: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fast queries blocked behind the parked one: no out-of-order completion")
	}
	once.Do(func() { close(slow) })
	if _, err := futs[0].Wait(); err != nil {
		t.Fatalf("slow query: %v", err)
	}
}

// TestPipelineWindowBounds checks the client never exceeds its
// negotiated in-flight window: with the server wedged, window+1
// submits must leave exactly `window` in flight and the extra submit
// blocked.
func TestPipelineWindowBounds(t *testing.T) {
	snapshotGoroutines(t)
	guard := core.New(core.Config{Mode: core.ModeTraining})
	gate := make(chan struct{})
	var once sync.Once
	db := engine.New(engine.WithQueryHook(&gatedHook{
		inner: guard, match: "SELECT id FROM t", gate: gate,
	}))
	srv := NewServer(db, WithPipelineWorkers(8), WithMaxInFlight(64))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { once.Do(func() { close(gate) }); _ = srv.Close() })

	const window = 4
	c := dialOpts(t, addr, WithPipeline(window))
	if _, err := c.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}

	var submitted sync.WaitGroup
	futs := make([]*Future, window+1)
	blocked := make(chan int, window+1)
	for i := range futs {
		submitted.Add(1)
		go func(i int) {
			defer submitted.Done()
			f := c.Submit("SELECT id FROM t")
			futs[i] = f
			blocked <- i
		}(i)
	}
	// Exactly `window` submits may return; the last must be blocked on
	// the window until the gate opens.
	for i := 0; i < window; i++ {
		select {
		case <-blocked:
		case <-time.After(5 * time.Second):
			t.Fatal("submit under the window blocked")
		}
	}
	select {
	case <-blocked:
		t.Fatal("submit beyond the window did not block")
	case <-time.After(100 * time.Millisecond):
	}
	once.Do(func() { close(gate) })
	submitted.Wait()
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMaxInFlightIsExact pins WithMaxInFlight as the bound it
// documents: with every worker wedged and a peer that writes 3n query
// frames and never reads, exactly n requests are inside the server — not
// n plus one held by a reader that has already booked it.
func TestMaxInFlightIsExact(t *testing.T) {
	snapshotGoroutines(t)
	guard := core.New(core.Config{Mode: core.ModeTraining})
	gate := make(chan struct{})
	var once sync.Once
	db := engine.New(engine.WithQueryHook(&gatedHook{
		inner: guard, match: "SELECT id FROM t", gate: gate,
	}))
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	const n, workers = 8, 2
	srv := NewServer(db, WithPipelineWorkers(workers), WithMaxInFlight(n))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { once.Do(func() { close(gate) }); _ = srv.Close() })

	conn := rawDial(t, addr)
	if err := WriteJSONFrame(conn, &Request{Hello: &Hello{Version: HelloVersion}}); err != nil {
		t.Fatal(err)
	}
	var ack Response
	if err := ReadJSONFrame(conn, &ack); err != nil || ack.Error != "" {
		t.Fatalf("v2 hello: %v %q", err, ack.Error)
	}
	var frames []byte
	for seq := uint64(1); seq <= 3*n; seq++ {
		if frames, err = appendRequestFrame(frames, seq, &Request{Query: "SELECT id FROM t"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}

	eventually(t, func() bool { return srv.InFlight() >= n }, func() string {
		return fmt.Sprintf("InFlight stuck at %d, want %d", srv.InFlight(), n)
	})
	time.Sleep(100 * time.Millisecond) // let a reader that overshoots do so
	if got := srv.InFlight(); got != n {
		t.Fatalf("InFlight = %d with the peer not reading, want exactly %d", got, n)
	}

	// Unwedged, the session answers every frame and empties.
	once.Do(func() { close(gate) })
	br, buf := bufio.NewReader(conn), getEncBuf()
	defer putEncBuf(buf)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < 3*n; i++ {
		if _, typ, _, err := readBinaryFrame(br, buf); err != nil || typ != frameResult {
			t.Fatalf("response %d: type 0x%02x, err %v", i, typ, err)
		}
	}
	eventually(t, func() bool { return srv.InFlight() == 0 }, func() string {
		return fmt.Sprintf("InFlight = %d after every response was read", srv.InFlight())
	})
}

// TestAnsweredCounterCountsPipelined: wire.queries.answered counts every
// answered request, whichever framing carried it.
func TestAnsweredCounterCountsPipelined(t *testing.T) {
	hub := obs.NewHub()
	addr, _, db := startServerOpts(t, core.Config{Mode: core.ModeTraining}, WithServerObs(hub))
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	answered := hub.Metrics.Counter("wire.queries.answered")
	framesOut := hub.Metrics.Counter("wire.v2.frames.out")

	// A JSON answer is counted just after its write, so the client can
	// be a step ahead of the counter: wait for it rather than race it.
	wantAnswered := func(want int64, when string) {
		t.Helper()
		eventually(t, func() bool { return answered.Value() == want }, func() string {
			return fmt.Sprintf("answered = %d %s, want %d", answered.Value(), when, want)
		})
	}

	c := dialOpts(t, addr, WithPipeline(8))
	wantAnswered(1, "after the hello")
	const n = 40
	futs := make([]*Future, n)
	for i := range futs {
		futs[i] = c.Submit("SELECT id FROM t")
	}
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	wantAnswered(1+n, "after the pipelined requests")
	if got := framesOut.Value(); got != n {
		t.Errorf("wire.v2.frames.out = %d, want %d", got, n)
	}

	plain := dialOpts(t, addr)
	if _, err := plain.Exec("SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	wantAnswered(2+n, "after one more JSON request")
}

// --- interop matrix: {v1,v2 client} × {v1,v2 server} × reconnect -----

// startInteropServer boots a server with one registered domain and an
// optional hello version limit (1 simulates a pre-pipelining build).
func startInteropServer(t *testing.T, limit int) (string, *Server) {
	t.Helper()
	guard := core.New(core.Config{Mode: core.ModeTraining})
	if _, err := guard.RegisterDomain("shop", core.Config{Mode: core.ModeTraining}); err != nil {
		t.Fatal(err)
	}
	db := engine.New(engine.WithQueryHook(guard))
	opts := []ServerOption{WithDomainResolver(func(app string) string {
		if d, ok := guard.Domain(app); ok {
			return d.Name()
		}
		return core.DefaultDomain
	})}
	if limit > 0 {
		opts = append(opts, WithHelloVersionLimit(limit))
	}
	srv := NewServer(db, opts...)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t (id) VALUES (7)"); err != nil {
		t.Fatal(err)
	}
	return addr, srv
}

func TestProtocolInteropMatrix(t *testing.T) {
	cases := []struct {
		name        string
		serverLimit int // 0 = current (v2) server
		clientOpts  []ClientOption
		wantProto   int
		wantDomain  string
	}{
		{"v1client_v1server", 1, []ClientOption{WithHello("shop")}, 1, "shop"},
		{"v1client_v2server", 0, []ClientOption{WithHello("shop")}, 1, "shop"},
		{"v2client_v1server", 1, []ClientOption{WithHello("shop"), WithPipeline(8)}, 1, "shop"},
		{"v2client_v2server", 0, []ClientOption{WithHello("shop"), WithPipeline(8)}, 2, "shop"},
		{"legacy_noHello_v2server", 0, nil, 1, ""},
		// A pipeline handshake with no app still binds (to the default
		// domain) — the handshake is what carries the version.
		{"pipeline_noApp_v2server", 0, []ClientOption{WithPipeline(8)}, 2, "default"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snapshotGoroutines(t)
			addr, _ := startInteropServer(t, tc.serverLimit)
			opts := append([]ClientOption{WithAutoReconnect(5)}, tc.clientOpts...)
			c := dialOpts(t, addr, opts...)
			if got := c.ProtocolVersion(); got != tc.wantProto {
				t.Fatalf("negotiated protocol %d, want %d", got, tc.wantProto)
			}
			if got := c.Domain(); got != tc.wantDomain {
				t.Fatalf("domain %q, want %q", got, tc.wantDomain)
			}
			res, err := c.Exec("SELECT id FROM t")
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.Rows[0][0].I != 7 {
				t.Fatalf("rows = %v", res.Rows)
			}

			// Reconnect leg: cut the connection out from under the client;
			// the next call must redial AND re-negotiate the same protocol
			// version and domain binding.
			c.mu.Lock()
			if c.pipe != nil {
				p := c.pipe
				c.mu.Unlock()
				_ = p.conn.Close()
				// Wait for the poison to detach the pipe.
				deadline := time.Now().Add(5 * time.Second)
				for {
					c.mu.Lock()
					dead := c.pipe == nil
					c.mu.Unlock()
					if dead || time.Now().After(deadline) {
						break
					}
					time.Sleep(5 * time.Millisecond)
				}
			} else {
				_ = c.conn.Close()
				c.mu.Unlock()
			}
			// One call may fail (the poisoned in-flight state); the next
			// must succeed on a fresh, renegotiated session.
			var lastErr error
			for i := 0; i < 3; i++ {
				if _, lastErr = c.Exec("SELECT id FROM t"); lastErr == nil {
					break
				}
			}
			if lastErr != nil {
				t.Fatalf("exec after reconnect: %v", lastErr)
			}
			if got := c.ProtocolVersion(); got != tc.wantProto {
				t.Fatalf("protocol after reconnect %d, want %d (renegotiation lost)", got, tc.wantProto)
			}
			if got := c.Domain(); got != tc.wantDomain {
				t.Fatalf("domain after reconnect %q, want %q", got, tc.wantDomain)
			}
		})
	}
}

// TestPipelinePoisonFailsInFlight: killing the transport mid-window
// fails every in-flight future with a poisoned-connection error and
// never wedges a waiter.
func TestPipelinePoisonFailsInFlight(t *testing.T) {
	snapshotGoroutines(t)
	guard := core.New(core.Config{Mode: core.ModeTraining})
	gate := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(gate) })
	db := engine.New(engine.WithQueryHook(&gatedHook{
		inner: guard, match: "SELECT id FROM t", gate: gate,
	}))
	srv := NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	c := dialOpts(t, addr, WithPipeline(8))
	if _, err := c.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	futs := make([]*Future, 4)
	for i := range futs {
		futs[i] = c.Submit("SELECT id FROM t") // all park in the engine
	}
	c.mu.Lock()
	p := c.pipe
	c.mu.Unlock()
	_ = p.conn.Close() // cut the wire with responses pending
	for i, f := range futs {
		if _, err := f.Wait(); !errors.Is(err, ErrClientClosed) {
			t.Fatalf("future %d after poison: err = %v, want ErrClientClosed", i, err)
		}
	}
	once.Do(func() { close(gate) })
	// Without auto-reconnect the client stays poisoned.
	if _, err := c.Exec("SELECT id FROM t"); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("exec after poison: %v", err)
	}
}

// TestPipelinedDrainAnswersInFlight: graceful shutdown completes the
// queries already inside the server before the session ends.
func TestPipelinedDrainAnswersInFlight(t *testing.T) {
	snapshotGoroutines(t)
	addr, srv, db := startServerOpts(t, core.Config{Mode: core.ModeTraining})
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	c := dialOpts(t, addr, WithPipeline(8))
	for i := 0; i < 4; i++ {
		if _, err := c.Exec("INSERT INTO t (id) VALUES (1)"); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The drained session is gone: the next exec fails (no reconnect).
	if _, err := c.Exec("SELECT id FROM t"); err == nil {
		t.Fatal("exec after drain succeeded")
	}
}

// --- satellite 1: alloc ceilings for whole wire round-trips ----------

// measureRoundTripAllocs runs one warmed-up exec loop and returns the
// process-wide mallocs per operation — client AND server side together,
// which is what the pooling work actually targets.
func measureRoundTripAllocs(t *testing.T, c *Client, loops int) float64 {
	t.Helper()
	query := "SELECT id, name FROM t WHERE id = 1"
	for i := 0; i < 50; i++ { // warm pools, caches, grown buffers
		if _, err := c.Exec(query); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < loops; i++ {
		if _, err := c.Exec(query); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(loops)
}

func TestWireRoundTripAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is noisy under -short")
	}
	if raceflag.Enabled {
		t.Skip("race instrumentation adds allocations")
	}
	// No options: the shipped server, whose deadlines and query timeout
	// sit on the request path.
	addr, _, db := startServerOpts(t, core.Config{Mode: core.ModeTraining})
	if _, err := db.Exec("CREATE TABLE t (id INT, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t (id, name) VALUES (1, 'ann')"); err != nil {
		t.Fatal(err)
	}

	cj := dialOpts(t, addr)
	jsonAllocs := measureRoundTripAllocs(t, cj, 300)

	cb := dialOpts(t, addr, WithPipeline(8))
	binAllocs := measureRoundTripAllocs(t, cb, 300)

	t.Logf("per round-trip mallocs (process-wide): json=%.1f v2=%.1f", jsonAllocs, binAllocs)
	// Absolute ceilings: the values measured against the shipped server
	// (23.1 and 24.1, nearly all of it the engine's execution and the
	// guard's training) plus 10 %. Neither framing is asserted under the
	// other: since jsoncodec.go both encode a result once and decode it
	// once, and what is left differs by the pipe's future, not the codec.
	if jsonAllocs > 25.4 {
		t.Errorf("JSON round trip allocates %.1f/op, ceiling 25.4", jsonAllocs)
	}
	if binAllocs > 26.5 {
		t.Errorf("v2 round trip allocates %.1f/op, ceiling 26.5", binAllocs)
	}
}
