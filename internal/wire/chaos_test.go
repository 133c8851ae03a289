package wire

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/septic-db/septic/internal/benchlab"
	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/faultinject"
)

// The chaos suite (run via `make chaos`, always part of `go test`)
// drives the fail-safe serving layer through deliberate faults: torn
// frames, mid-query resets, slow clients, corrupted bytes, and panics
// injected into the protection path. The invariants under every fault:
// the server stays up, unrelated sessions are unaffected, goroutines
// drain, and with the default fail-closed policy no query is admitted
// while the protection path is faulted.

// chaosServer boots a hardened server the way a production septicd
// would run: deadlines, query timeout, admission gate.
func chaosServer(t *testing.T, cfg core.Config) (string, *Server, *core.Septic, *engine.DB) {
	t.Helper()
	guard := core.New(cfg)
	db := engine.New(engine.WithQueryHook(guard))
	srv := NewServer(db,
		WithIdleTimeout(500*time.Millisecond),
		WithWriteTimeout(time.Second),
		WithQueryTimeout(time.Second),
		WithMaxConns(64),
	)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr, srv, guard, db
}

func TestChaosTornFramesDoNotWedgeServer(t *testing.T) {
	snapshotGoroutines(t)
	addr, _, _, db := chaosServer(t, core.Config{Mode: core.ModeTraining})
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}

	// A volley of clients that tear their request frame at deterministic
	// offsets and then hold the connection open (slow-loris): the idle
	// deadline, which runs until a frame is complete, must reclaim each
	// session.
	for i := 0; i < 8; i++ {
		c, err := Dial(addr, WithDialFunc(faultinject.Dialer(faultinject.Plan{
			Seed:        uint64(i),
			TearWriteAt: int64(5 + i*3),
		})))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Exec("SELECT id FROM t"); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("torn client %d: err = %v", i, err)
		}
	}
	// A healthy session is unaffected.
	c := dial(t, addr)
	if _, err := c.Exec("SELECT id FROM t"); err != nil {
		t.Fatalf("healthy session after torn frames: %v", err)
	}
}

func TestChaosMidQueryResets(t *testing.T) {
	snapshotGoroutines(t)
	addr, _, _, db := chaosServer(t, core.Config{Mode: core.ModeTraining})
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	// Clients that RST at increasing byte offsets — some die inside the
	// request, some while the response is in flight.
	for i := 0; i < 10; i++ {
		c, err := Dial(addr, WithDialFunc(faultinject.Dialer(faultinject.Plan{
			Seed:         uint64(i),
			ResetWriteAt: int64(8 + i*7),
		})))
		if err != nil {
			t.Fatal(err)
		}
		_, execErr := c.Exec("SELECT id FROM t")
		_, execErr2 := c.Exec("SELECT id FROM t")
		_ = execErr
		_ = execErr2 // some offsets let the first query through; the reset lands later
		c.Close()
	}
	c := dial(t, addr)
	if _, err := c.Exec("SELECT id FROM t"); err != nil {
		t.Fatalf("healthy session after resets: %v", err)
	}
}

func TestChaosCorruptedFramesDropSessionOnly(t *testing.T) {
	snapshotGoroutines(t)
	addr, _, _, db := chaosServer(t, core.Config{Mode: core.ModeTraining})
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte of the length header: the server must reject the
	// implied garbage frame and drop only that session.
	conn := rawDial(t, addr)
	fc := faultinject.WrapConn(conn, faultinject.Plan{CorruptWriteAt: 1, CorruptXOR: 0x40})
	payload := []byte(`{"query":"SELECT id FROM t"}`)
	var header [4]byte
	binary.BigEndian.PutUint32(header[:], uint32(len(payload)))
	_, _ = fc.Write(header[:])
	_, _ = fc.Write(payload)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Error("server answered a corrupted frame")
	}
	c := dial(t, addr)
	if _, err := c.Exec("SELECT id FROM t"); err != nil {
		t.Fatalf("healthy session after corruption: %v", err)
	}
}

func TestChaosPanickingDetectorFailClosed(t *testing.T) {
	snapshotGoroutines(t)
	addr, srv, guard, db := chaosServer(t, core.Config{Mode: core.ModeTraining})
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("SELECT id FROM t WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	guard.SetConfig(core.Config{Mode: core.ModePrevention, DetectSQLI: true})

	c := dial(t, addr)
	if _, err := c.Exec("SELECT id FROM t WHERE id = 1"); err != nil {
		t.Fatal(err)
	}

	// Fault the detector. Fail-closed: every query that reaches
	// detection is refused while the fault lasts — a broken guard blocks,
	// never silently admits.
	faultinject.Arm(func(site string) {
		if site == faultinject.SiteCoreDetect {
			panic("chaos: detector down")
		}
	})
	defer faultinject.Disarm()
	// The cached benign verdict predates the fault; invalidate it the
	// way real churn does (config change bumps the generation).
	guard.SetConfig(core.Config{Mode: core.ModePrevention, DetectSQLI: true})

	for i := 0; i < 3; i++ {
		if _, err := c.Exec("SELECT id FROM t WHERE id = 1"); !errors.Is(err, engine.ErrQueryBlocked) {
			t.Fatalf("faulted guard admitted query (err = %v)", err)
		}
	}
	if guard.Stats().GuardFaults < 3 {
		t.Errorf("GuardFaults = %d, want ≥3", guard.Stats().GuardFaults)
	}
	if srv.Panics() != 0 {
		t.Errorf("server-level panics = %d: the guard must contain its own faults", srv.Panics())
	}

	// Fault clears; service resumes on the same connection.
	faultinject.Disarm()
	if _, err := c.Exec("SELECT id FROM t WHERE id = 1"); err != nil {
		t.Fatalf("after fault cleared: %v", err)
	}
}

func TestChaosPanicInEngineContainedByServer(t *testing.T) {
	snapshotGoroutines(t)
	addr, srv, _, db := chaosServer(t, core.Config{Mode: core.ModeTraining})
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	// A panic below the guard's containment (the executor itself) must be
	// caught by the server's per-query recover: structured error, session
	// and server both live.
	faultinject.Arm(func(site string) {
		if site == faultinject.SiteEngineExecute {
			panic("chaos: executor fault")
		}
	})
	defer faultinject.Disarm()
	c := dial(t, addr)
	_, err := c.Exec("SELECT id FROM t")
	if err == nil {
		t.Fatal("want structured error from contained panic")
	}
	if errors.Is(err, ErrClientClosed) {
		t.Fatalf("session dropped instead of structured error: %v", err)
	}
	faultinject.Disarm()
	if srv.Panics() != 1 {
		t.Errorf("Panics() = %d, want 1", srv.Panics())
	}
	if _, err := c.Exec("SELECT id FROM t"); err != nil {
		t.Fatalf("session dead after contained panic: %v", err)
	}
}

// TestChaosBenchlabReplayUnderFaults replays a real benchlab workload
// (the paper's Address Book trace) through the wire protocol while a
// background storm of faulty clients tears frames, resets connections
// and trickles bytes. The protected workload must complete untouched.
func TestChaosBenchlabReplayUnderFaults(t *testing.T) {
	snapshotGoroutines(t)
	spec := benchlab.PaperSpecs()[0] // Address Book
	addr, srv, guard, db := chaosServer(t, core.Config{Mode: core.ModeTraining})

	for _, q := range spec.Schema {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("schema: %v", err)
		}
	}
	// The application runs behind the wire protocol: its executor is a
	// wire client, exactly like the demo deployment.
	appClient := dial(t, addr)
	app := spec.Build(appClient)
	for _, req := range spec.Training {
		if resp := app.Serve(req.Clone()); resp.Status != 200 {
			t.Fatalf("training %s: %v", req, resp.Err)
		}
	}
	guard.SetConfig(core.Config{
		Mode: core.ModePrevention, DetectSQLI: true, DetectStored: true, IncrementalLearning: true,
	})

	// Fault storm: greedy clients with deterministic per-client fault
	// plans hammer the server for the duration of the replay.
	stop := make(chan struct{})
	var storm sync.WaitGroup
	for i := 0; i < 6; i++ {
		storm.Add(1)
		go func(seed int) {
			defer storm.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				plan := faultinject.Plan{Seed: uint64(seed*1000 + n)}
				switch (seed + n) % 3 {
				case 0:
					plan.TearWriteAt = int64(4 + n%24)
				case 1:
					plan.ResetWriteAt = int64(6 + n%40)
				case 2:
					plan.WriteLatency = 2 * time.Millisecond
					plan.ResetReadAt = int64(2 + n%8)
				}
				c, err := Dial(addr, WithDialFunc(faultinject.Dialer(plan)))
				if err != nil {
					continue
				}
				_, _ = c.Exec("/* ab:list */ SELECT id, name, phone FROM contacts ORDER BY name")
				c.Close()
			}
		}(i)
	}

	// Replay the recorded workload through the protected path, three
	// loops, while the storm rages.
	var replayErrs atomic.Int64
	for loop := 0; loop < 3; loop++ {
		for _, req := range spec.Workload {
			resp := app.Serve(req.Clone())
			if resp.Status != 200 {
				replayErrs.Add(1)
				t.Logf("replay %s: status %d err %v", req, resp.Status, resp.Err)
			}
		}
	}
	close(stop)
	storm.Wait()

	if n := replayErrs.Load(); n > 0 {
		t.Errorf("%d workload requests failed under fault storm", n)
	}
	if srv.Panics() != 0 {
		t.Errorf("server panics under storm: %d", srv.Panics())
	}
	if blocked := guard.Stats().AttacksBlocked; blocked != 0 {
		t.Errorf("benign workload blocked %d times under storm", blocked)
	}
	// The server still serves a fresh session.
	c := dial(t, addr)
	if _, err := c.Exec("/* ab:list */ SELECT id, name, phone FROM contacts ORDER BY name"); err != nil {
		t.Fatalf("server unhealthy after storm: %v", err)
	}
}

// TestChaosPipelinedTornFramesMidWindow tears the transport under v2
// clients with a full window of futures in flight. Every future must
// complete (result or poisoned-connection error — never a hang), the
// pipe's goroutines must drain, and the server must stay healthy.
func TestChaosPipelinedTornFramesMidWindow(t *testing.T) {
	snapshotGoroutines(t)
	addr, srv, _, db := chaosServer(t, core.Config{Mode: core.ModeTraining})
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t (id) VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		// Tear at offsets past the JSON hello exchange so the session
		// upgrades to v2 first, then dies mid-window.
		c, err := Dial(addr,
			WithPipeline(8),
			WithDialFunc(faultinject.Dialer(faultinject.Plan{
				Seed:        uint64(i),
				TearWriteAt: int64(80 + i*17),
			})))
		if err != nil {
			continue // hello itself hit the tear: also a valid outcome
		}
		if v := c.ProtocolVersion(); v != 2 {
			t.Fatalf("client %d negotiated v%d, want v2", i, v)
		}
		futs := make([]*Future, 8)
		for j := range futs {
			futs[j] = c.Submit("SELECT id FROM t")
		}
		done := make(chan struct{})
		go func() {
			for _, f := range futs {
				_, _ = f.Wait() // error or result — only hanging is a failure
			}
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("client %d: futures wedged after torn frame mid-window", i)
		}
		c.Close()
	}
	if srv.Panics() != 0 {
		t.Errorf("server panics: %d", srv.Panics())
	}
	c := dial(t, addr)
	if _, err := c.Exec("SELECT id FROM t"); err != nil {
		t.Fatalf("healthy session after torn pipelined windows: %v", err)
	}
}

// TestChaosPipelinedResetWithResponsesInFlight resets the read side so
// responses die on the wire while the window is full, including under
// auto-reconnect: the client must re-negotiate v2 on the fresh
// connection and keep serving.
func TestChaosPipelinedResetWithResponsesInFlight(t *testing.T) {
	snapshotGoroutines(t)
	addr, srv, _, db := chaosServer(t, core.Config{Mode: core.ModeTraining})
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t (id) VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	var dials atomic.Int64
	base := faultinject.Dialer(faultinject.Plan{})
	c, err := Dial(addr,
		WithPipeline(8),
		WithAutoReconnect(5),
		WithDialFunc(func(a string) (net.Conn, error) {
			// First connection dies after ~600 read bytes (hello ack plus a
			// few responses); reconnects get a clean transport.
			if dials.Add(1) == 1 {
				return faultinject.Dialer(faultinject.Plan{ResetReadAt: 600})(a)
			}
			return base(a)
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Hammer until the reset lands, then through the reconnect.
	var failures int
	for i := 0; i < 400; i++ {
		futs := make([]*Future, 8)
		for j := range futs {
			futs[j] = c.Submit("SELECT id FROM t")
		}
		for _, f := range futs {
			if _, err := f.Wait(); err != nil {
				failures++
			}
		}
	}
	if dials.Load() < 2 {
		t.Fatalf("reset never landed (dials = %d)", dials.Load())
	}
	if failures == 0 {
		t.Fatal("reset killed no in-flight responses — fault plan miscalibrated")
	}
	if v := c.ProtocolVersion(); v != 2 {
		t.Fatalf("client did not re-negotiate v2 after reconnect (v%d)", v)
	}
	if _, err := c.Exec("SELECT id FROM t"); err != nil {
		t.Fatalf("exec after reconnect: %v", err)
	}
	if srv.Panics() != 0 {
		t.Errorf("server panics: %d", srv.Panics())
	}
}

// TestChaosPipelinedBenchlabReplayUnderFaults is the v2 twin of the
// Address Book storm test: the application's executor is a PIPELINED
// wire client with auto-reconnect while faulty v2 clients tear frames
// mid-window and reset with responses in flight. The benign workload
// must complete, nothing may leak, and the guard must not block it.
func TestChaosPipelinedBenchlabReplayUnderFaults(t *testing.T) {
	snapshotGoroutines(t)
	spec := benchlab.PaperSpecs()[0] // Address Book
	addr, srv, guard, db := chaosServer(t, core.Config{Mode: core.ModeTraining})

	for _, q := range spec.Schema {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("schema: %v", err)
		}
	}
	appClient, err := Dial(addr, WithPipeline(16), WithAutoReconnect(5))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = appClient.Close() })
	if v := appClient.ProtocolVersion(); v != 2 {
		t.Fatalf("app client negotiated v%d, want v2", v)
	}
	app := spec.Build(appClient)
	for _, req := range spec.Training {
		if resp := app.Serve(req.Clone()); resp.Status != 200 {
			t.Fatalf("training %s: %v", req, resp.Err)
		}
	}
	guard.SetConfig(core.Config{
		Mode: core.ModePrevention, DetectSQLI: true, DetectStored: true, IncrementalLearning: true,
	})

	// Fault storm of pipelined clients: each dials v2, fills a window,
	// and dies by tear or reset at a deterministic offset.
	stop := make(chan struct{})
	var storm sync.WaitGroup
	for i := 0; i < 4; i++ {
		storm.Add(1)
		go func(seed int) {
			defer storm.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				plan := faultinject.Plan{Seed: uint64(seed*1000 + n)}
				if (seed+n)%2 == 0 {
					plan.TearWriteAt = int64(90 + n%60) // mid-window, past the hello
				} else {
					plan.ResetReadAt = int64(40 + n%80) // responses die in flight
				}
				c, err := Dial(addr, WithPipeline(6), WithDialFunc(faultinject.Dialer(plan)))
				if err != nil {
					continue
				}
				futs := make([]*Future, 6)
				for j := range futs {
					futs[j] = c.Submit("/* ab:list */ SELECT id, name, phone FROM contacts ORDER BY name")
				}
				for _, f := range futs {
					_, _ = f.Wait()
				}
				c.Close()
			}
		}(i)
	}

	var replayErrs atomic.Int64
	for loop := 0; loop < 3; loop++ {
		for _, req := range spec.Workload {
			resp := app.Serve(req.Clone())
			if resp.Status != 200 {
				replayErrs.Add(1)
				t.Logf("replay %s: status %d err %v", req, resp.Status, resp.Err)
			}
		}
	}
	close(stop)
	storm.Wait()

	if n := replayErrs.Load(); n > 0 {
		t.Errorf("%d workload requests failed under pipelined fault storm", n)
	}
	if srv.Panics() != 0 {
		t.Errorf("server panics under storm: %d", srv.Panics())
	}
	if blocked := guard.Stats().AttacksBlocked; blocked != 0 {
		t.Errorf("benign workload blocked %d times under storm", blocked)
	}
	c := dial(t, addr)
	if _, err := c.Exec("/* ab:list */ SELECT id, name, phone FROM contacts ORDER BY name"); err != nil {
		t.Fatalf("server unhealthy after storm: %v", err)
	}
}
