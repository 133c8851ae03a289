package wire

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/faultinject"
	"github.com/septic-db/septic/internal/raceflag"
)

// watchdogServer boots a server with the given query timeout whose hook
// parks every "SELECT id FROM t" until release is called (cleanup calls
// it too): the lever for overrunning chosen queries while any other text
// runs normally — which a process-wide faultinject site could not spare.
func watchdogServer(t *testing.T, timeout time.Duration) (addr string, srv *Server, release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	db := engine.New(engine.WithQueryHook(&gatedHook{
		inner: core.New(core.Config{Mode: core.ModeTraining}),
		match: "SELECT id FROM t", gate: gate,
	}))
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	srv = NewServer(db, WithQueryTimeout(timeout))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { release(); _ = srv.Close() })
	return addr, srv, release
}

func isQueryTimeout(err error) bool {
	return err != nil && strings.Contains(err.Error(), "query timeout after")
}

// TestChaosWatchdogPipelined: a full window of overrunning queries on a
// pipelined session. Every one is answered with the timeout at its
// deadline — the second half of the window by the replacement workers
// the first half's watchdogs started — other sessions never notice, the
// session serves on, and every window token comes back exactly once.
func TestChaosWatchdogPipelined(t *testing.T) {
	snapshotGoroutines(t)
	addr, srv, release := watchdogServer(t, 50*time.Millisecond)
	const window = 8
	c := dialOpts(t, addr, WithPipeline(window))
	other := dialOpts(t, addr, WithPipeline(window))

	start := time.Now()
	futs := make([]*Future, window)
	for i := range futs {
		futs[i] = c.Submit("SELECT id FROM t")
	}
	// Eight strays are parked in the hook now or soon; a session that does
	// not run the parked text is served as if nothing happened.
	if _, err := other.Exec("SELECT id FROM t WHERE id = 1"); err != nil {
		t.Fatalf("second session while the first overruns: %v", err)
	}
	for i, f := range futs {
		if _, err := f.Wait(); !isQueryTimeout(err) {
			t.Fatalf("future %d: err = %v, want the query timeout", i, err)
		}
	}
	// Four workers, 50 ms each way: the window is answered by ~100 ms.
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("window of timeouts took %v, want < 250ms (the watchdog must not wait for the stage)", elapsed)
	}
	if _, err := other.Exec("SELECT id FROM t WHERE id = 1"); err != nil {
		t.Fatalf("second session after the timeouts: %v", err)
	}

	// The strays are still parked. Let them go — each aborts at its next
	// stage boundary and is discarded — and the session serves on.
	release()
	for i := 0; i < 20; i++ {
		if _, err := c.Exec("SELECT id FROM t"); err != nil {
			t.Fatalf("request %d after the timeouts: %v", i, err)
		}
	}
	eventually(t, func() bool { return srv.InFlight() == 0 }, func() string {
		return fmt.Sprintf("InFlight = %d after every answer, want 0", srv.InFlight())
	})
}

// TestChaosWatchdogHookNeverReturns: strays that never come back hold up
// neither their session's teardown nor — past the drain deadline — the
// server's shutdown.
func TestChaosWatchdogHookNeverReturns(t *testing.T) {
	snapshotGoroutines(t)
	addr, srv, _ := watchdogServer(t, 50*time.Millisecond)
	for _, opts := range [][]ClientOption{nil, {WithPipeline(4)}} {
		c := dialOpts(t, addr, opts...)
		if _, err := c.Exec("SELECT id FROM t"); !isQueryTimeout(err) {
			t.Fatalf("v%d: err = %v, want the query timeout", c.ProtocolVersion(), err)
		}
		// Both sessions outlive their stray and answer other texts.
		if _, err := c.Exec("SELECT id FROM t WHERE id = 1"); err != nil {
			t.Fatalf("v%d session after its timeout: %v", c.ProtocolVersion(), err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := srv.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want DeadlineExceeded: two strays are still inside the engine", err)
	}
	// The drain deadline plus Shutdown's one-second grace for strays.
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Fatalf("Shutdown with parked strays took %v", elapsed)
	}
}

// TestChaosWatchdogStaleCallback races the timer against the engine on
// purpose: the stage takes about as long as the timeout, so callbacks
// fire while their request is being taken back, Stop comes too late, and
// the next request is armed with one still in flight. Whatever the order,
// every request gets exactly one answer — a second one would reach the
// client as an unknown sequence number and poison the connection, a
// missing one would hang its future — and the sessions stay usable.
func TestChaosWatchdogStaleCallback(t *testing.T) {
	snapshotGoroutines(t)
	const timeout = 2 * time.Millisecond
	addr, srv, db := startServerOpts(t, core.Config{Mode: core.ModeTraining}, WithQueryTimeout(timeout))
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	piped, plain := dialOpts(t, addr, WithPipeline(8)), dialOpts(t, addr)

	var hits sync.Mutex
	n := 0
	faultinject.Arm(func(site string) {
		if site != faultinject.SiteEngineExecute {
			return
		}
		hits.Lock()
		n++
		d := timeout * time.Duration(n%5) / 2 // 0, ½, 1, 1½, 2 × the timeout
		hits.Unlock()
		time.Sleep(d)
	})
	defer faultinject.Disarm()

	check := func(who string, i int, err error) (timedOut bool) {
		if err != nil && !isQueryTimeout(err) {
			t.Fatalf("%s request %d: %v", who, i, err)
		}
		return err != nil
	}
	var timeouts int
	const rounds, depth = 40, 8
	for r := 0; r < rounds; r++ {
		var futs [depth]*Future
		for i := range futs {
			futs[i] = piped.Submit("SELECT id FROM t")
		}
		_, err := plain.Exec("SELECT id FROM t")
		if check("synchronous", r, err) {
			timeouts++
		}
		for i, f := range futs {
			_, err := f.Wait()
			if check("pipelined", r*depth+i, err) {
				timeouts++
			}
		}
	}
	faultinject.Disarm()
	if total := rounds * (depth + 1); timeouts == 0 || timeouts == total {
		t.Errorf("%d of %d requests timed out: the race was not exercised", timeouts, total)
	}
	for _, c := range []*Client{piped, plain} {
		if _, err := c.Exec("SELECT id FROM t"); err != nil {
			t.Fatalf("v%d session after the race: %v", c.ProtocolVersion(), err)
		}
	}
	eventually(t, func() bool { return srv.InFlight() == 0 }, func() string {
		return fmt.Sprintf("InFlight = %d after every answer, want 0", srv.InFlight())
	})
}

// TestWatchdogArmedAllocatesNothing: arming the query timeout must not
// cost a round trip a single allocation. (It cost eight — a context, a
// timer, a channel, a goroutine — for as long as the alloc ceilings were
// measured on servers without a timeout.)
func TestWatchdogArmedAllocatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is noisy under -short")
	}
	if raceflag.Enabled {
		t.Skip("race instrumentation adds allocations")
	}
	measure := func(opts ...ServerOption) float64 {
		addr, _, db := startServerOpts(t, core.Config{Mode: core.ModeTraining}, opts...)
		if _, err := db.Exec("CREATE TABLE t (id INT, name TEXT)"); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec("INSERT INTO t (id, name) VALUES (1, 'ann')"); err != nil {
			t.Fatal(err)
		}
		return measureRoundTripAllocs(t, dialOpts(t, addr, WithPipeline(8)), 500)
	}
	unarmed := measure(WithQueryTimeout(0))
	armed := measure()
	t.Logf("v2 round-trip mallocs: unarmed=%.2f armed=%.2f", unarmed, armed)
	// Process-wide counts carry a few stray runtime allocations per
	// hundred round trips; a per-request cost would show as ≥ 1.
	if armed > unarmed+0.5 {
		t.Errorf("query timeout armed: %.2f allocs per round trip, %.2f without", armed, unarmed)
	}
}

// TestReplyEncodeAllocatesNothing: between the engine's result and the
// frame bytes the wire side allocates nothing — no Response, no
// WireValue rows — for a result or for a failure.
func TestReplyEncodeAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation adds allocations")
	}
	buf := getEncBuf()
	defer putEncBuf(buf)
	for name, ans := range map[string]*reply{
		"1-row result": {res: &engine.Result{
			Columns: []string{"id", "name"},
			Rows:    [][]engine.Value{{engine.Int(1), engine.Str("ann")}},
		}},
		"blocked": {err: "query blocked", blocked: true},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			frame, err := appendReplyFrame(buf.b[:0], 7, ans)
			if err != nil {
				t.Fatal(err)
			}
			buf.b = frame
		})
		if allocs != 0 {
			t.Errorf("%s: encoding allocates %.1f/op, want 0", name, allocs)
		}
	}
}
