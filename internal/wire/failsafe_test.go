package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/faultinject"
)

// snapshotGoroutines records the current goroutine count for a leak
// check at the end of the test: after servers and clients shut down,
// the count must return to (near) the snapshot. The small slack absorbs
// runtime-internal goroutines; the retry loop absorbs teardown lag.
func snapshotGoroutines(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= base+2 {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Errorf("goroutine leak: %d live, snapshot was %d\n%s",
			runtime.NumGoroutine(), base, buf[:n])
	})
}

// startServerOpts boots a protected server with fail-safe options.
func startServerOpts(t *testing.T, cfg core.Config, opts ...ServerOption) (string, *Server, *engine.DB) {
	t.Helper()
	guard := core.New(cfg)
	db := engine.New(engine.WithQueryHook(guard))
	srv := NewServer(db, opts...)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr, srv, db
}

func TestAcceptLoopRetriesTransientErrors(t *testing.T) {
	snapshotGoroutines(t)
	db := engine.New()
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The first three Accepts fail with a transient error; a fatal-on-
	// any-error accept loop would be dead before the client arrives.
	if err := srv.Serve(faultinject.NewFlakyListener(ln, 3)); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("SELECT id FROM t"); err != nil {
		t.Fatalf("server did not recover from transient accept errors: %v", err)
	}
}

func TestIdleClientDisconnectedByIdleTimeout(t *testing.T) {
	snapshotGoroutines(t)
	addr, _, _ := startServerOpts(t, core.Config{Mode: core.ModeTraining},
		WithIdleTimeout(100*time.Millisecond))

	// Hold a connection open and send nothing.
	conn := rawDial(t, addr)
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	start := time.Now()
	buf := make([]byte, 1)
	_, err := conn.Read(buf)
	if err == nil {
		t.Fatal("server answered an idle connection")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("idle disconnect took %v, want ~100ms", elapsed)
	}
}

func TestSlowLorisHalfFrameDisconnectedByReadTimeout(t *testing.T) {
	snapshotGoroutines(t)
	addr, _, _ := startServerOpts(t, core.Config{Mode: core.ModeTraining},
		WithIdleTimeout(time.Minute), WithReadTimeout(100*time.Millisecond))

	// Start a frame (header promises 1000 bytes) and stall: the read
	// timeout — not the minute-long idle timeout — must cut the session.
	conn := rawDial(t, addr)
	if _, err := conn.Write([]byte{0, 0, 3, 0xE8}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	start := time.Now()
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept a half-frame session alive")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("half-frame disconnect took %v, want ~100ms", elapsed)
	}
}

// TestStalledReaderCutOffByWriteTimeout: a client that sends and never
// reads parks its serving goroutine in conn.Write, where neither the idle
// deadline (read side) nor the query timeout (engine) fires. The write
// deadline closes the connection and frees its -max-conns slot, on both
// framings; NewServer arms it unasked.
func TestStalledReaderCutOffByWriteTimeout(t *testing.T) {
	if got := NewServer(engine.New()).writeTimeout; got != DefaultWriteTimeout {
		t.Errorf("NewServer(db) write timeout = %v, want DefaultWriteTimeout (%v)", got, DefaultWriteTimeout)
	}
	const query = "SELECT id, s FROM t"
	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipelined=%v", pipelined), func(t *testing.T) {
			snapshotGoroutines(t)
			addr, _, db := startServerOpts(t, core.Config{Mode: core.ModeTraining},
				WithMaxConns(1), WithAcceptBacklog(0, 0),
				WithIdleTimeout(200*time.Millisecond), WithWriteTimeout(200*time.Millisecond))
			if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, s TEXT)"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 400; i++ {
				if _, err := db.Exec("INSERT INTO t (s) VALUES ('" + strings.Repeat("x", 200) + "')"); err != nil {
					t.Fatal(err)
				}
			}

			// The stalled client: 84 kB of answer per request, none read.
			// One exchange first — the handshake, or a point read — so it
			// is the admitted session when the second client arrives.
			conn := rawDial(t, addr)
			first := &Request{Query: "SELECT id FROM t WHERE id = 1"}
			if pipelined {
				first = &Request{Hello: &Hello{Version: HelloVersion}}
			}
			if err := WriteJSONFrame(conn, first); err != nil {
				t.Fatal(err)
			}
			var resp Response
			if err := ReadJSONFrame(conn, &resp); err != nil || resp.Error != "" {
				t.Fatalf("first exchange: %v %q", err, resp.Error)
			}
			sent := make(chan struct{})
			go func() {
				defer close(sent)
				var frame []byte
				for seq := uint64(1); seq <= 2000; seq++ {
					var err error
					if pipelined {
						frame, err = appendRequestFrame(frame[:0], seq, &Request{Query: query})
					} else {
						frame, err = jsonFrame(&Request{Query: query})
					}
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := conn.Write(frame); err != nil {
						return // the server hung up
					}
				}
			}()

			// Its slot comes back: a second client is served.
			deadline := time.Now().Add(10 * time.Second)
			for {
				c, err := Dial(addr)
				if err == nil {
					_, err = c.Exec("SELECT id FROM t WHERE id = 1")
					c.Close()
					if err == nil {
						break
					}
				}
				if time.Now().After(deadline) {
					t.Fatalf("slot still held by the stalled reader: %v", err)
				}
				time.Sleep(20 * time.Millisecond)
			}
			// And the stalled connection is closed: what the kernel had
			// buffered drains to EOF or a reset, not to a live session.
			_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
				t.Error("stalled connection still open after the write timeout")
			}
			<-sent
		})
	}
}

func TestQueryTimeoutReturnsErrorWithoutLeak(t *testing.T) {
	snapshotGoroutines(t)
	addr, _, db := startServerOpts(t, core.Config{Mode: core.ModeTraining},
		WithQueryTimeout(50*time.Millisecond))
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)
	if _, err := c.Exec("SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}

	// Stall the execute stage well past the query timeout.
	faultinject.Arm(func(site string) {
		if site == faultinject.SiteEngineExecute {
			time.Sleep(300 * time.Millisecond)
		}
	})
	defer faultinject.Disarm()
	start := time.Now()
	_, err := c.Exec("SELECT id FROM t")
	if err == nil {
		t.Fatal("overrunning query must return an error")
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("timeout response took %v, want ~50ms (watchdog must not wait for the stage)", elapsed)
	}
	faultinject.Disarm()

	// The session survives the timed-out query and keeps serving; the
	// abandoned execution is discarded (the goroutine-leak cleanup
	// asserts it exits).
	if _, err := c.Exec("SELECT id FROM t"); err != nil {
		t.Fatalf("session dead after query timeout: %v", err)
	}
}

func TestAdmissionControlRefusesBeyondMaxConns(t *testing.T) {
	snapshotGoroutines(t)
	addr, srv, db := startServerOpts(t, core.Config{Mode: core.ModeTraining},
		WithMaxConns(2), WithAcceptBacklog(0, 0))
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}

	// Two admitted sessions hold the only slots.
	c1, c2 := dial(t, addr), dial(t, addr)
	if _, err := c1.Exec("SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Exec("SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}

	// A third connection is refused with the clean busy error.
	c3, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if _, err := c3.Exec("SELECT id FROM t"); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("err = %v, want ErrServerBusy", err)
	}
	if srv.Refused() == 0 {
		t.Error("Refused() = 0, want refusals counted")
	}

	// Freeing a slot admits the next connection.
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		c4, err := Dial(addr)
		if err == nil {
			_, err = c4.Exec("SELECT id FROM t")
			c4.Close()
			if err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed after close: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestAdmissionBacklogWaitsForSlot(t *testing.T) {
	snapshotGoroutines(t)
	addr, _, db := startServerOpts(t, core.Config{Mode: core.ModeTraining},
		WithMaxConns(1), WithAcceptBacklog(1, 2*time.Second))
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	c1 := dial(t, addr)
	if _, err := c1.Exec("SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	// The second connection parks in the backlog; releasing the slot
	// admits it within the wait budget.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c2.Exec("SELECT id FROM t")
		done <- err
	}()
	time.Sleep(100 * time.Millisecond) // let it reach the backlog
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("backlogged connection failed: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("backlogged connection never admitted")
	}
}

// TestGracefulShutdownUnderLoad is the drain contract: N concurrent
// clients are mid-traffic when Shutdown runs. Every in-flight query
// completes or fails with a clean transport error — never a hang, never
// a half-frame — and no serving goroutine survives.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	snapshotGoroutines(t)
	guard := core.New(core.Config{Mode: core.ModeTraining})
	db := engine.New(engine.WithQueryHook(guard))
	srv := NewServer(db, WithWriteTimeout(time.Second))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, n INT)"); err != nil {
		t.Fatal(err)
	}

	const clients = 8
	var (
		wg        sync.WaitGroup
		successes atomic.Int64
		badErrors atomic.Int64
		started   sync.WaitGroup
	)
	stop := make(chan struct{})
	started.Add(clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				started.Done()
				return
			}
			defer c.Close()
			first := true
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := c.Exec(fmt.Sprintf("INSERT INTO t (n) VALUES (%d)", n))
				if first {
					started.Done()
					first = false
				}
				if err != nil {
					// After shutdown the only acceptable failure is a
					// clean transport-level error — one that poisoned the
					// client, proving the query died on the wire, not
					// half-processed. A server-reported engine error does
					// not poison, so the follow-up probe distinguishes
					// the two.
					if !errors.Is(err, ErrClientClosed) {
						if _, probe := c.Exec("SELECT 1"); !errors.Is(probe, ErrClientClosed) {
							badErrors.Add(1)
							t.Logf("unclean error: %v (probe: %v)", err, probe)
						}
					}
					return
				}
				successes.Add(1)
			}
		}(i)
	}
	started.Wait() // every client has at least one query through

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	close(stop)
	wg.Wait()

	if badErrors.Load() > 0 {
		t.Errorf("%d clients saw unclean errors during drain", badErrors.Load())
	}
	// Drain semantics: every client-visible success was fully executed.
	if got := db.Stats().Executed; got < successes.Load() {
		t.Errorf("engine executed %d < client successes %d", got, successes.Load())
	}
	// The server refuses new connections after shutdown.
	if c, err := Dial(addr); err == nil {
		if _, err := c.Exec("SELECT 1"); err == nil {
			t.Error("server still serving after Shutdown")
		}
		c.Close()
	}
}

func TestShutdownForceClosesAfterDrainDeadline(t *testing.T) {
	snapshotGoroutines(t)
	addr, srv, db := startServerOpts(t, core.Config{Mode: core.ModeTraining})
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)
	if _, err := c.Exec("SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	// Wedge one query in the execute stage far past the drain deadline.
	release := make(chan struct{})
	faultinject.Arm(func(site string) {
		if site == faultinject.SiteEngineExecute {
			<-release
		}
	})
	defer faultinject.Disarm()
	go func() { _, _ = c.Exec("SELECT id FROM t") }()
	time.Sleep(50 * time.Millisecond) // let the query reach the stall

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := srv.Shutdown(ctx)
	close(release) // un-wedge so the leak check can pass
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown err = %v, want DeadlineExceeded (forced)", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("forced shutdown took %v", elapsed)
	}
}
