package wire

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/faultinject"
	"github.com/septic-db/septic/internal/overload"
)

// overloadServer boots a server the way septicd wires overload control:
// an admission controller (when adm != nil) and per-domain controls
// resolved through the guard's registry.
func overloadServer(t *testing.T, adm *overload.Admission, extra ...ServerOption) (string, *Server, *core.Septic, *engine.DB) {
	t.Helper()
	guard := core.New(core.Config{Mode: core.ModeTraining})
	db := engine.New(engine.WithQueryHook(guard))
	opts := []ServerOption{
		WithQueryTimeout(5 * time.Second),
		WithOverloadControls(func(app string) *overload.Controls {
			if d, ok := guard.Domain(app); ok {
				return d.Overload()
			}
			if d, ok := guard.Domain(core.DefaultDomain); ok {
				return d.Overload()
			}
			return nil
		}),
	}
	if adm != nil {
		opts = append(opts, WithAdmission(adm))
	}
	opts = append(opts, extra...)
	srv := NewServer(db, opts...)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr, srv, guard, db
}

// slowExecute arms a faultinject hook that sleeps in the engine's
// executor, simulating a slow storage layer. Disarmed via t.Cleanup and
// togglable so tests can end the storm deterministically.
func slowExecute(t *testing.T, d time.Duration) *atomic.Bool {
	t.Helper()
	var on atomic.Bool
	on.Store(true)
	faultinject.Arm(func(site string) {
		if site == faultinject.SiteEngineExecute && on.Load() {
			time.Sleep(d)
		}
	})
	t.Cleanup(faultinject.Disarm)
	return &on
}

// TestShedResponseTyped drives a session into admission shedding, over
// both framings, and asserts the rejection is typed — an OverloadError
// with a retry hint, failing only its own request — never a reset: the
// request holding the single execution slot completes, and the session
// that was shed keeps serving. A synchronous session cannot hold the
// slot and be shed at once, so there a second session holds it; a
// pipelined session holds it with the first request of its own window.
func TestShedResponseTyped(t *testing.T) {
	for _, tc := range []struct {
		name      string
		opts      []ClientOption
		proto     int
		holdsSlot bool // the shed session itself holds the execution slot
	}{
		{"sync", nil, 1, false},
		{"pipelined", []ClientOption{WithPipeline(8)}, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snapshotGoroutines(t)
			adm := overload.NewAdmission(overload.AdmissionOptions{
				Target:   time.Millisecond,
				Capacity: 1,
			})
			addr, srv, _, db := overloadServer(t, adm)
			if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
				t.Fatal(err)
			}
			slowExecute(t, 100*time.Millisecond)

			c := dialOpts(t, addr, tc.opts...)
			if v := c.ProtocolVersion(); v != tc.proto {
				t.Fatalf("negotiated v%d, want v%d", v, tc.proto)
			}
			// Prime the service-time estimate: one completed slow query.
			if _, err := c.Exec("SELECT id FROM t"); err != nil {
				t.Fatalf("priming query: %v", err)
			}

			// Occupy the single execution slot, then arrive while it is
			// held: estimated delay (1 × ~100ms) far exceeds the 1ms target.
			hold := c
			if !tc.holdsSlot {
				hold = dial(t, addr)
			}
			held := make(chan error, 1)
			go func() {
				_, err := hold.Exec("SELECT id FROM t")
				held <- err
			}()
			time.Sleep(30 * time.Millisecond) // let the holder enter execution

			futs := make([]*Future, 7)
			for i := range futs {
				futs[i] = c.Submit("SELECT id FROM t")
			}
			var shed int
			for i, f := range futs {
				_, err := f.Wait()
				var oe *OverloadError
				switch {
				case err == nil:
				case !errors.Is(err, ErrOverloaded) || !errors.As(err, &oe):
					t.Errorf("request %d: untyped failure %v", i, err)
				case oe.RetryAfter <= 0:
					t.Errorf("request %d: shed without retry hint: %+v", i, oe)
				default:
					shed++
				}
			}
			if shed == 0 {
				t.Fatal("nothing was shed behind a held slot")
			}
			if err := <-held; err != nil {
				t.Fatalf("the admitted request failed amid the sheds: %v", err)
			}
			// The session survived the sheds: the same connection serves again.
			if _, err := c.Exec("SELECT id FROM t"); err != nil {
				t.Fatalf("session dead after shed: %v", err)
			}
			if srv.Sheds() == 0 {
				t.Error("server shed counter not incremented")
			}
		})
	}
}

// TestShedRetryClientRecovers exercises the client half of the
// contract: WithShedRetry re-submits after the hint (jittered), so a
// transient overload resolves into a success, not an error.
func TestShedRetryClientRecovers(t *testing.T) {
	snapshotGoroutines(t)
	adm := overload.NewAdmission(overload.AdmissionOptions{
		Target:   time.Millisecond,
		Interval: 20 * time.Millisecond,
		Capacity: 1,
	})
	addr, srv, _, db := overloadServer(t, adm)
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	slow := slowExecute(t, 80*time.Millisecond)

	prime := dial(t, addr)
	if _, err := prime.Exec("SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}
	hold := dial(t, addr)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = hold.Exec("SELECT id FROM t")
	}()
	time.Sleep(20 * time.Millisecond)

	c := dialOpts(t, addr, WithShedRetry(10))
	if _, err := c.Exec("SELECT id FROM t"); err != nil {
		t.Fatalf("shed retry did not recover: %v", err)
	}
	<-done
	if srv.Sheds() == 0 {
		t.Error("overload never landed — retry path untested")
	}
	slow.Store(false)
}

// TestBusyRefusalCarriesRetryAfter asserts the connection-admission
// refusal (max-conns exhausted) ships a retry-after hint and that the
// reconnecting client consumes it as backoff before redialing.
func TestBusyRefusalCarriesRetryAfter(t *testing.T) {
	snapshotGoroutines(t)
	addr, srv, _, db := overloadServer(t, nil,
		WithMaxConns(1), WithAcceptBacklog(0, 40*time.Millisecond))
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	hold := dial(t, addr) // occupies the only slot
	if _, err := hold.Exec("SELECT id FROM t"); err != nil {
		t.Fatal(err)
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.Exec("SELECT id FROM t"); !errors.Is(err, ErrServerBusy) {
		t.Fatalf("want ErrServerBusy, got %v", err)
	}
	if srv.Refused() == 0 {
		t.Fatal("refusal never happened")
	}

	// Free the slot, then let the poisoned client auto-reconnect: the
	// redial must wait out (a jittered share of) the 40ms hint first.
	hold.Close()
	c2, err := Dial(addr, WithAutoReconnect(3))
	if err != nil {
		t.Fatal(err)
	}
	_ = c2.Close()
	_ = start
}

// TestChaosOverloadQuotaIsolation floods one domain past its quota
// while a neighbor runs a steady workload: the neighbor must see zero
// errors, and the flood must be rejected typed, with the rejection
// booked against the flooded domain alone.
func TestChaosOverloadQuotaIsolation(t *testing.T) {
	snapshotGoroutines(t)
	addr, srv, guard, db := overloadServer(t, nil)
	noisy, err := guard.RegisterDomain("noisy", core.Config{Mode: core.ModeTraining})
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := guard.RegisterDomain("quiet", core.Config{Mode: core.ModeTraining})
	if err != nil {
		t.Fatal(err)
	}
	noisy.SetOverload(overload.NewControls(
		overload.NewQuota(overload.QuotaSpec{Rate: 50, Burst: 5}), nil))
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}

	var (
		wg          sync.WaitGroup
		floodShed   atomic.Int64
		floodOK     atomic.Int64
		floodOther  atomic.Int64
		quietErrors atomic.Int64
	)
	// Flood: 4 greedy clients in the quota-limited domain.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := dialOpts(t, addr, WithHello("noisy"))
			for n := 0; n < 100; n++ {
				_, err := c.Exec("SELECT id FROM t")
				switch {
				case err == nil:
					floodOK.Add(1)
				case errors.Is(err, ErrOverloaded):
					floodShed.Add(1)
				default:
					floodOther.Add(1)
				}
			}
		}()
	}
	// Neighbor: steady, unlimited domain.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := dialOpts(t, addr, WithHello("quiet"))
			for n := 0; n < 100; n++ {
				if _, err := c.Exec("SELECT id FROM t"); err != nil {
					quietErrors.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	if n := quietErrors.Load(); n != 0 {
		t.Errorf("quiet neighbor saw %d errors during the flood", n)
	}
	if floodShed.Load() == 0 {
		t.Fatal("quota never rejected the flood")
	}
	if n := floodOther.Load(); n != 0 {
		t.Errorf("%d flood requests failed untyped (want shed or success)", n)
	}
	if got := noisy.Stats().QuotaRejected; got != floodShed.Load() {
		t.Errorf("noisy domain QuotaRejected = %d, want %d", got, floodShed.Load())
	}
	if got := quiet.Stats().QuotaRejected; got != 0 {
		t.Errorf("quiet domain QuotaRejected = %d, want 0", got)
	}
	if srv.Sheds() != floodShed.Load() {
		t.Errorf("server Sheds() = %d, want %d", srv.Sheds(), floodShed.Load())
	}
	if srv.Panics() != 0 {
		t.Errorf("panics: %d", srv.Panics())
	}
}

// TestChaosOverloadLatencyStorm injects a latency storm into the
// executor at 4× the gate's capacity: every outcome must be a success
// or a typed shed (never a reset), the server must not panic, and when
// the storm lifts the admission controller must recover to admitting.
func TestChaosOverloadLatencyStorm(t *testing.T) {
	snapshotGoroutines(t)
	adm := overload.NewAdmission(overload.AdmissionOptions{
		Target:   2 * time.Millisecond,
		Interval: 20 * time.Millisecond,
		Capacity: 2,
	})
	addr, srv, _, db := overloadServer(t, adm)
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	slow := slowExecute(t, 20*time.Millisecond)

	var ok, shed, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			c := dial(t, addr)
			for n := 0; n < 40; n++ {
				_, err := c.Exec(fmt.Sprintf("SELECT id FROM t -- storm %d", seed))
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrOverloaded):
					shed.Add(1)
				default:
					other.Add(1)
					t.Logf("storm %d/%d: untyped error %v", seed, n, err)
				}
			}
		}(i)
	}
	wg.Wait()

	if other.Load() != 0 {
		t.Errorf("%d untyped failures under latency storm (want only success/shed)", other.Load())
	}
	if ok.Load() == 0 {
		t.Error("storm starved every request — admission shed everything")
	}
	if shed.Load() == 0 {
		t.Error("4× overload shed nothing — admission ineffective")
	}
	if srv.Panics() != 0 {
		t.Errorf("panics: %d", srv.Panics())
	}

	// Storm lifts: the controller must drain and admit again.
	slow.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	c := dial(t, addr)
	for {
		if _, err := c.Exec("SELECT id FROM t"); err == nil && !adm.Shedding() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission did not recover after the storm (shedding=%v depth=%d)",
				adm.Shedding(), adm.Depth())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if adm.Depth() != 0 {
		t.Errorf("queue depth %d after drain, want 0", adm.Depth())
	}
}

// TestOverloadErrorContract pins the typed-shed error surface clients
// program against: message, ErrOverloaded unwrap, and the hint fields.
func TestOverloadErrorContract(t *testing.T) {
	e := &OverloadError{RetryAfter: 30 * time.Millisecond, msg: "server overloaded"}
	if got := e.Error(); got != "server overloaded" {
		t.Errorf("Error() = %q", got)
	}
	if !errors.Is(e, ErrOverloaded) {
		t.Error("OverloadError must unwrap to ErrOverloaded")
	}
	for d, want := range map[time.Duration]int64{
		0: 0, -time.Second: 0, 500 * time.Microsecond: 1, 7 * time.Millisecond: 7,
	} {
		if got := retryAfterMS(d); got != want {
			t.Errorf("retryAfterMS(%v) = %d, want %d", d, got, want)
		}
	}
	// A zero hint must not sleep; a real hint sleeps bounded jitter.
	t0 := time.Now()
	sleepRetryAfter(0)
	if since := time.Since(t0); since > 10*time.Millisecond {
		t.Errorf("sleepRetryAfter(0) slept %v", since)
	}
	t0 = time.Now()
	sleepRetryAfter(2 * time.Millisecond)
	if since := time.Since(t0); since < time.Millisecond || since > 100*time.Millisecond {
		t.Errorf("sleepRetryAfter(2ms) slept %v, want within [1ms, 1.5*hint+slack]", since)
	}
}

// TestShedDuringDrain pins the third shed source: a request admitted
// past quota and admission but still waiting on the execution gate when
// shutdown begins is refused typed, not dropped or executed.
func TestShedDuringDrain(t *testing.T) {
	snapshotGoroutines(t)
	adm := overload.NewAdmission(overload.AdmissionOptions{
		Target:   100 * time.Millisecond,
		Capacity: 1,
	})
	addr, srv, _, db := overloadServer(t, adm)
	if _, err := db.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	if srv.Draining() {
		t.Fatal("draining before shutdown")
	}
	if got := srv.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d on idle server", got)
	}

	// Occupy the single gate slot with a long query.
	slow := slowExecute(t, 300*time.Millisecond)
	holder, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = holder.Exec("SELECT id FROM t")
	}()
	time.Sleep(20 * time.Millisecond) // holder inside the gate

	// Second request queues on the gate; shutdown must shed it typed.
	waiter, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Close()
	waitErr := make(chan error, 1)
	go func() {
		_, err := waiter.Exec("SELECT id FROM t")
		waitErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // waiter blocked on the gate
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	go srv.Shutdown(ctx)

	select {
	case err := <-waitErr:
		if !errors.Is(err, ErrOverloaded) && err != nil {
			var oe *OverloadError
			if !errors.As(err, &oe) {
				t.Errorf("gate waiter got %v, want typed shed (or nil if raced ahead)", err)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gate waiter hung through shutdown")
	}
	slow.Store(false)
	<-done
	if !srv.Draining() {
		t.Error("Draining() false after Shutdown")
	}
}
