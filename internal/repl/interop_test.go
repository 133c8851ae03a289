package repl

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/wire"
)

// startWireServer boots a wire server over an empty database with the
// given options: the query port, which is where a replica attaches.
func startWireServer(t *testing.T, opts ...wire.ServerOption) string {
	t.Helper()
	srv := wire.NewServer(engine.New(), opts...)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr
}

// TestProtocolInteropMatrixRepl extends the wire interop matrix with
// the replica↔primary rows: a v2 replica against every flavour of
// server it can be pointed at. The failure rows must end in the typed
// ErrUnsupported quickly — a replica aimed at a server that cannot
// serve replication fails loudly, it never hangs and never spins on
// reconnect. The last row is the one door at work: a replica and a
// pipelined query client on one server at once.
func TestProtocolInteropMatrixRepl(t *testing.T) {
	sep, persist := newPrimary(t, t.TempDir())
	d, _ := sep.Domain("shop")
	d.Store().Put("iq1", modelFor(t, "SELECT a FROM t WHERE b = 1"), false)

	cases := []struct {
		name string
		addr func(t *testing.T) string
		ok   bool
	}{
		{
			// The happy row: a wire server with replication enabled hands
			// the connection to the primary after the HELLO.
			name: "v2replica_v2server_repl",
			addr: func(t *testing.T) string {
				p := NewPrimary(persist, PrimaryOptions{HeartbeatInterval: 20 * time.Millisecond})
				t.Cleanup(p.Close)
				return startWireServer(t, wire.WithReplHandler(p.HandleConn))
			},
			ok: true,
		},
		{
			// A current server WITHOUT replication enabled refuses with a
			// clean typed error.
			name: "v2replica_v2server_noRepl",
			addr: func(t *testing.T) string { return startWireServer(t) },
		},
		{
			// A v1-only server cannot speak the replication stream at all;
			// the version refusal must surface, not a hang.
			name: "v2replica_v1server",
			addr: func(t *testing.T) string {
				return startWireServer(t, wire.WithHelloVersionLimit(1))
			},
		},
		{
			// A v1-only server with a repl handler configured still refuses:
			// the stream rides protocol v2 frames.
			name: "v2replica_v1server_repl",
			addr: func(t *testing.T) string {
				p := NewPrimary(persist, PrimaryOptions{HeartbeatInterval: 20 * time.Millisecond})
				t.Cleanup(p.Close)
				return startWireServer(t,
					wire.WithHelloVersionLimit(1), wire.WithReplHandler(p.HandleConn))
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			snapshotGoroutines(t)
			addr := tc.addr(t)
			rsep, rs := newReplicaSeptic(t, "")
			r := NewReplica(addr, rs, fastReplicaOptions())
			r.Start()
			t.Cleanup(r.Close)

			if tc.ok {
				waitApplied(t, rs, persist.ReplLastSeq())
				assertStoresIdentical(t, sep, rsep)
				if err := r.Err(); err != nil {
					t.Fatalf("healthy session reported %v", err)
				}
				return
			}
			select {
			case <-r.Done():
			case <-time.After(5 * time.Second):
				t.Fatal("refused replica still running after 5s (hang, not a typed failure)")
			}
			if err := r.Err(); !errors.Is(err, ErrUnsupported) {
				t.Fatalf("refusal error %v, want ErrUnsupported", err)
			}
			if rs.AppliedSeq() != 0 {
				t.Fatalf("refused replica applied %d records", rs.AppliedSeq())
			}
		})
	}

	t.Run("v2replica_and_v2client_share_the_port", func(t *testing.T) {
		snapshotGoroutines(t)
		p := NewPrimary(persist, PrimaryOptions{HeartbeatInterval: 20 * time.Millisecond})
		t.Cleanup(p.Close)
		db := engine.New()
		if _, err := db.Exec("CREATE TABLE kv (k INT PRIMARY KEY, v INT)"); err != nil {
			t.Fatal(err)
		}
		const keys = 64
		for k := 0; k < keys; k++ {
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", k, 10*k)); err != nil {
				t.Fatal(err)
			}
		}
		srv := wire.NewServer(db, wire.WithReplHandler(p.HandleConn))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })

		c, err := wire.Dial(addr, wire.WithPipeline(8))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if v := c.ProtocolVersion(); v != 2 {
			t.Fatalf("query client negotiated v%d, want v2", v)
		}
		rsep, rs := newReplicaSeptic(t, "")
		r := startReplica(t, addr, rs)

		// The primary trains while the client's windows are in flight, so
		// the stream and the queries are served side by side.
		for round := 0; round < 8; round++ {
			d.Store().Put(fmt.Sprintf("door%d", round), modelFor(t, "SELECT a FROM t WHERE b = 1"), false)
			futs := make([]*wire.Future, keys)
			for k := range futs {
				futs[k] = c.Submit("SELECT v FROM kv WHERE k = ?", engine.Int(int64(k)))
			}
			for k, f := range futs {
				res, err := f.Wait()
				if err != nil {
					t.Fatalf("round %d key %d: %v", round, k, err)
				}
				if len(res.Rows) != 1 || res.Rows[0][0].I != int64(10*k) {
					t.Fatalf("round %d key %d answered %v, want [[%d]]", round, k, res.Rows, 10*k)
				}
			}
		}
		waitApplied(t, rs, persist.ReplLastSeq())
		assertStoresIdentical(t, sep, rsep)
		if err := r.Err(); err != nil {
			t.Fatalf("replica beside a query client reported %v", err)
		}
		for deadline := time.Now().Add(5 * time.Second); srv.InFlight() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d requests still in flight after every answer arrived", srv.InFlight())
			}
		}
	})
}

// TestReplicaOutlastsBusyPrimary: the query port's admission gate is in
// front of the one door, and its busy refusal is transient. A replica
// turned away while a client holds the only slot keeps retrying, and
// attaches and converges once the slot frees.
func TestReplicaOutlastsBusyPrimary(t *testing.T) {
	snapshotGoroutines(t)
	sep, persist := newPrimary(t, t.TempDir())
	d, _ := sep.Domain("shop")
	d.Store().Put("busy1", modelFor(t, "SELECT a FROM t WHERE b = 1"), false)
	p := NewPrimary(persist, PrimaryOptions{HeartbeatInterval: 20 * time.Millisecond})
	t.Cleanup(p.Close)
	srv := wire.NewServer(engine.New(), wire.WithReplHandler(p.HandleConn),
		wire.WithMaxConns(1), wire.WithAcceptBacklog(0, 10*time.Millisecond))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	hold, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	if _, err := hold.Exec("SELECT 1"); err != nil { // admitted: the only slot is taken
		t.Fatal(err)
	}
	rsep, rs := newReplicaSeptic(t, "")
	r := startReplica(t, addr, rs)
	// Two refusals: the replica came back after the first.
	for deadline := time.Now().Add(5 * time.Second); srv.Refused() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("replica refused %d times, want it to retry the busy port", srv.Refused())
		}
	}
	select {
	case <-r.Done():
		t.Fatalf("a busy refusal ended the replica: %v", r.Err())
	default:
	}

	hold.Close()
	waitApplied(t, rs, persist.ReplLastSeq())
	assertStoresIdentical(t, sep, rsep)
	if err := r.Err(); err != nil {
		t.Fatalf("replica that outlasted the busy port reported %v", err)
	}
}
