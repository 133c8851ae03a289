package wire

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/engine"
)

// startServer boots a protected server on an ephemeral port and returns
// its address plus the guard for assertions.
func startServer(t *testing.T, cfg core.Config) (string, *core.Septic, *engine.DB) {
	t.Helper()
	guard := core.New(cfg)
	db := engine.New(engine.WithQueryHook(guard))
	srv := NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr, guard, db
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestClientServerRoundTrip(t *testing.T) {
	addr, _, _ := startServer(t, core.Config{Mode: core.ModeTraining})
	c := dial(t, addr)

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
	res, err = c.Exec("SELECT id, name FROM t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].S != "ann" {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Columns[0] != "id" || res.Columns[1] != "name" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestClientReceivesErrors(t *testing.T) {
	addr, _, _ := startServer(t, core.Config{Mode: core.ModeTraining})
	c := dial(t, addr)
	_, err := c.Exec("SELECT * FROM missing")
	if err == nil {
		t.Fatal("want error for missing table")
	}
}

func TestBlockedQueryReportedAcrossWire(t *testing.T) {
	addr, guard, _ := startServer(t, core.Config{Mode: core.ModeTraining})
	c := dial(t, addr)
	if _, err := c.Exec("CREATE TABLE t (id INT, s TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("SELECT s FROM t WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	guard.SetConfig(core.Config{Mode: core.ModePrevention, DetectSQLI: true})

	_, err := c.Exec("SELECT s FROM t WHERE id = 1 OR 1=1-- ")
	if !errors.Is(err, engine.ErrQueryBlocked) {
		t.Fatalf("err = %v, want ErrQueryBlocked across the wire", err)
	}
}

func TestExecArgsOverWire(t *testing.T) {
	addr, _, _ := startServer(t, core.Config{Mode: core.ModeTraining})
	c := dial(t, addr)
	if _, err := c.Exec("CREATE TABLE t (id INT, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecArgs("INSERT INTO t (id, name) VALUES (?, ?)",
		engine.Int(1), engine.Str("x' OR '1'='1")); err != nil {
		t.Fatal(err)
	}
	res, err := c.ExecArgs("SELECT name FROM t WHERE id = ?", engine.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "x' OR '1'='1" {
		t.Errorf("rows = %v", res.Rows)
	}
}

// TestClientDiversity is the paper's feature: several concurrent clients
// against one protected server, no client-side configuration.
func TestClientDiversity(t *testing.T) {
	addr, guard, _ := startServer(t, core.Config{Mode: core.ModeTraining})
	setup := dial(t, addr)
	if _, err := setup.Exec("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, n INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Exec("INSERT INTO t (n) VALUES (0)"); err != nil {
		t.Fatal(err)
	}
	guard.SetConfig(core.Config{Mode: core.ModePrevention, DetectSQLI: true, IncrementalLearning: true})

	const clients = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*10)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 10; j++ {
				if _, err := c.Exec(fmt.Sprintf("INSERT INTO t (n) VALUES (%d)", n*100+j)); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("client error: %v", err)
	}
	res, err := setup.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 1+clients*10 {
		t.Errorf("count = %v, want %d", res.Rows[0][0], 1+clients*10)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	db := engine.New()
	srv := NewServer(db)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClientClosedExec(t *testing.T) {
	addr, _, _ := startServer(t, core.Config{Mode: core.ModeTraining})
	c := dial(t, addr)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("SELECT 1"); err == nil {
		t.Error("exec on closed client must fail")
	}
}

func TestWireValueRoundTrip(t *testing.T) {
	values := []engine.Value{
		engine.Int(-42),
		engine.Float(2.5),
		engine.Str("héllo ' world"),
		engine.Bool(true),
		engine.Null(),
	}
	for _, v := range values {
		got := FromWire(ToWire(v))
		if got.Kind != v.Kind || got.String() != v.String() {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

// TestNonFiniteResultKeepsSession: a benign statement whose result JSON
// has no literal for used to end a v1 session without an answer (the
// encoder refused, the server hung up, the client was poisoned). It is
// answered — as a typed-text error on v1, as the value itself on v2 — and
// the session carries on, either framing.
func TestNonFiniteResultKeepsSession(t *testing.T) {
	addr, _, _ := startServer(t, core.Config{Mode: core.ModeTraining})
	for name, opts := range map[string][]ClientOption{"v1": nil, "v2": {WithPipeline(4)}} {
		c := dialOpts(t, addr, opts...)
		for _, q := range []string{"SELECT 1e308 * 10", "SELECT 1e308*10 - 1e308*10"} {
			res, err := c.Exec(q)
			switch {
			case name == "v1":
				if err == nil || !strings.Contains(err.Error(), jsonUnrepresentable+errNonFinite.Error()) {
					t.Errorf("v1 %q: res %+v, err %v; want the not-representable error", q, res, err)
				}
			case err != nil:
				t.Errorf("v2 %q: %v", q, err)
			default:
				if f := res.Rows[0][0].F; !math.IsInf(f, 0) && !math.IsNaN(f) {
					t.Errorf("v2 %q = %v, want a non-finite float", q, f)
				}
			}
			if res, err := c.Exec("SELECT 1"); err != nil || res.Rows[0][0].I != 1 {
				t.Fatalf("%s session unusable after %q: %+v, %v", name, q, res, err)
			}
		}
	}
}
