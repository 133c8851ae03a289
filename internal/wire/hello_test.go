package wire

import (
	"errors"
	"net"
	"strings"
	"testing"

	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/engine"
)

// startDomainServer boots a server whose guard has one registered
// domain ("shop") and whose resolver consults the guard's registry,
// exactly as septicd wires it.
func startDomainServer(t *testing.T, cfg core.Config) (string, *core.Septic) {
	t.Helper()
	guard := core.New(cfg)
	if _, err := guard.RegisterDomain("shop", core.Config{Mode: core.ModeTraining}); err != nil {
		t.Fatalf("RegisterDomain: %v", err)
	}
	db := engine.New(engine.WithQueryHook(guard))
	srv := NewServer(db, WithDomainResolver(func(app string) string {
		if d, ok := guard.Domain(app); ok {
			return d.Name()
		}
		return core.DefaultDomain
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return addr, guard
}

func TestHelloBindsSessionToDomain(t *testing.T) {
	addr, guard := startDomainServer(t, core.Config{Mode: core.ModeTraining})
	c, err := Dial(addr, WithHello("shop"))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if got := c.Domain(); got != "shop" {
		t.Fatalf("Domain() = %q, want shop", got)
	}

	if _, err := c.Exec("CREATE TABLE carts (id INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("SELECT id FROM carts WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	// Every query of the session trained the bound domain's store, not
	// the default one.
	shop, _ := guard.Domain("shop")
	if shop.Store().Len() == 0 {
		t.Error("bound domain learned nothing")
	}
	if guard.DefaultDomain().Store().Len() != 0 {
		t.Errorf("default domain learned %d ids from a bound session",
			guard.DefaultDomain().Store().Len())
	}
}

func TestHelloUnknownAppFallsBackToDefault(t *testing.T) {
	addr, guard := startDomainServer(t, core.Config{Mode: core.ModeTraining})
	c, err := Dial(addr, WithHello("nobody-registered-this"))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if got := c.Domain(); got != core.DefaultDomain {
		t.Fatalf("Domain() = %q, want %q", got, core.DefaultDomain)
	}
	if _, err := c.Exec("CREATE TABLE t (id INT)"); err != nil {
		t.Fatal(err)
	}
	if guard.DefaultDomain().Store().Len() == 0 {
		t.Error("unknown app's queries should train the default domain")
	}
}

func TestLegacyClientWithoutHelloUsesDefaultDomain(t *testing.T) {
	addr, guard := startDomainServer(t, core.Config{Mode: core.ModeTraining})
	c := dial(t, addr) // plain Dial: no handshake at all
	if got := c.Domain(); got != "" {
		t.Fatalf("legacy client Domain() = %q, want empty", got)
	}
	if _, err := c.Exec("CREATE TABLE legacy (id INT)"); err != nil {
		t.Fatal(err)
	}
	if guard.DefaultDomain().Store().Len() == 0 {
		t.Error("legacy session should land in the default domain")
	}
	shop, _ := guard.Domain("shop")
	if shop.Store().Len() != 0 {
		t.Error("legacy session leaked into a registered domain")
	}
}

func TestHelloVersionTooNewIsRefused(t *testing.T) {
	addr, _ := startDomainServer(t, core.Config{Mode: core.ModeTraining})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteJSONFrame(conn, &Request{Hello: &Hello{Version: HelloVersion + 1, App: "shop"}}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := ReadJSONFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" || !strings.Contains(resp.Error, "version") {
		t.Fatalf("future version not refused: %+v", resp)
	}
	if resp.Hello == nil || resp.Hello.Version != HelloVersion {
		t.Fatalf("refusal should advertise the server version, got %+v", resp.Hello)
	}
	// The session survives the refusal: it keeps working, unbound.
	if err := WriteJSONFrame(conn, &Request{Query: "SHOW TABLES"}); err != nil {
		t.Fatal(err)
	}
	resp = Response{}
	if err := ReadJSONFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" {
		t.Fatalf("session dead after version refusal: %s", resp.Error)
	}
}

func TestHelloVersionTooNewFailsDial(t *testing.T) {
	addr, _ := startDomainServer(t, core.Config{Mode: core.ModeTraining})
	_, err := Dial(addr, func(o *clientOptions) {
		o.hello = &Hello{Version: HelloVersion + 1, App: "shop"}
	})
	if err == nil {
		t.Fatal("Dial with a future hello version should fail")
	}
	if !strings.Contains(err.Error(), "hello refused") {
		t.Fatalf("err = %v, want hello refusal", err)
	}
}

func TestHelloRebindsAfterReconnect(t *testing.T) {
	addr, guard := startDomainServer(t, core.Config{Mode: core.ModeTraining})
	c, err := Dial(addr, WithHello("shop"), WithAutoReconnect(3))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE carts (id INT)"); err != nil {
		t.Fatal(err)
	}

	// Sever the transport underneath the client; the next Exec redials
	// and must redo the handshake, so the session stays bound.
	c.mu.Lock()
	_ = c.conn.Close()
	c.mu.Unlock()
	if _, err := c.Exec("SELECT id FROM carts WHERE id = 2"); err != nil {
		// First post-cut Exec may fail (poisoned mid-write); the retry
		// must succeed over a rebound session.
		if _, err = c.Exec("SELECT id FROM carts WHERE id = 2"); err != nil {
			t.Fatalf("Exec after reconnect: %v", err)
		}
	}
	if got := c.Domain(); got != "shop" {
		t.Fatalf("Domain() after reconnect = %q, want shop", got)
	}
	if guard.DefaultDomain().Store().Len() != 0 {
		t.Error("reconnected session leaked queries into the default domain")
	}
}

func TestHelloBlockedQueryStillReportsDomainBlock(t *testing.T) {
	// Sanity: a bound session's blocked query is reported exactly like a
	// single-tenant block.
	addr, guard := startDomainServer(t, core.Config{Mode: core.ModeTraining})
	shop, _ := guard.Domain("shop")

	c, err := Dial(addr, WithHello("shop"))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE users (id INT, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("SELECT name FROM users WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	shop.SetConfig(core.Config{Mode: core.ModePrevention, DetectSQLI: true})

	_, err = c.Exec("SELECT name FROM users WHERE id = 1 OR 1=1")
	if !errors.Is(err, ErrServerBlocked) {
		t.Fatalf("tautology not blocked in bound domain: %v", err)
	}
	if shop.Stats().AttacksBlocked != 1 {
		t.Errorf("blocked counter = %d, want 1", shop.Stats().AttacksBlocked)
	}
}
