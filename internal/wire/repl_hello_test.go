package wire

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/septic-db/septic/internal/engine"
)

// replHello performs a replication HELLO against addr and returns the
// ack, the open connection (for the accepted case, the conn now speaks
// the replication frame protocol) and the refusal, if any.
func replHello(t *testing.T, addr string, version int) (*HelloAck, net.Conn, error) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	ack, refused, err := HelloRoundTrip(conn, &Hello{Version: version, Repl: true})
	if err != nil {
		t.Fatal(err)
	}
	return ack, conn, refused
}

// TestReplHelloHandoff covers the server side of the replication
// handshake: an accepted HELLO hands the raw connection to the
// configured handler; every refusal answers with an error ack naming
// what the server does speak, never a hang or a silent close.
func TestReplHelloHandoff(t *testing.T) {
	t.Run("accepted", func(t *testing.T) {
		handed := make(chan struct{})
		srv := NewServer(engine.New(), WithReplHandler(func(conn net.Conn) {
			// The handler owns the conn post-ack; prove bytes flow by
			// echoing one marker byte back.
			buf := make([]byte, 1)
			if _, err := conn.Read(buf); err == nil {
				conn.Write(buf)
			}
			close(handed)
		}))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()

		ack, conn, refused := replHello(t, addr, HelloVersion)
		if refused != nil || !ack.Repl {
			t.Fatalf("accepted handshake: ack %+v, refusal %v", ack, refused)
		}
		if _, err := conn.Write([]byte{0x5A}); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1)
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(buf); err != nil || buf[0] != 0x5A {
			t.Fatalf("echo through handler: %v %x", err, buf)
		}
		select {
		case <-handed:
		case <-time.After(2 * time.Second):
			t.Fatal("connection never handed to the repl handler")
		}
	})

	refusals := []struct {
		name    string
		opts    []ServerOption
		version int
		want    string
	}{
		{"no_handler", nil, HelloVersion, "not enabled"},
		{"v1_server", []ServerOption{WithHelloVersionLimit(1)}, HelloVersion, "unsupported"},
		{"v1_client", []ServerOption{WithReplHandler(func(net.Conn) {})}, 1, "requires protocol version"},
	}
	for _, tc := range refusals {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(engine.New(), tc.opts...)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			ack, _, refused := replHello(t, addr, tc.version)
			if refused == nil || !strings.Contains(refused.Error(), tc.want) {
				t.Fatalf("refusal %v, want error containing %q", refused, tc.want)
			}
			if ack == nil || ack.Repl {
				t.Fatalf("refusal ack %+v must advertise the server's version without the repl flag", ack)
			}
		})
	}

	// A full query port turns the connection away before it reads any
	// HELLO: the answer is a transient ErrServerBusy with the backlog
	// wait as its hint, never a refusal of what the HELLO asked.
	t.Run("busy", func(t *testing.T) {
		srv := NewServer(engine.New(), WithReplHandler(func(net.Conn) {}),
			WithMaxConns(1), WithAcceptBacklog(0, 40*time.Millisecond))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if _, err := dial(t, addr).Exec("SELECT 1"); err != nil { // holds the only slot
			t.Fatal(err)
		}
		ack, refused, err := HelloRoundTrip(rawDial(t, addr), &Hello{Version: HelloVersion, Repl: true})
		if !errors.Is(err, ErrServerBusy) || ack != nil || refused != nil {
			t.Fatalf("busy answer: ack %+v, refusal %v, err %v; want only an ErrServerBusy err", ack, refused, err)
		}
		var hinted interface{ RetryAfter() time.Duration }
		if !errors.As(err, &hinted) || hinted.RetryAfter() != 40*time.Millisecond {
			t.Fatalf("busy answer %v lost the 40ms retry-after hint", err)
		}
		if _, err := Dial(addr, WithPipeline(0)); !errors.Is(err, ErrServerBusy) {
			t.Fatalf("pipelined dial of a full server: %v, want ErrServerBusy", err)
		}
	})
}
