// Package wire implements the client/server protocol of the DBMS,
// standing in for the MySQL wire protocol. Two framings share one port
// and, inside the server, one request path (the session in server.go:
// read → hello? → window → admit → execute → complete):
//
//   - Version 1 — the legacy protocol: synchronous, length-prefixed
//     JSON frames, one request in flight per connection. Every client
//     speaks it by default, preserving the paper's "no client
//     configuration" property (§II-B): clients connect exactly as they
//     would to an unprotected server. The frames are what encoding/json
//     renders for Request and Response below, which remain the schema;
//     query frames are written and read without reflection by
//     jsoncodec.go, and encoding/json itself carries only the handshake
//     frames (WriteJSONFrame, ReadJSONFrame).
//   - Version 2 — the pipelined binary protocol: sequence-numbered,
//     length-prefixed binary frames (codec.go), many requests in
//     flight per connection, responses completed out of order and
//     matched by sequence number. A session enters v2 only through the
//     HELLO handshake, which widens the same server session in place, so
//     v1 clients and v1 servers interoperate with v2 peers unchanged.
//
// The protocol also demonstrates "client diversity" (§II-B): several
// clients of different kinds — and now of different protocol versions —
// may be connected to a single protected server.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"github.com/septic-db/septic/internal/engine"
)

// maxFrame bounds a single protocol frame (16 MiB, like MySQL's default
// max_allowed_packet).
const maxFrame = 16 << 20

// frameHeaderLen is the length prefix of every frame, either framing.
const frameHeaderLen = 4

// Protocol versions carried in the HELLO handshake.
const (
	// HelloVersion is the newest protocol version this build speaks.
	// Version 1 added the application declaration that binds a
	// connection to a protection domain; version 2 adds the pipelined
	// binary transport.
	HelloVersion = 2
	// helloVersionLegacy is the synchronous JSON protocol. WithHello
	// clients declare it; a v2 client falls back to it when the server
	// refuses version 2.
	helloVersionLegacy = 1
)

// Hello is the optional session handshake: the first frame a
// domain-aware or pipelining client sends. It declares the client's
// protocol version and the application it acts for; the server binds
// the connection to the application's protection domain and every later
// query on the connection is routed there. A version-2 hello
// additionally switches the session to the pipelined binary transport:
// the acknowledgement is the last JSON frame exchanged, and every frame
// after it is binary (codec.go). Clients predating the handshake simply
// never send one — their queries carry no app binding, land in the
// default domain, and stay on the synchronous JSON protocol, so old
// clients keep working against new servers without any configuration.
type Hello struct {
	// Version is the protocol version the client wants to speak. A
	// server refuses versions newer than it accepts (the client must
	// downgrade — pipelining clients do so automatically), and accepts
	// older ones.
	Version int `json:"v"`
	// App is the application name to bind the session to; empty binds to
	// the default domain.
	App string `json:"app,omitempty"`
	// Repl, when true, asks for a replication session instead of a query
	// session: after the acknowledgement the connection switches to the
	// replication frame protocol (internal/repl) and never carries
	// queries. Requires Version >= 2 and a server with replication
	// enabled; anything else is refused in the ack — the same clean
	// degradation path as a version refusal, so a replica pointed at a
	// v1-only or non-primary server gets a typed error, never a hang.
	Repl bool `json:"repl,omitempty"`
}

// HelloAck is the server's handshake reply.
type HelloAck struct {
	// Version is the newest protocol version the server accepts. On a
	// refusal it tells the client what to downgrade to.
	Version int `json:"v"`
	// Domain is the protection domain the session was bound to —
	// "default" when the declared app is unknown or empty.
	Domain string `json:"domain,omitempty"`
	// Repl confirms a replication handshake: the server accepted and the
	// connection is now a replication stream.
	Repl bool `json:"repl,omitempty"`
}

// Request is one client->server message. A frame with Hello set is a
// handshake, not a query: Query and Args are ignored and the response
// carries the HelloAck.
type Request struct {
	// Query is the SQL text.
	Query string `json:"query"`
	// Args, when non-empty, bind '?' placeholders server-side
	// (prepared-statement style execution).
	Args []WireValue `json:"args,omitempty"`
	// Hello, when set, makes this frame a session handshake.
	Hello *Hello `json:"hello,omitempty"`
}

// reset clears a Request for reuse, keeping the Args capacity. Required
// before decoding into a pooled struct: both json.Unmarshal and the
// binary decoder leave absent fields untouched.
func (r *Request) reset() {
	r.Query = ""
	r.Args = r.Args[:0]
	r.Hello = nil
}

// Response is one server->client message.
type Response struct {
	Columns      []string      `json:"columns,omitempty"`
	Rows         [][]WireValue `json:"rows,omitempty"`
	Affected     int64         `json:"affected,omitempty"`
	LastInsertID int64         `json:"last_insert_id,omitempty"`
	// Error is the failure message, empty on success.
	Error string `json:"error,omitempty"`
	// Blocked reports that SEPTIC dropped the query.
	Blocked bool `json:"blocked,omitempty"`
	// Busy reports that the server refused the connection at admission
	// (max-conns reached and the accept backlog full or timed out).
	Busy bool `json:"busy,omitempty"`
	// Shed reports that overload control rejected THIS request — the
	// admission controller's queue-delay bound or the session domain's
	// quota. Unlike Busy it is not terminal: the request never executed,
	// the session stays usable, and the client may retry after
	// RetryAfterMS. Old clients that predate the field see only the
	// Error text and treat it as an ordinary query failure.
	Shed bool `json:"shed,omitempty"`
	// RetryAfterMS is the backoff hint accompanying Busy or Shed: how
	// long the client should wait (with jitter) before retrying or
	// redialing. Zero means no hint.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Hello is the handshake acknowledgement, set only when the request
	// was a Hello frame.
	Hello *HelloAck `json:"hello,omitempty"`
}

// requestPool recycles the Request of every frame, either framing, on
// the serving and the client hot paths.
var requestPool = sync.Pool{New: func() any { return new(Request) }}

func getRequest() *Request {
	return requestPool.Get().(*Request)
}

func putRequest(r *Request) {
	r.reset()
	requestPool.Put(r)
}

// WireValue is the serialized form of engine.Value.
type WireValue struct {
	Kind int     `json:"k"`
	I    int64   `json:"i,omitempty"`
	F    float64 `json:"f,omitempty"`
	S    string  `json:"s,omitempty"`
	B    bool    `json:"b,omitempty"`
}

// ToWire converts an engine value.
func ToWire(v engine.Value) WireValue {
	return WireValue{Kind: int(v.Kind), I: v.I, F: v.F, S: v.S, B: v.B}
}

// FromWire converts back to an engine value.
func FromWire(w WireValue) engine.Value {
	return engine.Value{Kind: engine.Kind(w.Kind), I: w.I, F: w.F, S: w.S, B: w.B}
}

// poolableCap bounds what the frame pools retain: a burst of giant
// result sets must not pin megabytes of buffer forever.
const poolableCap = 64 << 10

// jsonFrame renders msg as one length-prefixed JSON frame through
// encoding/json: the handshake frames (HELLO, its acknowledgement, the
// accept-time busy refusal). Query frames are built by jsoncodec.go in
// pooled buffers; these happen once a connection, so nothing here is
// pooled — and nothing can pin an oversized buffer.
func jsonFrame(msg any) ([]byte, error) {
	payload, err := json.Marshal(msg)
	if err != nil {
		return nil, fmt.Errorf("encode frame: %w", err)
	}
	n := len(payload) + 1 // json.Encoder's trailing newline, which v1 frames have always carried
	if n > maxFrame {
		return nil, fmt.Errorf("frame of %d bytes exceeds limit", n)
	}
	frame := binary.BigEndian.AppendUint32(make([]byte, 0, frameHeaderLen+n), uint32(n))
	return append(append(frame, payload...), '\n'), nil
}

// WriteJSONFrame sends msg as one jsonFrame: the client's HELLO
// (HelloRoundTrip) and the tests' hand-built v1 frames.
func WriteJSONFrame(w io.Writer, msg any) error {
	frame, err := jsonFrame(msg)
	if err == nil {
		_, err = w.Write(frame)
	}
	return err
}

// ReadJSONFrame receives one length-prefixed JSON message into msg
// through encoding/json: the counterpart of WriteJSONFrame.
func ReadJSONFrame(r io.Reader, msg any) error {
	buf := getEncBuf()
	defer putEncBuf(buf) // encoding/json copies everything it keeps
	payload, err := readWholeFrame(r, buf)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(payload, msg); err != nil {
		return fmt.Errorf("decode frame: %w", err)
	}
	return nil
}

// readWholeFrame reads one frame of either framing, header and payload,
// into buf and returns the payload, which aliases buf.
func readWholeFrame(r io.Reader, buf *encBuf) ([]byte, error) {
	if cap(buf.b) < frameHeaderLen {
		buf.b = make([]byte, 0, 4096)
	}
	n, err := readFrameHeader(r, buf.b[:frameHeaderLen])
	if err != nil {
		return nil, err
	}
	return readPayload(r, n, buf)
}

// readFrameHeader reads and bounds-checks the length prefix into hdr,
// scratch of frameHeaderLen bytes the caller owns (a local array would
// escape through the io.Reader and cost an allocation per frame). It is
// split from the payload read so a synchronous session takes its pooled
// buffer only once a frame has begun, not while it waits idle.
func readFrameHeader(r io.Reader, hdr []byte) (uint32, error) {
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, err // io.EOF passes through for clean shutdown detection
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrame {
		return 0, fmt.Errorf("frame of %d bytes exceeds limit", n)
	}
	return n, nil
}

// readPayload reads the n-byte payload of a frame whose header was
// already consumed into buf (grown if need be). The payload aliases buf
// and is only valid until buf's next use.
func readPayload(r io.Reader, n uint32, buf *encBuf) ([]byte, error) {
	if uint32(cap(buf.b)) < n {
		buf.b = make([]byte, 0, n)
	}
	payload := buf.b[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("read frame payload: %w", err)
	}
	return payload, nil
}
