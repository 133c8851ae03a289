// Package wire implements the client/server protocol of the DBMS,
// standing in for the MySQL wire protocol. Two framings share one port
// and, inside the server, one request path (the session in server.go:
// read → hello? → window → admit → execute → complete):
//
//   - Version 1 — the legacy protocol: synchronous, length-prefixed
//     JSON frames, one request in flight per connection. Every client
//     speaks it by default, preserving the paper's "no client
//     configuration" property (§II-B): clients connect exactly as they
//     would to an unprotected server.
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
	"bytes"
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

// reset clears a Response for reuse. Outer slice capacities are kept
// (the per-connection serving loop reuses them frame after frame); the
// inner row slices are released for the collector.
func (r *Response) reset() {
	r.Columns = r.Columns[:0]
	for i := range r.Rows {
		r.Rows[i] = nil
	}
	r.Rows = r.Rows[:0]
	r.Affected = 0
	r.LastInsertID = 0
	r.Error = ""
	r.Blocked = false
	r.Busy = false
	r.Shed = false
	r.RetryAfterMS = 0
	r.Hello = nil
}

// Struct pools for the serving and client hot paths: one Request and
// one Response per frame otherwise, on both the JSON and binary paths.
var (
	requestPool  = sync.Pool{New: func() any { return new(Request) }}
	responsePool = sync.Pool{New: func() any { return new(Response) }}
)

func getRequest() *Request {
	return requestPool.Get().(*Request)
}

func putRequest(r *Request) {
	r.reset()
	requestPool.Put(r)
}

func getResponse() *Response {
	return responsePool.Get().(*Response)
}

// putResponse recycles r under the rule putEncBuf follows: reset keeps
// the outer slice capacities, and one giant scan must not pin its row
// and column headers (24 and 16 bytes an entry) in the pool forever.
func putResponse(r *Response) {
	r.reset()
	if cap(r.Rows)*24 > poolableCap {
		r.Rows = nil
	}
	if cap(r.Columns)*16 > poolableCap {
		r.Columns = nil
	}
	responsePool.Put(r)
}

// response renders the answer for the JSON path. The Response comes
// from the frame pool; result data is copied in, never aliased, so
// recycling it cannot corrupt engine state.
func (r *reply) response() *Response {
	resp := getResponse()
	resp.Error = r.err
	resp.Blocked = r.blocked
	resp.Busy = r.busy
	resp.Shed = r.shed
	resp.RetryAfterMS = r.retryAfterMS
	if res := r.res; res != nil {
		resp.Columns = append(resp.Columns[:0], res.Columns...)
		resp.Affected = res.Affected
		resp.LastInsertID = res.LastInsertID
		for _, row := range res.Rows {
			wr := make([]WireValue, len(row))
			for j, v := range row {
				wr[j] = ToWire(v)
			}
			resp.Rows = append(resp.Rows, wr)
		}
	}
	return resp
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

// frameEncoder is a pooled JSON frame writer: the length header and the
// marshalled payload are built in one reusable buffer and written with
// a single Write call (one syscall per frame instead of two).
type frameEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encoderPool = sync.Pool{New: func() any {
	e := &frameEncoder{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// writeFrame sends one length-prefixed JSON message.
func writeFrame(w io.Writer, msg any) error {
	e := encoderPool.Get().(*frameEncoder)
	e.buf.Reset()
	e.buf.Write([]byte{0, 0, 0, 0}) // length header placeholder
	if err := e.enc.Encode(msg); err != nil {
		encoderPool.Put(e)
		return fmt.Errorf("encode frame: %w", err)
	}
	frame := e.buf.Bytes()
	n := len(frame) - 4 // payload includes Encode's trailing newline; Unmarshal permits it
	if n > maxFrame {
		encoderPool.Put(e)
		return fmt.Errorf("frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(n))
	_, err := w.Write(frame)
	if e.buf.Cap() <= poolableCap {
		encoderPool.Put(e)
	}
	if err != nil {
		return fmt.Errorf("write frame: %w", err)
	}
	return nil
}

// payloadPool recycles frame payload read buffers on both the client
// and server side of the JSON path (and the binary reader's scratch).
var payloadPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func getPayloadBuf() *[]byte { return payloadPool.Get().(*[]byte) }

func putPayloadBuf(pb *[]byte) {
	if cap(*pb) <= poolableCap {
		payloadPool.Put(pb)
	}
}

// WriteJSONFrame sends one length-prefixed JSON message. Exported for
// internal/repl, whose handshake is the same JSON HELLO exchange the
// query protocol uses — sharing the encoder keeps the two framings
// byte-identical by construction.
func WriteJSONFrame(w io.Writer, msg any) error { return writeFrame(w, msg) }

// ReadJSONFrame receives one length-prefixed JSON message into msg.
// Exported for internal/repl (see WriteJSONFrame).
func ReadJSONFrame(r io.Reader, msg any) error { return readFrame(r, msg) }

// readFrame receives one length-prefixed JSON message into msg.
func readFrame(r io.Reader, msg any) error {
	pb := getPayloadBuf()
	defer putPayloadBuf(pb)
	n, err := readFrameHeader(r, (*pb)[:frameHeaderLen])
	if err != nil {
		return err
	}
	return readFramePayload(r, n, pb, msg)
}

// readFrameHeader reads and bounds-checks the length prefix into hdr,
// scratch of frameHeaderLen bytes the caller owns (a local array would
// escape through the io.Reader and cost an allocation per frame). It is
// split from the payload read so the server can apply separate idle
// (waiting for a request to start) and read (receiving the rest of the
// frame) deadlines.
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

// readFramePayload reads the n-byte payload into the pooled buffer pb
// (grown if need be) and decodes it into msg. json.Unmarshal copies
// everything it keeps, so the caller recycles the buffer at once.
func readFramePayload(r io.Reader, n uint32, pb *[]byte, msg any) error {
	if uint32(cap(*pb)) < n {
		*pb = make([]byte, 0, n)
	}
	payload := (*pb)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return fmt.Errorf("read frame payload: %w", err)
	}
	if err := json.Unmarshal(payload, msg); err != nil {
		return fmt.Errorf("decode frame: %w", err)
	}
	return nil
}
