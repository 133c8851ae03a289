package wire

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/septic-db/septic/internal/engine"
)

// ErrServerBlocked is returned by the client when the server reports
// that SEPTIC dropped the query. It wraps engine.ErrQueryBlocked so
// errors.Is works across the wire boundary.
var ErrServerBlocked = fmt.Errorf("%w (reported by server)", engine.ErrQueryBlocked)

// ErrOverloaded is the sentinel under every typed shed: errors.Is(err,
// ErrOverloaded) detects an overload rejection regardless of which
// control (admission or quota) produced it.
var ErrOverloaded = errors.New("wire: server overloaded, request shed")

// OverloadError is returned when the server shed one request under
// overload control. Unlike a transport failure it is a clean,
// pre-execution rejection: the connection stays healthy, the request
// definitely did not run, and the caller may retry it — ideally after
// RetryAfter (with jitter), which is the server's own drain estimate.
// It unwraps to ErrOverloaded.
type OverloadError struct {
	// RetryAfter is the server's backoff hint (zero when it sent none).
	RetryAfter time.Duration
	msg        string
}

func (e *OverloadError) Error() string { return e.msg }

func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// ErrClientClosed is returned by every call on a client whose
// connection is gone — closed by the caller, or poisoned by an earlier
// transport/protocol error. Poisoning is deliberate: after a failed
// frame write or read the stream position is undefined, so continuing
// to use the connection would desynchronize framing (a response for
// request N read as the answer to N+1) or deadlock. Failing fast with a
// clear error is the only safe continuation.
var ErrClientClosed = errors.New("wire: client closed")

// clientOptions collects Dial-time configuration.
type clientOptions struct {
	dial        func(addr string) (net.Conn, error)
	reconnect   bool
	maxAttempts int
	baseDelay   time.Duration
	maxDelay    time.Duration
	hello       *Hello
	pipeline    bool
	window      int
	shedRetries int
}

// ClientOption configures a Client at Dial time.
type ClientOption func(*clientOptions)

// WithDialFunc replaces the TCP dialer — chaos tests inject
// fault-wrapped connections through it.
func WithDialFunc(dial func(addr string) (net.Conn, error)) ClientOption {
	return func(o *clientOptions) { o.dial = dial }
}

// WithAutoReconnect opts the client into automatic redialing: the
// initial Dial and — after a poisoned connection — the next Exec retry
// the dial up to maxAttempts times with exponential backoff plus
// jitter (base 10ms, doubling, capped at 1s). The failed request
// itself is never replayed: it may have executed server-side, and a
// protection layer must not turn a transport hiccup into a duplicated
// write. maxAttempts < 1 means the default (5).
func WithAutoReconnect(maxAttempts int) ClientOption {
	return func(o *clientOptions) {
		o.reconnect = true
		if maxAttempts >= 1 {
			o.maxAttempts = maxAttempts
		}
	}
}

// WithHello makes the client perform the versioned HELLO handshake on
// every (re)dial, declaring the application it acts for: the server
// binds the session to the application's protection domain, and the
// negotiated domain is readable with Client.Domain. A handshake the
// server refuses (version skew, transport fault) fails the dial.
// Clients without WithHello never send a handshake — the legacy
// sessions that land in the default domain. The declared version is the
// legacy synchronous protocol; combine with WithPipeline to request the
// pipelined binary transport.
func WithHello(app string) ClientOption {
	return func(o *clientOptions) {
		o.hello = &Hello{Version: helloVersionLegacy, App: app}
	}
}

// WithPipeline requests the version-2 pipelined binary transport with
// the given in-flight window (≤ 0 means DefaultPipelineWindow). The
// handshake is negotiated on every (re)dial: a server that refuses
// version 2 and advertises an older one gets a downgraded handshake,
// and the session proceeds on the synchronous JSON protocol — a v2
// client against a v1 server keeps working, just without pipelining.
// ProtocolVersion reports what a session actually negotiated.
func WithPipeline(window int) ClientOption {
	return func(o *clientOptions) {
		o.pipeline = true
		o.window = window
	}
}

// WithShedRetry makes Exec and ExecArgs transparently retry a request
// the server shed under overload control, up to max extra attempts,
// sleeping the server's jittered retry-after hint between tries. This
// is safe where replaying transport failures is not: a shed response
// guarantees the request never executed. Submit futures are not
// retried — pipelined callers see the typed OverloadError and choose.
func WithShedRetry(max int) ClientOption {
	return func(o *clientOptions) {
		if max > 0 {
			o.shedRetries = max
		}
	}
}

// WithReconnectBackoff tunes the auto-reconnect delays (implies
// WithAutoReconnect with the current attempt budget).
func WithReconnectBackoff(base, max time.Duration) ClientOption {
	return func(o *clientOptions) {
		o.reconnect = true
		if base > 0 {
			o.baseDelay = base
		}
		if max > 0 {
			o.maxDelay = max
		}
	}
}

// Client is a connector to a wire server. It is safe for concurrent
// use. On a synchronous (v1) session requests are serialized, as in the
// MySQL protocol; on a pipelined (v2) session concurrent callers share
// the connection's in-flight window and complete out of order.
type Client struct {
	addr string
	opts clientOptions

	mu      sync.Mutex
	conn    net.Conn
	pipe    *pipe  // non-nil iff the session negotiated the v2 transport
	proto   int    // protocol version this session negotiated
	closed  bool   // Close was called; terminal
	lastErr error  // why the connection was poisoned (nil if healthy)
	domain  string // domain the HELLO handshake bound us to ("" = none)
	// retryHint is the server's retry-after from the last busy refusal;
	// the next redial honors it (jittered) before its first attempt.
	retryHint time.Duration
}

// Dial connects to a server address.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	o := clientOptions{
		dial:        func(a string) (net.Conn, error) { return net.Dial("tcp", a) },
		maxAttempts: 5,
		baseDelay:   10 * time.Millisecond,
		maxDelay:    time.Second,
	}
	for _, opt := range opts {
		opt(&o)
	}
	c := &Client{addr: addr, opts: o}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.redialLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// redialLocked (re)establishes the connection, with backoff+jitter when
// auto-reconnect is on. Callers hold c.mu.
func (c *Client) redialLocked() error {
	attempts := 1
	if c.opts.reconnect {
		attempts = c.opts.maxAttempts
	}
	delay := c.opts.baseDelay
	var lastErr error
	for i := 0; i < attempts; i++ {
		if hint := c.retryHint; hint > 0 {
			// The previous session or attempt ended with a busy refusal
			// carrying a retry-after hint: honor it (jittered) before this
			// dial so refused clients spread out instead of stampeding the
			// admission gate that just turned them away.
			c.retryHint = 0
			sleepRetryAfter(hint)
		} else if i > 0 {
			// Full jitter on the exponential step: sleep a uniform random
			// fraction of the window so reconnect storms decorrelate.
			time.Sleep(time.Duration(rand.Int63n(int64(delay) + 1)))
		}
		if i > 0 {
			if delay *= 2; delay > c.opts.maxDelay {
				delay = c.opts.maxDelay
			}
		}
		conn, err := c.opts.dial(c.addr)
		if err == nil {
			c.conn = conn
			c.lastErr = nil
			c.proto = helloVersionLegacy
			// Negotiate on the fresh connection — protocol version AND
			// domain binding, on the initial dial and every reconnect. A
			// failure poisons this conn and counts as one dial attempt: a
			// session that asked for a domain binding must never silently
			// run unbound, and a pipelining session must re-negotiate its
			// transport (the replacement server may speak a different
			// version than the one that died).
			if err = c.negotiateLocked(); err == nil {
				return nil
			}
			var busy *busyError
			if errors.As(err, &busy) {
				c.retryHint = busy.retryAfter
			}
			_ = c.poisonLocked(err)
		}
		lastErr = err
	}
	return fmt.Errorf("dial %s: %w", c.addr, lastErr)
}

// negotiateLocked performs the HELLO handshake on the current
// connection, negotiating the protocol version and the domain binding.
// Callers hold c.mu. Clients with neither WithHello nor WithPipeline
// send no handshake at all — the legacy default-domain session.
func (c *Client) negotiateLocked() error {
	if c.opts.hello == nil && !c.opts.pipeline {
		return nil
	}
	h := Hello{}
	if c.opts.hello != nil {
		h = *c.opts.hello
	}
	if c.opts.pipeline {
		h.Version = HelloVersion
	}
	ack, refused, err := HelloRoundTrip(c.conn, &h)
	// Auto-downgrade is only for pipelining clients probing for v2: a
	// caller that explicitly pinned a version (o.hello) must see the
	// refusal, not a silent downgrade.
	if err == nil && refused != nil && c.opts.pipeline && ack != nil &&
		ack.Version >= helloVersionLegacy && ack.Version < h.Version {
		h.Version = ack.Version
		ack, refused, err = HelloRoundTrip(c.conn, &h)
	}
	if err == nil {
		err = refused
	}
	if err != nil {
		return err
	}
	c.domain = ack.Domain
	c.proto = h.Version
	if h.Version >= HelloVersion {
		// The acknowledgement was the last JSON frame on this session;
		// everything after it is binary. Hand the conn to the pipe.
		c.pipe = newPipe(c, c.conn, c.opts.window)
	}
	return nil
}

// HelloRoundTrip sends the handshake h on conn and reads the server's
// answer: the client side of the HELLO exchange, run by Client and by a
// replication replica (internal/repl). err is a transient failure, after
// which the server has judged nothing of h: a transport or framing
// error, or the admission gate's busy refusal, which matches
// ErrServerBusy and carries the server's hint as a RetryAfter()
// time.Duration method. Otherwise the server answered h: refused is nil
// when it accepted h, and ack is then its acknowledgement; a refusal — an
// error in the answer, or no acknowledgement — keeps the ack the server
// sent, if any, which advertises the newest version it accepts.
func HelloRoundTrip(conn io.ReadWriter, h *Hello) (ack *HelloAck, refused, err error) {
	if err := WriteJSONFrame(conn, &Request{Hello: h}); err != nil {
		return nil, nil, fmt.Errorf("hello: %w", err)
	}
	var resp Response
	if err := ReadJSONFrame(conn, &resp); err != nil {
		return nil, nil, fmt.Errorf("hello: %w", err)
	}
	switch {
	case resp.Busy:
		return nil, nil, &busyError{retryAfter: time.Duration(resp.RetryAfterMS) * time.Millisecond}
	case resp.Error != "":
		refused = errors.New("hello refused: " + resp.Error)
	case resp.Hello == nil:
		refused = errors.New("hello refused: server sent no acknowledgement")
	}
	return resp.Hello, refused, nil
}

// busyError is the admission gate's refusal read in place of a HELLO
// acknowledgement: the connection was turned away before the server
// read the handshake, so a later dial may be admitted.
type busyError struct{ retryAfter time.Duration }

func (e *busyError) Error() string { return "hello: " + ErrServerBusy.Error() }

func (e *busyError) Unwrap() error { return ErrServerBusy }

// RetryAfter is the server's backoff hint (zero when it sent none).
func (e *busyError) RetryAfter() time.Duration { return e.retryAfter }

// poisonLocked marks the connection dead after a transport/protocol
// failure: the conn is closed, the cause recorded, and every later call
// fails fast (or redials, if auto-reconnect is on) instead of reading
// misaligned frames. Returns err for convenient tail calls.
func (c *Client) poisonLocked(err error) error {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
	c.pipe = nil
	c.lastErr = err
	return err
}

// pipeBroken is the pipe's poison callback: detach it so the next call
// redials (auto-reconnect) or fails fast with the recorded cause.
func (c *Client) pipeBroken(p *pipe, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pipe != p {
		return // already detached (replaced or client-closed)
	}
	c.pipe = nil
	c.conn = nil // the pipe closed it
	c.lastErr = err
}

// Domain returns the protection domain the HELLO handshake bound this
// session to — empty for clients dialed without WithHello.
func (c *Client) Domain() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.domain
}

// ProtocolVersion returns the protocol version the current session
// negotiated: 2 when the pipelined binary transport is active, 1 for a
// synchronous JSON session (including a v2 client downgraded by a v1
// server), 0 when the connection is down.
func (c *Client) ProtocolVersion() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return 0
	}
	return c.proto
}

// Exec runs one SQL statement on the server.
func (c *Client) Exec(query string) (*engine.Result, error) {
	req := getRequest()
	req.Query = query
	res, err := c.execShedRetry(req)
	putRequest(req)
	return res, err
}

// ExecArgs runs a parameterized statement, binding args server-side.
func (c *Client) ExecArgs(query string, args ...engine.Value) (*engine.Result, error) {
	req := getRequest()
	req.Query = query
	for _, a := range args {
		req.Args = append(req.Args, ToWire(a))
	}
	res, err := c.execShedRetry(req)
	putRequest(req)
	return res, err
}

// execShedRetry runs exec with the WithShedRetry budget: only typed
// shed rejections — guaranteed never executed server-side — are
// retried, after the server's jittered retry-after hint.
func (c *Client) execShedRetry(req *Request) (*engine.Result, error) {
	res, err := c.exec(req)
	for retries := c.opts.shedRetries; retries > 0; retries-- {
		var oe *OverloadError
		if !errors.As(err, &oe) {
			break
		}
		sleepRetryAfter(oe.RetryAfter)
		res, err = c.exec(req)
	}
	return res, err
}

// sleepRetryAfter honors a server retry-after hint with jitter: the
// wait is uniform in [hint/2, 1.5*hint], averaging the server's ask
// while decorrelating a herd of rejected clients.
func sleepRetryAfter(hint time.Duration) {
	if hint <= 0 {
		return
	}
	time.Sleep(hint/2 + time.Duration(rand.Int63n(int64(hint)+1)))
}

// Submit enqueues one statement and returns a Future that completes
// when the server answers. On a pipelined session up to the negotiated
// window of submits proceed concurrently without waiting for each
// other; on a synchronous session Submit degrades to Exec and returns
// an already-completed Future, so callers can be written against Submit
// regardless of what the server negotiated.
func (c *Client) Submit(query string, args ...engine.Value) *Future {
	req := getRequest()
	req.Query = query
	for _, a := range args {
		req.Args = append(req.Args, ToWire(a))
	}
	defer putRequest(req) // submit/exec are done with req when they return
	c.mu.Lock()
	p, err := c.sessionLocked()
	c.mu.Unlock()
	if err != nil {
		return completedFuture(nil, err)
	}
	if p != nil {
		return p.submit(req)
	}
	return completedFuture(c.exec(req))
}

// sessionLocked ensures a live connection (redialing when allowed) and
// returns the active pipe, nil when the session is synchronous.
// Callers hold c.mu.
func (c *Client) sessionLocked() (*pipe, error) {
	if c.closed {
		return nil, ErrClientClosed
	}
	if c.conn == nil {
		if !c.opts.reconnect {
			return nil, fmt.Errorf("%w (connection poisoned: %v)", ErrClientClosed, c.lastErr)
		}
		if err := c.redialLocked(); err != nil {
			return nil, err
		}
	}
	return c.pipe, nil
}

func (c *Client) exec(req *Request) (*engine.Result, error) {
	c.mu.Lock()
	p, err := c.sessionLocked()
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	if p != nil {
		// Pipelined session: submit without holding the client lock —
		// the pipe serializes internally and other callers may overlap.
		c.mu.Unlock()
		return p.submit(req).Wait()
	}
	defer c.mu.Unlock()
	// One pooled buffer carries the request frame out and the response
	// payload in; the decoder copies what it keeps.
	buf := getEncBuf()
	defer putEncBuf(buf)
	frame, err := appendRequestJSON(buf.b[:0], req)
	buf.b = frame
	if err == nil {
		_, err = c.conn.Write(frame)
	}
	if err != nil {
		return nil, c.poisonLocked(fmt.Errorf("write request: %w", err))
	}
	var ans reply
	payload, err := readWholeFrame(c.conn, buf)
	if err == nil {
		err = decodeReplyJSON(payload, &ans)
	}
	if err != nil {
		return nil, c.poisonLocked(fmt.Errorf("read response: %w", err))
	}
	if ans.busy {
		// The server refused this connection at admission and is hanging
		// up; poison so the next call redials (or fails fast), honoring
		// the server's retry-after hint before that redial.
		c.retryHint = time.Duration(ans.retryAfterMS) * time.Millisecond
		return nil, c.poisonLocked(ErrServerBusy)
	}
	if err := ans.failure(); err != nil {
		return nil, err
	}
	return ans.res, nil
}

// Close tears down the connection. A closed client never reconnects.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	p := c.pipe
	conn := c.conn
	c.pipe = nil
	c.conn = nil
	c.mu.Unlock()
	if p != nil {
		// The pipe owns the conn: poison it (failing anything in flight)
		// and wait for its goroutines to drain.
		p.close()
		return nil
	}
	if conn != nil {
		return conn.Close()
	}
	return nil
}
