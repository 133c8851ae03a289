package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/obs"
	"github.com/septic-db/septic/internal/overload"
)

// ErrServerBusy is the admission-control refusal: the server is at its
// connection limit and the accept backlog is full (or the wait timed
// out). Clients see it from Exec on a refused connection.
var ErrServerBusy = errors.New("server busy: connection limit reached")

// The shipped configuration: NewServer(db)'s and septicd's flag defaults.
const (
	// DefaultMaxConns caps concurrently served connections.
	DefaultMaxConns = 256
	// DefaultQueryTimeout bounds one query's execution.
	DefaultQueryTimeout = 30 * time.Second
	// DefaultIdleTimeout disconnects a session that sends nothing.
	DefaultIdleTimeout = 5 * time.Minute
	// DefaultWriteTimeout disconnects a client that stops reading its
	// answers, so a stalled reader cannot hold a connection slot.
	DefaultWriteTimeout = 30 * time.Second
	// DefaultPipelineWorkers is the per-session worker pool size.
	DefaultPipelineWorkers = 4
	// DefaultMaxInFlight bounds requests inside the server for one
	// session (queued + executing + unwritten).
	DefaultMaxInFlight = 64
)

// Server serves the wire protocol for one database instance. SEPTIC, if
// installed, is already inside the engine — the server is protection-
// agnostic, exactly like a stock MySQL front end.
//
// NewServer(db) with no options is the server septicd ships: the
// Default* limits above — an idle deadline, a per-query execution
// timeout, a write deadline on every answer, a max-connections admission
// gate with a bounded backlog — and graceful drain via Shutdown; an
// option set to zero turns its limit off, and the torn-frame read
// deadline is opt-in. Every query is
// panic-contained — a crash in the engine or a hook that escapes the
// guard's own containment is converted into an error response for that
// query, never a server crash.
//
// Every connection is one session on one request path (see session):
// read → hello? → window → admit → execute → complete. A session starts
// synchronous — JSON frames, one request inside the server — and an
// accepted version-2 HELLO widens it in place to the pipelined binary
// transport: a per-session worker pool executes up to
// WithPipelineWorkers requests concurrently (at most WithMaxInFlight
// inside the server), and a writer coalesces completed responses — in
// completion order, not submission order — into batched flushes.
type Server struct {
	db *engine.DB

	// resolveDomain maps a HELLO-declared app name to the protection
	// domain the session will be reported as bound to (the HelloAck);
	// nil uses defaultDomainResolver. The mapping is informational for
	// the client — routing itself happens inside the guard.
	resolveDomain func(app string) string

	idleTimeout  time.Duration
	readTimeout  time.Duration
	writeTimeout time.Duration
	queryTimeout time.Duration
	maxConns     int
	backlog      int
	backlogWait  time.Duration

	// helloLimit is the newest protocol version this server accepts
	// (HelloVersion unless lowered by WithHelloVersionLimit, which
	// tests use to stand up a v1-only server).
	helloLimit      int
	pipelineWorkers int
	maxInFlight     int

	// replHandler, when set, receives connections whose HELLO asked for
	// a replication session (Hello.Repl). The handler owns the
	// connection until it returns — the session has already written the
	// acknowledgement and will close the conn afterwards. Nil means
	// replication hellos are refused with a clean error ack.
	replHandler func(conn net.Conn)

	// admission, when set, is the latency-aware admission controller on
	// the query hot path; execGate (sized admission.Capacity()) is the
	// bounded execution stage whose wait is the sojourn the control law
	// consumes. Both are nil unless WithAdmission armed them.
	admission *overload.Admission
	execGate  chan struct{}
	// resolveControls maps a session's app binding to its protection
	// domain's overload controls (quota + per-domain shed accounting);
	// nil disables per-domain overload control.
	resolveControls func(app string) *overload.Controls
	// shed counts typed shed responses written (admission + quota +
	// drain), all sessions.
	shed atomic.Int64

	// sem holds one token per admitted connection; nil = unlimited.
	sem     chan struct{}
	waiters atomic.Int64

	// done is closed once, when Close/Shutdown begins, releasing
	// admission waiters immediately.
	done chan struct{}
	// draining makes sessions stop picking up new requests.
	draining atomic.Bool

	panics   atomic.Int64
	refused  atomic.Int64
	inflight atomic.Int64 // window tokens held, all pipelined sessions

	// obsHub enables front-end instrumentation (nil = off). The hot
	// counter handles are resolved once in NewServer; they are nil-safe,
	// so the request path calls them unconditionally.
	obsHub        *obs.Hub
	obsConns      *obs.Counter // connections accepted
	obsQueries    *obs.Counter // requests answered, either framing (hellos too)
	obsV2Sessions *obs.Counter // sessions upgraded to the v2 transport
	obsV2In       *obs.Counter // v2 query frames received
	obsV2Out      *obs.Counter // v2 result frames written
	obsV2Flushes  *obs.Counter // v2 coalesced flushes (Out/Flushes = avg batch)
	obsV2BytesIn  *obs.Counter // v2 frame bytes received
	obsV2BytesOut *obs.Counter // v2 frame bytes written

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// ServerOption configures a Server at construction time.
type ServerOption func(*Server)

// WithIdleTimeout disconnects a session that sends no request for d: a
// client holding a connection open but sending nothing (slow-loris
// style) is cut loose instead of pinning a goroutine and an admission
// slot forever. Zero disables the timeout.
func WithIdleTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.idleTimeout = d }
}

// WithReadTimeout bounds receiving the remainder of a request frame
// once its header has arrived. It is the torn-frame guard: a client
// that starts a frame and stalls is disconnected after d rather than
// holding the session half-read. Zero leaves the idle deadline (if any)
// in force for the whole frame.
func WithReadTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.readTimeout = d }
}

// WithWriteTimeout bounds each response write; a client that stops
// draining its receive window cannot wedge the serving goroutine. The
// default is DefaultWriteTimeout; zero turns the deadline off.
func WithWriteTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.writeTimeout = d }
}

// WithQueryTimeout bounds one query's execution. The deadline is
// enforced cooperatively — the engine checks cancellation between
// pipeline stages — with a watchdog response: if the query overruns, the
// client immediately receives a timeout error and the overrunning
// execution is abandoned to finish (and be discarded) on its own. Zero
// disables the timeout: the watchdog's timer is never armed.
func WithQueryTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.queryTimeout = d }
}

// WithMaxConns caps concurrently served connections at n (0 =
// unlimited). Connections beyond the cap wait in a bounded backlog (see
// WithAcceptBacklog); beyond that they are refused with a clean
// "server busy" wire error instead of queueing unboundedly.
func WithMaxConns(n int) ServerOption {
	return func(s *Server) { s.maxConns = n }
}

// WithAcceptBacklog sets how many over-limit connections may wait for a
// serving slot (n) and for how long (wait) before being refused. The
// defaults with a max-conns gate are n = max-conns and wait = 1s.
func WithAcceptBacklog(n int, wait time.Duration) ServerOption {
	return func(s *Server) { s.backlog = n; s.backlogWait = wait }
}

// WithHelloVersionLimit lowers the newest protocol version the server
// accepts (and advertises) to v. WithHelloVersionLimit(1) turns the
// server into a pre-pipelining build for interop tests: v2 clients get
// refused, downgrade, and proceed synchronously. Values outside
// [1, HelloVersion] are clamped.
func WithHelloVersionLimit(v int) ServerOption {
	return func(s *Server) {
		if v < helloVersionLegacy {
			v = helloVersionLegacy
		}
		if v > HelloVersion {
			v = HelloVersion
		}
		s.helloLimit = v
	}
}

// WithPipelineWorkers sets the per-connection worker pool size for
// pipelined (v2) sessions: up to n queries from one connection execute
// concurrently. n < 1 means DefaultPipelineWorkers.
func WithPipelineWorkers(n int) ServerOption {
	return func(s *Server) { s.pipelineWorkers = n }
}

// WithMaxInFlight bounds the requests inside the server for one
// pipelined session — queued for a worker, executing, or completed but
// not yet written — exactly: a request counts from the moment its frame
// is admitted to the window until its response (a shed response
// included) has been written. Reads beyond the bound apply natural
// backpressure (the reader blocks, the client's window fills). n < 1
// means DefaultMaxInFlight; n is clamped up to the worker pool size.
func WithMaxInFlight(n int) ServerOption {
	return func(s *Server) { s.maxInFlight = n }
}

// WithReplHandler enables replication sessions: a HELLO with the Repl
// flag (and protocol version 2) hands the connection — acknowledged,
// deadlines cleared — to h, which speaks the replication frame protocol
// on it until the session ends. Without this option replication hellos
// are refused in the ack, so a replica pointed at a non-primary server
// fails with a typed error instead of hanging.
func WithReplHandler(h func(conn net.Conn)) ServerOption {
	return func(s *Server) { s.replHandler = h }
}

// WithDomainResolver installs the app→domain mapping the server answers
// HELLO handshakes with: given the declared application name, it
// returns the protection domain name the session is bound to
// (internal/server answers from the guard's registry). Without a
// resolver the server echoes the declared app as the domain, or
// "default" when none was declared.
func WithDomainResolver(resolve func(app string) string) ServerOption {
	return func(s *Server) { s.resolveDomain = resolve }
}

// defaultDomainResolver is the no-registry fallback.
func defaultDomainResolver(app string) string {
	if app == "" {
		return "default"
	}
	return app
}

// WithAdmission installs a latency-aware admission controller on the
// query hot path. Admitted requests execute inside a bounded gate of
// admission.Capacity() slots; the time a request waits for a slot (plus,
// on pipelined sessions, its time in the worker queue) is the sojourn
// fed back to the controller. Arrivals past the queue-delay target are
// answered with a typed shed response carrying a retry-after hint — the
// session stays alive and nothing is ever silently dropped.
func WithAdmission(a *overload.Admission) ServerOption {
	return func(s *Server) { s.admission = a }
}

// WithOverloadControls installs the per-domain overload resolver: a
// session resolves its app binding to the domain's Controls at bind
// time (the default domain before any HELLO), and every request is
// charged against that domain's quota before it may occupy a shared
// queue slot — so a flooded tenant degrades alone.
func WithOverloadControls(resolve func(app string) *overload.Controls) ServerOption {
	return func(s *Server) { s.resolveControls = resolve }
}

// WithServerObs installs an observability hub on the front end:
// accepted-connection and answered-request counters, plus gauges for
// tracked sessions, admission backlog occupancy, refusals, contained
// panics, drain state, and the v2 transport (sessions, frames in/out,
// coalesced flushes, frame bytes, in-flight depth).
func WithServerObs(h *obs.Hub) ServerOption {
	return func(s *Server) { s.obsHub = h }
}

// NewServer wraps a database in a protocol server.
func NewServer(db *engine.DB, opts ...ServerOption) *Server {
	s := &Server{
		db:           db,
		conns:        make(map[net.Conn]struct{}),
		done:         make(chan struct{}),
		idleTimeout:  DefaultIdleTimeout,
		queryTimeout: DefaultQueryTimeout,
		writeTimeout: DefaultWriteTimeout,
		maxConns:     DefaultMaxConns,
		backlog:      -1, // "unset": defaulted from maxConns below
		backlogWait:  time.Second,
		helloLimit:   HelloVersion,
	}
	for _, o := range opts {
		o(s)
	}
	if s.resolveDomain == nil {
		s.resolveDomain = defaultDomainResolver
	}
	if s.pipelineWorkers < 1 {
		s.pipelineWorkers = DefaultPipelineWorkers
	}
	if s.maxInFlight < 1 {
		s.maxInFlight = DefaultMaxInFlight
	}
	if s.maxInFlight < s.pipelineWorkers {
		s.maxInFlight = s.pipelineWorkers
	}
	if s.maxConns > 0 {
		s.sem = make(chan struct{}, s.maxConns)
		if s.backlog < 0 {
			s.backlog = s.maxConns
		}
	}
	if s.admission != nil {
		s.execGate = make(chan struct{}, s.admission.Capacity())
	}
	if s.obsHub != nil {
		m := s.obsHub.Metrics
		s.obsConns = m.Counter("wire.conns.accepted")
		s.obsQueries = m.Counter("wire.queries.answered")
		s.obsV2Sessions = m.Counter("wire.v2.sessions")
		s.obsV2In = m.Counter("wire.v2.frames.in")
		s.obsV2Out = m.Counter("wire.v2.frames.out")
		s.obsV2Flushes = m.Counter("wire.v2.flushes")
		s.obsV2BytesIn = m.Counter("wire.v2.bytes.in")
		s.obsV2BytesOut = m.Counter("wire.v2.bytes.out")
		m.GaugeFunc("wire.v2.inflight", s.inflight.Load)
		m.GaugeFunc("wire.conns.tracked", func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return int64(len(s.conns))
		})
		m.GaugeFunc("wire.backlog.waiters", s.waiters.Load)
		m.GaugeFunc("wire.conns.refused", s.refused.Load)
		m.GaugeFunc("wire.panics", s.panics.Load)
		m.GaugeFunc("wire.draining", func() int64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
		m.GaugeFunc("wire.overload.sheds", s.shed.Load)
		if s.admission != nil {
			m.GaugeFunc("wire.overload.queue_depth", s.admission.Depth)
			m.GaugeFunc("wire.overload.shedding", func() int64 {
				if s.admission.Shedding() {
					return 1
				}
				return 0
			})
		}
	}
	return s
}

// Listen binds addr ("127.0.0.1:0" for an ephemeral test port) and
// starts accepting connections in a background goroutine. It returns the
// bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("listen %s: %w", addr, err)
	}
	if err := s.Serve(ln); err != nil {
		_ = ln.Close()
		return "", err
	}
	return ln.Addr().String(), nil
}

// Serve accepts connections from ln in a background goroutine. Tests
// and chaos harnesses use it to serve through an instrumented listener.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("server already closed")
	}
	s.listener = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// acceptLoop accepts until the listener is closed. A transient accept
// failure (ECONNABORTED, EMFILE under fd pressure, an injected fault)
// is retried with capped exponential backoff instead of killing the
// server; only net.ErrClosed — shutdown — ends the loop.
func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || s.isClosed() {
				return
			}
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			select {
			case <-time.After(backoff):
			case <-s.done:
				return
			}
			continue
		}
		backoff = 0
		s.obsConns.Inc()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()

		go func() {
			defer s.wg.Done()
			s.admitAndServe(conn)
		}()
	}
}

// admitAndServe passes the connection through the admission gate, then
// serves it. Refused connections receive one "server busy" response
// frame so the client fails cleanly instead of seeing a bare hangup.
func (s *Server) admitAndServe(conn net.Conn) {
	if s.sem != nil && !s.acquireConnSlot(conn) {
		s.forget(conn)
		return
	}
	ss := &session{s: s, conn: conn, r: conn, ctl: s.controlsFor("")}
	if ss.serve() {
		ss.close()
	}
}

// acquireConnSlot takes one max-conns token for conn, waiting in the
// bounded backlog if none is free; false means conn was refused (and
// answered) or the server is closing.
func (s *Server) acquireConnSlot(conn net.Conn) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	// No free slot: join the bounded backlog or be refused.
	if int(s.waiters.Add(1)) > s.backlog {
		s.waiters.Add(-1)
		s.refuse(conn)
		return false
	}
	timer := time.NewTimer(s.backlogWait)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		s.waiters.Add(-1)
		return true
	case <-timer.C:
		s.waiters.Add(-1)
		s.refuse(conn)
		return false
	case <-s.done:
		s.waiters.Add(-1)
		return false
	}
}

// refuse answers one admission rejection and hangs up. The busy frame
// carries the backlog wait as a retry-after hint: a herd of refused
// clients redialing immediately is exactly what exhausted the slots, so
// the hint (jittered client-side) spreads the retries over at least one
// backlog interval.
func (s *Server) refuse(conn net.Conn) {
	s.refused.Add(1)
	_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
	_ = WriteJSONFrame(conn, &Response{
		Error:        ErrServerBusy.Error(),
		Busy:         true,
		RetryAfterMS: retryAfterMS(s.backlogWait),
	})
}

// Shed response texts. Clients match on the Shed flag, never on these
// strings.
const (
	shedMsgOverload = "server overloaded: request shed, retry after backoff"
	shedMsgQuota    = "domain quota exceeded: request shed, retry after backoff"
	shedMsgDraining = "server draining: request not executed"
)

// shedReply answers req with one typed overload rejection. The request
// never executes — it is recycled here — so the client may retry it
// safely after the hint.
func (s *Server) shedReply(req *Request, msg string, retryAfter time.Duration) reply {
	putRequest(req)
	s.shed.Add(1)
	return reply{err: msg, shed: true, retryAfterMS: retryAfterMS(retryAfter)}
}

// retryAfterMS converts a hint to wire milliseconds, rounding a
// sub-millisecond hint up so a hint is never silently lost.
func retryAfterMS(d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	if ms := d.Milliseconds(); ms > 0 {
		return ms
	}
	return 1
}

// session is one client connection on the server's only request path
// (DESIGN.md §10.4):
//
//	read → hello? → window → admit → execute → complete
//
// A session starts synchronous: JSON frames, one request inside the
// server, executed and answered on the serving goroutine. An accepted
// version-2 HELLO widens the same session in place (widen): frames turn
// binary, admitted requests are handed to a worker pool, and a writer
// goroutine completes them in whatever order they finish. The steps and
// their order are the same either way; only read's framing, which
// goroutine runs execute, and how the answer is rendered (a JSON frame
// written at once, or a binary one queued for the writer) differ.
//
// The goroutine that executes a request is the session's executor: the
// serving goroutine while synchronous, a pool worker once widened. It
// runs the request itself, under its own watchdog (watchdog.go); only a
// query timeout that actually fires takes a request away from it.
type session struct {
	s    *Server
	conn net.Conn
	r    io.Reader            // conn, behind a buffer once widened
	hdr  [frameHeaderLen]byte // read scratch for the length prefix
	app  string               // domain binding: empty until a HELLO binds it
	ctl  *overload.Controls   // the bound domain's overload controls, or nil

	// Pipelined state, nil until widen.
	buf        *encBuf       // read scratch; decoded requests copy out of it
	window     chan struct{} // one token per request inside the server
	in         chan ticket   // admitted, waiting for a worker
	out        chan ticket   // answered and encoded, waiting for the writer
	workers    sync.WaitGroup
	writerDone chan struct{}
}

// ticket is one request inside the server, from admit to complete.
type ticket struct {
	seq     uint64          // echoed by the binary response frame; 0 on JSON
	req     *Request        // owned by the goroutine executing it; recycled already if shed
	ans     reply           // the answer: set by admit (shed), execute, or the watchdog
	frame   *encBuf         // ans as frame bytes, once delivered on a pipelined session
	arrival time.Time       // when admission admitted it; zero when unarmed
	sojourn time.Duration   // arrival → through the execution gate
	quota   *overload.Quota // charged in admit, released by settle
}

// serve runs the session until the client disconnects, a deadline
// fires, the server drains, the peer violates the protocol, or a
// replication HELLO hands the connection away. It reports whether the
// calling goroutine still owns the session: false means a watchdog took
// a request — and with it the session — away from it, a replacement is
// serving on, and the caller must touch nothing of the session again.
func (ss *session) serve() (owner bool) {
	w := newWatchdog(ss)
	for {
		req := getRequest()
		seq, err := ss.read(req)
		if err != nil {
			putRequest(req)
			return true
		}
		if req.Hello != nil {
			ack, next := ss.hello(req.Hello)
			putRequest(req)
			if !ss.send(jsonFrame(ack)) {
				return true
			}
			switch next {
			case helloWiden:
				ss.widen() // the ack just written was the last JSON frame
			case helloRepl:
				// The replication handler owns the conn from here and
				// paces itself: the serving deadlines are cleared.
				_ = ss.conn.SetReadDeadline(time.Time{})
				_ = ss.conn.SetWriteDeadline(time.Time{})
				ss.s.replHandler(ss.conn)
				return true
			}
			continue
		}
		if ss.window != nil {
			// Taken here, returned by complete once the response is
			// written: WithMaxInFlight bounds exactly the requests in
			// between. A full window blocks the reader, which is the
			// backpressure a client that outruns the server feels.
			ss.window <- struct{}{}
			ss.s.inflight.Add(1)
		}
		t := ss.admit(seq, req)
		switch {
		case ss.window == nil:
			if !t.ans.shed && !ss.execute(w, &t) {
				return false
			}
			if !ss.answer(&t.ans) {
				return true
			}
		case t.ans.shed:
			ss.deliver(t) // shed at arrival: never occupies a queue slot
		default:
			ss.in <- t
		}
	}
}

// resume is the serving goroutine a watchdog starts in place of the one
// it took a synchronous session from: it answers the timed-out request
// and serves on as the session's owner.
func (ss *session) resume(t ticket) {
	defer ss.s.wg.Done()
	if !ss.answer(&t.ans) || ss.serve() {
		ss.close()
	}
}

// errNotQuery ends a pipelined session whose peer sent anything but a
// query frame.
var errNotQuery = errors.New("protocol error: expected a query frame")

// read receives one request under the idle (until the frame starts) and
// read (until it is complete) deadlines; a draining server reads
// nothing more. Any error ends the session. On a pipelined session that
// includes a non-query frame or a malformed body: the framing is
// length-delimited, so the stream is technically recoverable, but a peer
// that sends garbage is not a peer to keep serving.
func (ss *session) read(req *Request) (seq uint64, err error) {
	s := ss.s
	if s.draining.Load() {
		return 0, net.ErrClosed
	}
	if s.idleTimeout > 0 {
		_ = ss.conn.SetReadDeadline(time.Now().Add(s.idleTimeout))
	}
	n, err := readFrameHeader(ss.r, ss.hdr[:])
	if err != nil {
		return 0, err
	}
	if s.readTimeout > 0 {
		_ = ss.conn.SetReadDeadline(time.Now().Add(s.readTimeout))
	}
	if ss.window == nil {
		buf := getEncBuf()
		payload, err := readPayload(ss.r, n, buf)
		if err == nil {
			err = decodeRequestJSON(payload, req)
		}
		putEncBuf(buf)
		return 0, err
	}
	seq, typ, body, err := readBinaryFramePayload(ss.r, n, ss.buf)
	if err == nil && typ != frameQuery {
		err = errNotQuery
	}
	if err == nil {
		err = decodeRequestBody(body, req)
	}
	if err == nil {
		s.obsV2In.Inc()
		s.obsV2BytesIn.Add(int64(n) + frameHeaderLen)
	}
	return seq, err
}

// helloNext is what an answered handshake makes of the session.
type helloNext int

const (
	helloStay  helloNext = iota // synchronous, bound or (on refusal) as it was
	helloWiden                  // bound, and pipelined from the next frame on
	helloRepl                   // handed to the replication handler
)

// hello answers one handshake frame. Version skew is handled the
// conservative way: a client NEWER than the server accepts is refused
// (it may rely on semantics this server lacks) and the session stays as
// it was — alive, so the client can retry with an older hello or carry
// on as a legacy session in the default domain. Every refusal carries an
// error text plus an ack advertising the newest version the server does
// accept: that is what lets a pipelining client downgrade automatically,
// and it means a replica pointed at a v1-only or non-primary server gets
// a diagnosable answer instead of a hang.
func (ss *session) hello(h *Hello) (*Response, helloNext) {
	s := ss.s
	ack := &HelloAck{Version: s.helloLimit}
	next, refusal := helloStay, ""
	switch {
	case h.Version > s.helloLimit:
		refusal = fmt.Sprintf("hello version %d unsupported (server speaks ≤ %d)",
			h.Version, s.helloLimit)
	case h.Repl && h.Version < HelloVersion:
		refusal = fmt.Sprintf("replication requires protocol version %d (hello declared %d)",
			HelloVersion, h.Version)
	case h.Repl && s.replHandler == nil:
		refusal = "replication not enabled on this server"
	case h.Repl:
		ack.Repl, next = true, helloRepl
	default:
		ss.app, ss.ctl = h.App, s.controlsFor(h.App)
		ack.Domain = s.resolveDomain(h.App)
		if h.Version >= HelloVersion {
			next = helloWiden
		}
	}
	return &Response{Error: refusal, Hello: ack}, next
}

// controlsFor resolves the overload controls for a session's app
// binding; nil when per-domain control is not configured.
func (s *Server) controlsFor(app string) *overload.Controls {
	if s.resolveControls == nil {
		return nil
	}
	return s.resolveControls(app)
}

// admit runs the overload checks a request must pass before it may
// occupy a queue slot, in order: the domain's quota first (a flooded
// tenant is rejected before it can consume shared budget), then the
// shared admission bound. A rejected request comes back already
// answered — t.ans is its typed shed — and is never executed. With no
// overload control configured admit only fills in the ticket.
func (ss *session) admit(seq uint64, req *Request) ticket {
	s := ss.s
	t := ticket{seq: seq, req: req}
	if ss.ctl != nil {
		t.quota = ss.ctl.Quota
	}
	if ok, retryAfter := t.quota.Acquire(); !ok {
		t.ans = s.shedReply(req, shedMsgQuota, retryAfter)
		return t
	}
	if s.admission != nil {
		if ok, retryAfter := s.admission.Arrive(); !ok {
			t.quota.Release()
			ss.ctl.NoteShed()
			t.ans = s.shedReply(req, shedMsgOverload, retryAfter)
			return t
		}
		t.arrival = time.Now()
	}
	return t
}

// execute runs one admitted request to its answer on the calling
// goroutine — the session's executor — under the executor's watchdog w.
// With admission armed it first waits for a slot of the bounded
// execution gate: the wait since arrival (on a pipelined session that
// includes the worker queue) is the sojourn the control law consumes, the
// rest is service time. A request still waiting when shutdown begins is
// shed typed, not dropped or executed.
//
// The watchdog is armed around the engine call only. Whoever takes the
// request out of its running state owns the answer and settles what
// admit and execute opened: normally the executor, here; after a query
// timeout the watchdog, which has by then answered the client and
// started a replacement executor (watchdog.fire). execute then reports
// false: the caller has become a stray — its result is discarded, and it
// must exit without touching the session or the ticket again.
func (ss *session) execute(w *watchdog, t *ticket) bool {
	s := ss.s
	if s.admission != nil {
		select {
		case s.execGate <- struct{}{}:
		case <-s.done:
			s.admission.Cancel()
			t.quota.Release()
			t.ans = s.shedReply(t.req, shedMsgDraining, time.Second)
			return true
		}
		t.sojourn = time.Since(t.arrival)
	}
	w.arm(t)
	ans := s.handle(w, t.req, ss.app)
	putRequest(t.req) // the executor's own, stray or not: the engine is done with it
	if !w.disarm() {
		return false
	}
	s.settle(t)
	t.ans = ans
	return true
}

// settle closes what admit and execute opened for a request that reached
// the engine: the gate slot, the admission controller's sojourn/service
// sample, the quota charge. It runs once per such request, called by
// whoever won it — the executor that finished it or the watchdog that
// timed it out.
func (s *Server) settle(t *ticket) {
	if s.admission != nil {
		<-s.execGate
		s.admission.Done(t.sojourn, time.Since(t.arrival)-t.sojourn)
	}
	t.quota.Release()
}

// answer writes one answer on a synchronous session and completes the
// request; false ends the session. An answer the JSON framing cannot
// carry — a non-finite float, a result over the frame limit — goes out as
// an ordinary error in its place: the statement was benign and the
// session is sound, so the client is told, not hung up on.
func (ss *session) answer(ans *reply) bool {
	buf := getEncBuf()
	frame, err := appendReplyJSON(buf.b[:0], ans)
	if err != nil {
		frame, err = appendReplyJSON(frame[:0], &reply{err: jsonUnrepresentable + err.Error()})
	}
	buf.b = frame
	ok := ss.send(frame, err)
	putEncBuf(buf)
	return ok
}

// jsonUnrepresentable opens the error text sent in place of an answer
// the JSON framing cannot carry.
const jsonUnrepresentable = "result not representable in the JSON protocol: "

// send puts one synchronous answer's frame on the wire, in one Write
// under the write timeout, and completes the request. False — the frame
// could not be built (err) or written — ends the session.
func (ss *session) send(frame []byte, err error) bool {
	if err == nil {
		if ss.s.writeTimeout > 0 {
			_ = ss.conn.SetWriteDeadline(time.Now().Add(ss.s.writeTimeout))
		}
		_, err = ss.conn.Write(frame)
	}
	ss.complete(err == nil)
	return err == nil
}

// deliver renders an answered ticket as frame bytes, on the goroutine
// that answered it, and queues it for the writer. It cannot block: out
// holds maxInFlight tickets and the window admits no more than that.
func (ss *session) deliver(t ticket) {
	t.frame = getEncBuf()
	frame, err := appendReplyFrame(t.frame.b[:0], t.seq, &t.ans)
	if err != nil {
		frame = frame[:0] // over the frame limit: the writer ends the session
	}
	t.frame.b = frame
	t.ans = reply{} // encoded: the writer needs the bytes only
	ss.out <- t
}

// complete retires one request, whichever goroutine wrote its answer:
// a written answer is counted, and a pipelined request gives its window
// token back.
func (ss *session) complete(written bool) {
	if written {
		ss.s.obsQueries.Inc()
	}
	if ss.window != nil {
		ss.s.inflight.Add(-1)
		<-ss.window
	}
}

// widen turns the session pipelined. From here three roles share the
// connection:
//
//   - the serving goroutine keeps reading and admitting, and blocks on
//     the window when the session's in-flight bound is reached;
//   - a fixed pool of workers executes admitted requests concurrently
//     (each under its own watchdog, with the same panic containment as a
//     synchronous request), finishing in whatever order the engine does,
//     and encodes each answer into its frame;
//   - one writer writes and flushes finished frames (writeLoop).
//
// Neither channel can block its sender: both hold maxInFlight tickets
// and the window admits no more than that.
func (ss *session) widen() {
	s := ss.s
	s.obsV2Sessions.Inc()
	ss.r = bufio.NewReaderSize(ss.conn, v2BufSize)
	ss.buf = getEncBuf()
	ss.window = make(chan struct{}, s.maxInFlight)
	ss.in = make(chan ticket, s.maxInFlight)
	ss.out = make(chan ticket, s.maxInFlight)
	ss.writerDone = make(chan struct{})
	for i := 0; i < s.pipelineWorkers; i++ {
		ss.workers.Add(1)
		s.wg.Add(1)
		go ss.work()
	}
	go ss.writeLoop()
}

// work is one pool worker: an executor with a seat in ss.workers and,
// like every executor, a count in the server's WaitGroup for as long as
// it lives. A worker that loses a request to its watchdog leaves at once
// and keeps the seat taken: the replacement the watchdog started has
// inherited it, so out cannot close before the timeout answer, and a
// stray that never returns holds up neither close nor the other workers
// — only the server's drain, which accounts for it until its deadline.
func (ss *session) work() {
	defer ss.s.wg.Done()
	w := newWatchdog(ss)
	for t := range ss.in {
		if !ss.execute(w, &t) {
			return
		}
		ss.deliver(t)
	}
	ss.workers.Done()
}

// close tears the session down, once, on the goroutine that owns it when
// serve returns. A widened session goes in order — the reader has
// stopped → in closes → workers finish and exit → out closes → the
// writer flushes what remains and exits — so a graceful drain drops no
// response; then the connection slot and the connection itself go.
func (ss *session) close() {
	if ss.window != nil {
		close(ss.in)
		ss.workers.Wait()
		close(ss.out)
		<-ss.writerDone
		putEncBuf(ss.buf)
	}
	if ss.s.sem != nil {
		<-ss.s.sem
	}
	ss.s.forget(ss.conn)
}

// writeLoop is the pipelined session's writer: it drains finished
// requests, copying their frames back-to-back into a buffered writer,
// and flushes once per drained batch — the write coalescing that turns
// a burst of small responses into one syscall. It never blocks teardown
// on a dead peer: after a write error it closes the conn and keeps
// completing requests without writing them.
func (ss *session) writeLoop() {
	defer close(ss.writerDone)
	s, conn := ss.s, ss.conn
	bw := bufio.NewWriterSize(conn, v2BufSize)
	failed := false
	for t := range ss.out {
		if s.writeTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
		}
	drain:
		for {
			if !failed {
				failed = !ss.writeResult(bw, t.frame.b)
			}
			putEncBuf(t.frame)
			ss.complete(!failed)
			select {
			case next, ok := <-ss.out:
				if !ok {
					break drain
				}
				t = next
			default:
				break drain
			}
		}
		if !failed {
			if err := bw.Flush(); err != nil {
				failed = true
				_ = conn.Close()
			} else {
				s.obsV2Flushes.Inc()
			}
		}
	}
}

// writeResult copies one response frame into the writer's buffer. It
// reports false — after closing the conn — on a write failure or a frame
// deliver could not encode (empty); the caller then discards the rest of
// the session's output.
func (ss *session) writeResult(bw *bufio.Writer, frame []byte) bool {
	if len(frame) > 0 {
		if _, err := bw.Write(frame); err == nil {
			ss.s.obsV2Out.Inc()
			ss.s.obsV2BytesOut.Add(int64(len(frame)))
			return true
		}
	}
	_ = ss.conn.Close()
	return false
}

// handle executes one request against the engine. It is panic-contained:
// a fault that unwinds out of the engine (or a hook whose own
// containment is disabled) becomes a structured error answer plus a
// logged incident — one query fails, the server and every other session
// keep going. The answer carries the engine's own result; whoever
// renders it (deliver, answer) only reads it.
func (s *Server) handle(ctx context.Context, req *Request, app string) (ans reply) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			log.Printf("wire: contained panic serving query: %v\n%s", r, debug.Stack())
			ans = reply{err: fmt.Sprintf("internal error: query failed: %v", r)}
		}
	}()
	var (
		res *engine.Result
		err error
	)
	if len(req.Args) > 0 {
		args := make([]engine.Value, len(req.Args))
		for i, a := range req.Args {
			args[i] = FromWire(a)
		}
		res, err = s.db.ExecAppContext(ctx, app, req.Query, args...)
	} else {
		res, err = s.db.ExecAppContext(ctx, app, req.Query)
	}
	if err != nil {
		return reply{err: err.Error(), blocked: errors.Is(err, engine.ErrQueryBlocked)}
	}
	return reply{res: res}
}

// forget drops conn from the tracked set and closes it.
func (s *Server) forget(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	_ = conn.Close()
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Panics returns the number of contained serving panics (incidents).
func (s *Server) Panics() int64 { return s.panics.Load() }

// Refused returns the number of connections turned away by admission
// control.
func (s *Server) Refused() int64 { return s.refused.Load() }

// InFlight returns the number of requests currently inside the server
// on pipelined sessions (queued, executing, or completed but
// unwritten) — per session never more than WithMaxInFlight.
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// Sheds returns the number of typed shed responses written (admission,
// quota, and drain rejections), summed over all sessions.
func (s *Server) Sheds() int64 { return s.shed.Load() }

// Draining reports whether shutdown has begun — with Admission's
// Shedding, the /healthz readiness signal.
func (s *Server) Draining() bool { return s.draining.Load() }

// beginClose transitions to closed exactly once and returns the
// listener plus whether this call did the transition.
func (s *Server) beginClose(interrupt bool) (net.Listener, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	s.closed = true
	s.draining.Store(true)
	close(s.done)
	if interrupt {
		// Wake sessions blocked waiting for their next request: an
		// immediate read deadline fails the pending (idle) read while a
		// query already executing proceeds to answer and then exits the
		// loop via the draining flag.
		now := time.Now()
		for conn := range s.conns {
			_ = conn.SetReadDeadline(now)
		}
	} else {
		for conn := range s.conns {
			_ = conn.Close()
		}
	}
	return s.listener, true
}

// Shutdown stops the server gracefully: stop accepting, let in-flight
// queries finish and answer, then — if ctx expires first — force-close
// whatever is left. Idle sessions are disconnected immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	ln, first := s.beginClose(true)
	if !first {
		return nil
	}
	var lnErr error
	if ln != nil {
		lnErr = ln.Close()
	}
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return lnErr
	case <-ctx.Done():
	}
	// Drain deadline passed: force-close surviving connections. Their
	// serving goroutines fail out of the next read/write immediately;
	// abandoned query watchdog strays are given a short grace.
	s.mu.Lock()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	select {
	case <-drained:
	case <-time.After(time.Second):
	}
	return ctx.Err()
}

// Close stops the server immediately: stop accepting, drop live
// connections and wait for the serving goroutines to exit.
func (s *Server) Close() error {
	ln, first := s.beginClose(false)
	if !first {
		return nil
	}
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}
