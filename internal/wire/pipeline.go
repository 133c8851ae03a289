// pipeline.go — the client half of the v2 pipelined transport.
//
// One pipe per negotiated connection. Callers submit requests from any
// number of goroutines; each submit takes a window token (the bounded
// in-flight window), registers a pending completion under the next
// sequence number, appends the encoded frame to a shared buffered
// writer and signals the flusher. A single reader goroutine receives
// response frames — in whatever order the server finished them — and
// completes the matching pending by sequence number. The flusher
// goroutine turns the write buffer into syscalls: it coalesces whatever
// accumulated since its last wake-up into one flush, so a full window
// of small requests leaves as a handful of writes instead of one each.
//
// Failure semantics follow the v1 client exactly: any transport or
// protocol error (including an unknown or duplicate sequence number)
// poisons the connection, every request in flight fails with a
// poisoned-connection error, and nothing is ever replayed — a request
// that died on the wire may have executed server-side.
package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"github.com/septic-db/septic/internal/engine"
)

// DefaultPipelineWindow bounds in-flight requests per pipelined client
// connection when WithPipeline is given a non-positive window.
const DefaultPipelineWindow = 16

// v2BufSize sizes the buffered reader/writer of a v2 connection end.
const v2BufSize = 32 << 10

// outcome is one completed request.
type outcome struct {
	res *engine.Result
	err error
}

// pending is the completion slot of one in-flight request. The channel
// has capacity 1 and is used exactly once per checkout, so pendings are
// pooled.
type pending struct {
	ch chan outcome
}

var pendingPool = sync.Pool{New: func() any {
	return &pending{ch: make(chan outcome, 1)}
}}

// Future is the handle of one pipelined request. Wait blocks until the
// server's response (or the connection's failure) and may be called
// more than once; the first call caches the outcome.
type Future struct {
	mu   sync.Mutex
	p    *pending
	res  *engine.Result
	err  error
	done bool
}

// Wait returns the request's result, blocking until it completes.
func (f *Future) Wait() (*engine.Result, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.done {
		o := <-f.p.ch
		f.res, f.err, f.done = o.res, o.err, true
		pendingPool.Put(f.p)
		f.p = nil
	}
	return f.res, f.err
}

// completedFuture wraps an already-known outcome (sync fallback and
// fail-fast paths).
func completedFuture(res *engine.Result, err error) *Future {
	return &Future{res: res, err: err, done: true}
}

// pipe is the per-connection v2 client state.
type pipe struct {
	owner *Client
	conn  net.Conn

	// write side: wmu serializes frame appends into bw; kick wakes the
	// flusher (capacity 1 — a pending wake-up covers any number of
	// appended frames, which is what makes flushes coalesce).
	wmu  sync.Mutex
	bw   *bufio.Writer
	kick chan struct{}

	// window holds one token per in-flight request.
	window chan struct{}

	// mu guards the sequence counter and the pending map.
	mu      sync.Mutex
	seq     uint64
	pending map[uint64]*pending
	broken  error // sticky poison cause; nil while healthy

	readerDone  chan struct{} // closed when the reader exits (pipe dead)
	flusherDone chan struct{}
}

// newPipe starts the reader and flusher for a freshly negotiated v2
// connection.
func newPipe(c *Client, conn net.Conn, window int) *pipe {
	if window <= 0 {
		window = DefaultPipelineWindow
	}
	p := &pipe{
		owner:       c,
		conn:        conn,
		bw:          bufio.NewWriterSize(conn, v2BufSize),
		kick:        make(chan struct{}, 1),
		window:      make(chan struct{}, window),
		pending:     make(map[uint64]*pending),
		readerDone:  make(chan struct{}),
		flusherDone: make(chan struct{}),
	}
	go p.readLoop()
	go p.flushLoop()
	return p
}

// submit sends one request and returns its Future. It blocks only on
// the in-flight window, never on the server's answer.
func (p *pipe) submit(req *Request) *Future {
	select {
	case p.window <- struct{}{}:
	case <-p.readerDone:
		return completedFuture(nil, p.failure())
	}

	p.mu.Lock()
	if p.broken != nil {
		err := p.broken
		p.mu.Unlock()
		<-p.window
		return completedFuture(nil, err)
	}
	p.seq++
	seq := p.seq
	pend := pendingPool.Get().(*pending)
	p.pending[seq] = pend
	p.mu.Unlock()

	buf := getEncBuf()
	frame, err := appendRequestFrame(buf.b[:0], seq, req)
	buf.b = frame
	if err == nil {
		p.wmu.Lock()
		_, err = p.bw.Write(frame)
		p.wmu.Unlock()
	}
	putEncBuf(buf)
	if err != nil {
		p.poison(fmt.Errorf("write request: %w", err))
		return &Future{p: pend}
	}
	select {
	case p.kick <- struct{}{}:
	default: // a wake-up is already pending; it covers this frame too
	}
	return &Future{p: pend}
}

// readLoop receives response frames and completes pendings by sequence
// number until the transport fails or the client closes.
func (p *pipe) readLoop() {
	defer close(p.readerDone)
	br := bufio.NewReaderSize(p.conn, v2BufSize)
	buf := getEncBuf()
	defer putEncBuf(buf)
	for {
		seq, typ, body, err := readBinaryFrame(br, buf)
		if err != nil {
			p.poison(fmt.Errorf("read response: %w", err))
			return
		}
		if typ != frameResult {
			p.poison(fmt.Errorf("protocol error: unexpected frame type 0x%02x", typ))
			return
		}
		p.mu.Lock()
		pend, ok := p.pending[seq]
		if ok {
			delete(p.pending, seq)
		}
		p.mu.Unlock()
		if !ok {
			p.poison(fmt.Errorf("protocol error: response for unknown sequence %d", seq))
			return
		}
		var ans reply
		if err := decodeReplyBody(body, &ans); err != nil {
			// The pending fails with the decode error; the stream
			// position is still sound (the frame was length-delimited),
			// but a corrupt frame means an unreliable peer — poison.
			pend.ch <- outcome{err: err}
			<-p.window
			p.poison(err)
			return
		}
		if err := ans.failure(); err != nil {
			pend.ch <- outcome{err: err}
		} else {
			pend.ch <- outcome{res: ans.res}
		}
		<-p.window
	}
}

// flushLoop drives buffered frames onto the wire. Each wake-up flushes
// everything appended since the previous flush — the client-side write
// coalescing that batches a burst of submits into one syscall.
func (p *pipe) flushLoop() {
	defer close(p.flusherDone)
	for {
		select {
		case <-p.kick:
			p.wmu.Lock()
			err := p.bw.Flush()
			p.wmu.Unlock()
			if err != nil {
				p.poison(fmt.Errorf("flush requests: %w", err))
				return
			}
		case <-p.readerDone:
			return
		}
	}
}

// poison marks the pipe dead exactly once: the connection is closed
// (unblocking the reader), every in-flight pending fails, and the
// owning client is told so its next call redials or fails fast.
func (p *pipe) poison(err error) {
	p.mu.Lock()
	if p.broken != nil {
		p.mu.Unlock()
		return
	}
	p.broken = err
	orphans := make([]*pending, 0, len(p.pending))
	for seq, pend := range p.pending {
		delete(p.pending, seq)
		orphans = append(orphans, pend)
	}
	p.mu.Unlock()

	_ = p.conn.Close()
	failure := p.failure()
	for _, pend := range orphans {
		pend.ch <- outcome{err: failure}
		<-p.window
	}
	p.owner.pipeBroken(p, err)
}

// failure is the error in-flight and later requests observe.
func (p *pipe) failure() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken == nil {
		return ErrClientClosed
	}
	return fmt.Errorf("%w (connection poisoned: %v)", ErrClientClosed, p.broken)
}

// close tears the pipe down (client Close or replacement by a redial).
func (p *pipe) close() {
	p.poison(errors.New("client closed"))
	<-p.readerDone
	<-p.flusherDone
}
