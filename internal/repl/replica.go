package repl

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/faultinject"
	"github.com/septic-db/septic/internal/wire"
)

// ErrUnsupported is the typed, terminal refusal a replica gets from a
// server that cannot serve replication: a v1-only server, a server
// without replication enabled, or any peer whose answer to the HELLO is
// not a replication ack. It is FATAL to the run loop — retrying cannot
// help, and a replica pointed at the wrong server must fail loudly, never
// hang or spin. A busy refusal at the query port's admission gate is not
// one: the server turned the connection away before reading the HELLO,
// so the replica retries it like a transport failure.
var ErrUnsupported = errors.New("repl: server does not support replication")

// ReplicaOptions tunes the replica transport.
type ReplicaOptions struct {
	// DialTimeout bounds one connection attempt (default 5s).
	DialTimeout time.Duration
	// HandshakeTimeout bounds the HELLO exchange (default 5s).
	HandshakeTimeout time.Duration
	// ReadTimeout bounds the wait for any stream frame; it must exceed
	// the primary's heartbeat interval with margin (default 4×500ms·2 =
	// 4s... default 4s).
	ReadTimeout time.Duration
	// BackoffBase and BackoffCap shape the reconnect delays: full jitter
	// on an exponential step, the same discipline the wire client uses
	// (defaults 10ms and 1s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
}

func (o *ReplicaOptions) fill() {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 5 * time.Second
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 4 * time.Second
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 10 * time.Millisecond
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = time.Second
	}
}

// Replica is the transport side of a read replica: it dials the
// primary, performs the JSON HELLO handshake with the Repl flag,
// subscribes after the apply state's resume position, and feeds every
// snapshot and record it receives into a core.ReplicaState. Transient
// failures reconnect with jittered exponential backoff and resume from
// the last applied sequence — a restart never re-requests the snapshot
// unless the primary has trimmed past the resume position. A typed
// refusal (ErrUnsupported) or an injected crash in the apply path ends
// the run loop for good.
type Replica struct {
	addr string
	st   *core.ReplicaState
	opts ReplicaOptions

	// dial is replaceable for tests (fault-wrapped conns).
	dial func(addr string) (net.Conn, error)

	mu      sync.Mutex
	conn    net.Conn // current session's conn, closed by Close
	stopped bool

	stopc chan struct{}
	done  chan struct{}
	err   atomic.Pointer[error]

	sessions atomic.Int64
}

// NewReplica builds a replica transport feeding st; call Start to run
// it.
func NewReplica(addr string, st *core.ReplicaState, opts ReplicaOptions) *Replica {
	opts.fill()
	return &Replica{
		addr:  addr,
		st:    st,
		opts:  opts,
		dial:  func(a string) (net.Conn, error) { return net.DialTimeout("tcp", a, opts.DialTimeout) },
		stopc: make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// SetDialFunc replaces the dialer (tests). Call before Start.
func (r *Replica) SetDialFunc(dial func(addr string) (net.Conn, error)) { r.dial = dial }

// Start launches the run loop.
func (r *Replica) Start() {
	go r.run()
}

// Done is closed when the run loop has exited — on Close, on a terminal
// refusal, or on a simulated crash in the apply path.
func (r *Replica) Done() <-chan struct{} { return r.done }

// Err reports why the run loop ended; nil after a clean Close.
// errors.Is(err, ErrUnsupported) identifies the typed refusal.
func (r *Replica) Err() error {
	if p := r.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Sessions counts connection attempts that passed the handshake.
func (r *Replica) Sessions() int64 { return r.sessions.Load() }

func (r *Replica) setErr(err error) {
	r.err.Store(&err)
}

// Close stops the run loop and waits for it to exit.
func (r *Replica) Close() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		<-r.done
		return
	}
	r.stopped = true
	close(r.stopc)
	if r.conn != nil {
		_ = r.conn.Close()
	}
	r.mu.Unlock()
	<-r.done
}

// run is the reconnect loop. Each session either streams until a
// transport failure (retry with backoff), is refused (terminal), or
// dies on an injected apply-path crash (terminal — the harness treats
// it as the replica process dying and boots a fresh one).
func (r *Replica) run() {
	defer close(r.done)
	defer r.st.SetConnState(core.ReplDisconnected)
	delay := r.opts.BackoffBase
	for {
		select {
		case <-r.stopc:
			return
		default:
		}
		crashed, err := r.runSession()
		switch {
		case crashed:
			r.setErr(err)
			return
		case err == nil:
			return // Close during a healthy session
		case errors.Is(err, ErrUnsupported):
			r.setErr(err)
			return
		}
		r.st.SetConnState(core.ReplDisconnected)
		// Full jitter on the exponential step, like the wire client's
		// reconnect: storms of replicas decorrelate. A busy refusal's hint
		// is honoured the same way the client honours it.
		wait := time.Duration(rand.Int63n(int64(delay) + 1))
		var busy interface{ RetryAfter() time.Duration }
		if errors.As(err, &busy) {
			if h := busy.RetryAfter(); h > 0 {
				wait = h/2 + time.Duration(rand.Int63n(int64(h)+1))
			}
		}
		select {
		case <-r.stopc:
			return
		case <-time.After(wait):
		}
		if delay *= 2; delay > r.opts.BackoffCap {
			delay = r.opts.BackoffCap
		}
	}
}

// runSession contains one session, converting an injected kill-point
// panic in the apply path (faultinject.SiteReplApply / SiteReplSnapshot)
// into a simulated process death: the panic unwinds to here, the
// half-applied state stays exactly as the crash left it, and the run
// loop exits — the chaos harness then "reboots" by building a fresh
// Septic over the same persistence directory.
func (r *Replica) runSession() (crashed bool, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if !faultinject.IsCrash(rec) {
				panic(rec)
			}
			crashed = true
			err = rec.(faultinject.Crash)
		}
	}()
	return false, r.session()
}

// session runs one connection: dial, handshake, subscribe, stream.
// A nil return means Close ended it.
func (r *Replica) session() error {
	r.st.SetConnState(core.ReplConnecting)
	conn, err := r.dial(r.addr)
	if err != nil {
		return fmt.Errorf("dial %s: %w", r.addr, err)
	}
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		_ = conn.Close()
		return nil
	}
	r.conn = conn
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.conn = nil
		r.mu.Unlock()
		_ = conn.Close()
	}()

	// Handshake: the ordinary JSON HELLO with the Repl flag. Any answer
	// to it but a replication ack — version skew, replication not enabled
	// — maps to the typed terminal error. A transport failure or the
	// query port's busy refusal is transient: the server may be
	// restarting into a newer build, or at its -max-conns limit.
	_ = conn.SetDeadline(time.Now().Add(r.opts.HandshakeTimeout))
	ack, refused, err := wire.HelloRoundTrip(conn, &wire.Hello{Version: wire.HelloVersion, Repl: true})
	if err != nil {
		return err
	}
	if refused == nil && !ack.Repl {
		refused = errors.New("handshake not acknowledged as replication")
	}
	if refused != nil {
		return fmt.Errorf("%w: %v", ErrUnsupported, refused)
	}
	_ = conn.SetDeadline(time.Time{})
	r.sessions.Add(1)

	// Subscribe after the last applied sequence — the resume that makes
	// a restart skip the snapshot when the primary still has the tail.
	if err := writeFrame(conn, appendSubscribe(nil, r.st.AppliedSeq())); err != nil {
		return err
	}
	r.st.SetConnState(core.ReplSyncing)

	var (
		buf       []byte
		snap      []byte // reassembling snapshot; nil when none in flight
		snapBar   uint64
		snapTotal uint64
		snapping  bool
	)
	for {
		_ = conn.SetReadDeadline(time.Now().Add(r.opts.ReadTimeout))
		payload, err := readFrame(conn, buf)
		if err != nil {
			if r.closedByStop() {
				return nil
			}
			return fmt.Errorf("stream read: %w", err)
		}
		buf = payload[:0]
		f, err := decodeFrame(payload)
		if err != nil {
			return err
		}
		switch f.typ {
		case frameSnapBegin:
			snap = make([]byte, 0, f.total)
			snapBar, snapTotal = f.barrier, f.total
			snapping = true
		case frameSnapChunk:
			if !snapping {
				return fmt.Errorf("snapshot chunk outside transfer")
			}
			if uint64(len(snap))+uint64(len(f.chunk)) > snapTotal {
				return fmt.Errorf("snapshot overflows announced size %d", snapTotal)
			}
			snap = append(snap, f.chunk...)
		case frameSnapEnd:
			if !snapping {
				return fmt.Errorf("snapshot end outside transfer")
			}
			if sum := crc32.Checksum(snap, castagnoli); sum != f.sum {
				return fmt.Errorf("snapshot checksum mismatch")
			}
			if err := r.st.ApplySnapshot(snapBar, snap); err != nil {
				return err
			}
			snap, snapping = nil, false
		case frameBatch:
			if snapping {
				return fmt.Errorf("batch inside snapshot transfer")
			}
			for _, rec := range f.recs {
				if err := r.st.ApplyRecord(rec.seq, rec.data); err != nil {
					return err
				}
			}
			if n := len(f.recs); n > 0 {
				r.st.ObserveSourceSeq(f.recs[n-1].seq)
			}
		case frameHeartbeat:
			// Heartbeats only flow on the live tail: catch-up is over.
			r.st.ObserveSourceSeq(f.lastSeq)
			r.st.SetConnState(core.ReplStreaming)
		case frameError:
			return fmt.Errorf("primary: %s", f.msg)
		default:
			return fmt.Errorf("unexpected frame 0x%02x", f.typ)
		}
	}
}

// closedByStop reports whether Close has fired (a read error after it
// is the expected conn teardown, not a failure).
func (r *Replica) closedByStop() bool {
	select {
	case <-r.stopc:
		return true
	default:
		return false
	}
}
