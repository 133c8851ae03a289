// watchdog.go — the query timeout, without a goroutine per request.
//
// The goroutine that holds a request executes it (session.execute). What
// bounds the execution is a watchdog the executor owns and reuses: a
// timer armed with Reset before the engine call and stopped after it,
// and — because the engine only ever asks ctx.Err() between its stages —
// the watchdog itself as the request's context. In the common case that
// is a timer arm/stop and two compare-and-swaps per request; no context,
// channel, timer or goroutine is created.
//
// Only a timeout that actually fires costs anything. The request is in
// the running state while the engine has it, and two parties race to
// take it out: the executor when the engine returns (disarm), the
// timer's callback when the deadline passes (fire). The winner owns the
// answer. When fire wins it answers the client at once, settles what
// admit and execute opened, and starts a replacement executor that
// inherits everything the loser held of the session — the serving role
// and the session's teardown on a synchronous session, the pool seat on
// a widened one. The loser is a stray from then on: it still runs inside
// the engine (which aborts at its next stage boundary), keeps only its
// own count in Server.wg so a drain accounts for it, and on return
// discards its result and exits.
package wire

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// Watchdog phases, the low watchPhaseBits of watchdog.state.
const (
	watchIdle    = iota // between requests
	watchRunning        // the engine has a request; disarm and fire race out of here
	watchFired          // fire won: terminal, this watchdog's executor is a stray
)

const watchPhaseBits = 2

// watchdog is one executor's reusable query-timeout guard, and the
// context its requests execute under.
type watchdog struct {
	ss *session

	// state is epoch<<watchPhaseBits | phase. The epoch guards against a
	// late callback: a timer whose Stop reports false has a callback in
	// flight that lost (or will lose) its request to disarm, and it must
	// not be able to claim the executor's next one. disarm retires such a
	// timer and moves to a new epoch; each timer's callback only ever
	// claims the epoch it was created in.
	state atomic.Uint64
	epoch uint64      // the executor's; fire reads it from state only
	timer *time.Timer // nil until first armed and after a retirement
	t     ticket      // the request in hand, for fire to answer
	done  chan struct{}
}

func newWatchdog(ss *session) *watchdog {
	return &watchdog{ss: ss, done: make(chan struct{})}
}

// arm puts t in the running state and starts the clock, if there is one.
func (w *watchdog) arm(t *ticket) {
	w.t = *t
	w.state.Store(w.epoch<<watchPhaseBits | watchRunning)
	switch d := w.ss.s.queryTimeout; {
	case d <= 0:
	case w.timer == nil:
		epoch := w.epoch
		w.timer = time.AfterFunc(d, func() { w.fire(epoch) })
	default:
		w.timer.Reset(d)
	}
}

// disarm takes the request back from the running state. False means fire
// got there first: the caller is a stray.
func (w *watchdog) disarm() bool {
	base := w.epoch << watchPhaseBits
	if !w.state.CompareAndSwap(base|watchRunning, base|watchIdle) {
		// fire took the replacement's count in Server.wg before closing
		// done; until then the stray keeps its own, so the group cannot
		// touch zero between the two.
		<-w.done
		return false
	}
	if w.timer != nil && !w.timer.Stop() {
		w.epoch++
		w.timer = nil
	}
	return true
}

// fire is the timer's callback: the deadline of the request armed in
// epoch passed. If the request is still running it is now the
// watchdog's: the client is answered, the books are settled, and a
// replacement executor takes over from the stray.
func (w *watchdog) fire(epoch uint64) {
	base := epoch << watchPhaseBits
	if !w.state.CompareAndSwap(base|watchRunning, base|watchFired) {
		return // the executor finished first; Stop came too late for this callback
	}
	ss, t := w.ss, w.t
	s := ss.s
	s.wg.Add(1) // the replacement's; the stray still holds its own (see disarm)
	close(w.done)
	s.settle(&t)
	t.ans = reply{err: fmt.Sprintf("query timeout after %s", s.queryTimeout)}
	if ss.window == nil {
		go ss.resume(t)
		return
	}
	// The answer is queued before the replacement can give the seat up:
	// out cannot have been closed yet.
	ss.deliver(t)
	go ss.work()
}

// The context a request executes under. Only Err matters to the engine,
// which polls it between stages; Done is closed at the same moment for
// anything that would rather wait.

// Deadline reports no deadline: the executor does not read the clock to
// arm the timer, and nothing downstream schedules by it.
func (w *watchdog) Deadline() (time.Time, bool) { return time.Time{}, false }

func (w *watchdog) Done() <-chan struct{} { return w.done }

func (w *watchdog) Err() error {
	select {
	case <-w.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

func (w *watchdog) Value(any) any { return nil }
