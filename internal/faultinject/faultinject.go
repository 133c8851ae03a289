// Package faultinject is the repository's fault-injection harness: the
// controlled way to break the system on purpose so the chaos suite can
// assert that a self-protecting database degrades predictably. SEPTIC's
// whole premise is that protection lives inside the DBMS — which means a
// crash or hang in the protection path is itself a denial of service on
// every client. This package makes those faults reproducible.
//
// Three fault families are provided:
//
//   - Pipeline fault points: the query pipeline (engine stages, SEPTIC's
//     hook) calls Hit(site) at named sites. Unarmed, a hit is one atomic
//     pointer load — cheap enough to stay in the production hot path.
//     Tests Arm a Hook that sleeps, panics or fails at chosen sites.
//
//   - Transport faults: Conn wraps a net.Conn and injects latency, torn
//     frames, connection resets at byte offsets and byte corruption,
//     all driven by a deterministic seed so a failing chaos run replays
//     exactly. FlakyListener injects transient Accept errors,
//     CloseErrListener a failing Close.
//
//   - Kill points: the durability machinery (internal/wal, the core
//     checkpointer, Store.Save) hits named sites around every append,
//     fsync, rotation and atomic rename. A KillPoint hook panics with
//     the Crash sentinel mid-operation — simulating the process dying
//     with a torn frame or a half-finished snapshot on disk — and a
//     FailPoint ErrHook makes the same sites fail with an error
//     instead. The crash-chaos suite drives both.
package faultinject

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
)

// Pipeline fault-point sites. The names are stable identifiers used by
// chaos tests to target one stage.
const (
	// SiteEngineParse fires before a statement is parsed.
	SiteEngineParse = "engine/parse"
	// SiteEngineValidate fires before catalog validation.
	SiteEngineValidate = "engine/validate"
	// SiteEngineHook fires before the security hook is invoked.
	SiteEngineHook = "engine/hook"
	// SiteEngineExecute fires before the executor runs the statement.
	SiteEngineExecute = "engine/execute"
	// SiteCoreHook fires on entry to SEPTIC's BeforeExecute, before the
	// verdict cache is consulted.
	SiteCoreHook = "core/hook"
	// SiteCoreDetect fires on a verdict-memo miss of a known identifier
	// with a detection on, before the SQLI comparison.
	SiteCoreDetect = "core/detect"
)

// Durability fault-point sites: the kill points of the write-ahead log
// and checkpoint machinery (internal/wal, core.Persistence). A crash
// armed at any of these must leave the on-disk state recoverable — the
// crash-chaos suite kills a training replay here at random and asserts
// that no acknowledged update is lost and recovery converges.
const (
	// SiteWALAppend fires at the top of Log.Append, before any byte of
	// the frame is written.
	SiteWALAppend = "wal/append"
	// SiteWALShortWrite fires in the middle of a frame write — a crash
	// here leaves a torn frame on disk, the canonical power-loss tail.
	SiteWALShortWrite = "wal/append.short"
	// SiteWALFsync fires immediately before an fsync of the active
	// segment.
	SiteWALFsync = "wal/fsync"
	// SiteWALRotate fires at the start of segment rotation (seal + new
	// segment + directory fsync).
	SiteWALRotate = "wal/rotate"
	// SiteWALTrim fires before sealed segments are removed after a
	// checkpoint.
	SiteWALTrim = "wal/trim"
	// SiteAtomicWrite fires after the temp file of an atomic snapshot
	// write is written but before it is fsynced.
	SiteAtomicWrite = "wal/atomic.write"
	// SiteAtomicRename fires after the temp file is durable but before
	// it is renamed over the target.
	SiteAtomicRename = "wal/atomic.rename"
	// SiteCheckpoint fires at the start of a model-store checkpoint.
	SiteCheckpoint = "core/checkpoint"
	// SiteStoreSave fires inside Store.Save between serialization and
	// the atomic write.
	SiteStoreSave = "core/store.save"
)

// Replication fault-point sites: the kill points of a replica's apply
// path (core.ReplicaState). They are deliberately OUTSIDE KillSites():
// the replication chaos harness runs primary and replica in one process,
// so arming a shared wal/core site would also crash the primary's
// background goroutines uncontained. The repl sites fire only inside the
// replica's applier, whose session loop recovers Crash panics as a
// simulated replica death.
const (
	// SiteReplApply fires on entry to ReplicaState.ApplyRecord, before
	// the record is examined.
	SiteReplApply = "repl/apply"
	// SiteReplSnapshot fires on entry to ReplicaState.ApplySnapshot,
	// before the snapshot is decoded.
	SiteReplSnapshot = "repl/snapshot"
)

// KillSites lists every durability kill point, for harnesses that pick
// one at random.
func KillSites() []string {
	return []string{
		SiteWALAppend, SiteWALShortWrite, SiteWALFsync, SiteWALRotate,
		SiteWALTrim, SiteAtomicWrite, SiteAtomicRename, SiteCheckpoint,
		SiteStoreSave,
	}
}

// Crash is the panic value thrown by a kill-point hook: it simulates
// the process dying at the site — the harness recovers it at the replay
// boundary, abandons the half-written state exactly as a real crash
// would, and restarts from disk. Code on the panic path must never
// "clean up" durable state when unwinding a Crash; the whole point is
// that the bytes on disk stay as the crash left them.
type Crash struct{ Site string }

// Error makes Crash usable with recover-and-inspect helpers.
func (c Crash) Error() string { return "faultinject: killed at " + c.Site }

// IsCrash reports whether a recovered panic value is an injected kill.
func IsCrash(r any) bool {
	_, ok := r.(Crash)
	return ok
}

// KillPoint returns a Hook that panics with Crash{site} on the n-th hit
// of site (n = 1 kills the first hit). Other sites pass through
// unharmed, so one kill point can be armed while the rest of the
// pipeline runs normally.
func KillPoint(site string, n int64) Hook {
	var remaining atomic.Int64
	remaining.Store(n)
	return func(s string) {
		if s != site {
			return
		}
		if remaining.Add(-1) == 0 {
			panic(Crash{Site: site})
		}
	}
}

// Hook is a fault armed at pipeline sites. It runs synchronously on the
// query path: it may sleep (injected latency), panic (crash fault) or
// return normally. It must be safe for concurrent use — every session
// hits the same hook.
type Hook func(site string)

// armed holds the active hook; nil means fault injection is off.
var armed atomic.Pointer[Hook]

// Arm installs h at every fault point. Only one hook is active at a
// time; arming replaces the previous hook.
func Arm(h Hook) {
	if h == nil {
		armed.Store(nil)
		return
	}
	armed.Store(&h)
}

// Disarm turns fault injection off.
func Disarm() {
	armed.Store(nil)
}

// Armed reports whether a hook is installed.
func Armed() bool {
	return armed.Load() != nil
}

// Hit fires the fault point named site. Unarmed it is a single atomic
// load and a nil check — the production cost of being injectable.
func Hit(site string) {
	if h := armed.Load(); h != nil {
		(*h)(site)
	}
}

// ErrInjected is the base error of every transport fault this package
// manufactures; errors.Is(err, ErrInjected) distinguishes an injected
// failure from a genuine one in chaos-test assertions.
var ErrInjected = errors.New("faultinject: injected fault")

// ErrHook is an error-injecting fault armed at pipeline sites: unlike
// Hook it can make a site FAIL (an fsync returning EIO, a write running
// out of disk) rather than crash. A nil return passes the site through.
// It must be safe for concurrent use.
type ErrHook func(site string) error

// armedErr holds the active error hook; nil means off.
var armedErr atomic.Pointer[ErrHook]

// ArmErr installs h at every error-injection point, replacing any
// previous error hook.
func ArmErr(h ErrHook) {
	if h == nil {
		armedErr.Store(nil)
		return
	}
	armedErr.Store(&h)
}

// DisarmErr turns error injection off.
func DisarmErr() {
	armedErr.Store(nil)
}

// ErrArmed reports whether an error hook is installed.
func ErrArmed() bool {
	return armedErr.Load() != nil
}

// HitErr fires the error-injection point named site. Unarmed it is a
// single atomic load and a nil check.
func HitErr(site string) error {
	if h := armedErr.Load(); h != nil {
		return (*h)(site)
	}
	return nil
}

// FailPoint returns an ErrHook that fails the n-th hit of site with an
// error wrapping ErrInjected; every other hit and site passes.
func FailPoint(site string, n int64) ErrHook {
	var remaining atomic.Int64
	remaining.Store(n)
	return func(s string) error {
		if s != site {
			return nil
		}
		if remaining.Add(-1) == 0 {
			return fmt.Errorf("%w at %s", ErrInjected, site)
		}
		return nil
	}
}

// FlakyListener wraps a net.Listener and fails the first Failures calls
// to Accept with a transient (temporary) error before delegating. It
// exercises the server's transient-accept-error backoff: a correct
// accept loop retries; a naive one treats the first hiccup as fatal.
type FlakyListener struct {
	net.Listener
	remaining atomic.Int64
}

// NewFlakyListener wraps ln so its first failures Accepts fail.
func NewFlakyListener(ln net.Listener, failures int) *FlakyListener {
	fl := &FlakyListener{Listener: ln}
	fl.remaining.Store(int64(failures))
	return fl
}

// Accept implements net.Listener.
func (l *FlakyListener) Accept() (net.Conn, error) {
	if l.remaining.Add(-1) >= 0 {
		return nil, temporaryError{}
	}
	return l.Listener.Accept()
}

// CloseErrListener wraps a net.Listener whose Close closes it and then
// reports a failure anyway: the shutdown-path fault a teardown sequence
// must run past rather than stop at.
type CloseErrListener struct{ net.Listener }

// Close implements net.Listener.
func (l CloseErrListener) Close() error {
	_ = l.Listener.Close()
	return fmt.Errorf("%w: listener close", ErrInjected)
}

// temporaryError mimics a transient accept failure (ECONNABORTED,
// EMFILE): it reports Temporary() == true like the syscall errors do.
type temporaryError struct{}

func (temporaryError) Error() string   { return "faultinject: transient accept error" }
func (temporaryError) Timeout() bool   { return false }
func (temporaryError) Temporary() bool { return true }

func (temporaryError) Is(target error) bool { return target == ErrInjected }
