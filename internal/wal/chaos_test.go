package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/septic-db/septic/internal/faultinject"
)

// The group-commit chaos suite (run under -race by `make chaos`): what
// FsyncAlways promised when every append paid its own fsync under the
// log mutex must still hold now that concurrent appends share one fsync
// taken outside it.

// holdFsync arms a hook that parks the first goroutine to reach the
// fsync site — the leader of a flush, its mutex released — until release
// is called; entered is closed once it is parked. Later hits pass.
func holdFsync(t *testing.T) (entered <-chan struct{}, release func()) {
	t.Helper()
	in, out := make(chan struct{}), make(chan struct{})
	var first, released sync.Once
	faultinject.Arm(func(site string) {
		if site == faultinject.SiteWALFsync {
			first.Do(func() {
				close(in)
				<-out
			})
		}
	})
	release = func() { released.Do(func() { close(out) }) }
	t.Cleanup(func() {
		release()
		faultinject.Disarm()
	})
	return in, release
}

// waitFor polls cond until it holds; the conditions waited on here are
// other goroutines reaching a point inside Append that has no event to
// block on.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// appendAsync runs one Append per payload, each on its own goroutine,
// and reports every outcome on the returned channel.
type appendResult struct {
	seq uint64
	err error
}

func appendAsync(l *Log, payloads ...string) <-chan appendResult {
	out := make(chan appendResult, len(payloads))
	for _, p := range payloads {
		go func(p string) {
			seq, err := l.Append([]byte(p))
			out <- appendResult{seq, err}
		}(p)
	}
	return out
}

// TestChaosGroupCommitFaultsNeverLoseAckedAppends arms every kill and
// error site an appender crosses while 8 of them run, then "crashes" the
// process: every Append that returned nil is recovered with its payload,
// nothing above the durable horizon was acknowledged (so no member of a
// failed group was), and every fault that leaves the tail unknowable has
// poisoned the log.
func TestChaosGroupCommitFaultsNeverLoseAckedAppends(t *testing.T) {
	cases := []struct {
		site       string
		kill       bool
		wantPoison bool
	}{
		{faultinject.SiteWALAppend, true, false}, // nothing written yet
		{faultinject.SiteWALAppend, false, false},
		{faultinject.SiteWALShortWrite, true, true},
		{faultinject.SiteWALShortWrite, false, true},
		{faultinject.SiteWALFsync, true, true}, // hits the leader, mutex released
		{faultinject.SiteWALFsync, false, true},
		{faultinject.SiteWALRotate, true, false}, // before the seal: old segment intact
		{faultinject.SiteWALRotate, false, true},
	}
	for _, tc := range cases {
		mode := "error"
		if tc.kill {
			mode = "kill"
		}
		t.Run(tc.site+"/"+mode, func(t *testing.T) {
			defer faultinject.Disarm()
			defer faultinject.DisarmErr()
			dir := t.TempDir()
			opts := Options{Dir: dir, Policy: FsyncAlways, SegmentSize: 256}
			l, _, _ := openCollect(t, opts)
			if tc.kill {
				faultinject.Arm(faultinject.KillPoint(tc.site, 12))
			} else {
				faultinject.ArmErr(faultinject.FailPoint(tc.site, 12))
			}

			var (
				mu    sync.Mutex
				acked = make(map[uint64]string)
				fired int
				wg    sync.WaitGroup
			)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					defer func() {
						if r := recover(); r != nil {
							if !faultinject.IsCrash(r) {
								panic(r)
							}
							mu.Lock()
							fired++
							mu.Unlock()
						}
					}()
					for i := 0; i < 50; i++ {
						payload := fmt.Sprintf("g%d-i%02d", g, i)
						seq, err := l.Append([]byte(payload))
						mu.Lock()
						if err == nil {
							acked[seq] = payload
						} else if errors.Is(err, faultinject.ErrInjected) {
							fired++
						}
						mu.Unlock()
						if err != nil {
							return
						}
					}
				}(g)
			}
			wg.Wait()
			faultinject.Disarm()
			faultinject.DisarmErr()

			if fired == 0 {
				t.Fatal("the armed fault never fired")
			}
			if poisoned := l.Err() != nil; poisoned != tc.wantPoison {
				t.Fatalf("poisoned = %v (%v), want %v", poisoned, l.Err(), tc.wantPoison)
			}
			horizon := l.DurableSeq()
			for seq := range acked {
				if seq > horizon {
					t.Fatalf("seq %d acknowledged above the durable horizon %d", seq, horizon)
				}
			}
			l.Kill()

			l2, recs, _ := openCollect(t, opts)
			defer l2.Close()
			got := make(map[uint64]string, len(recs))
			for _, r := range recs {
				got[r.Seq] = string(r.Data)
			}
			for seq, payload := range acked {
				if got[seq] != payload {
					t.Fatalf("acked seq %d (%q) recovered as %q", seq, payload, got[seq])
				}
			}
			t.Logf("%d acked, %d recovered, horizon %d", len(acked), len(recs), horizon)
		})
	}
}

// TestChaosNothingVisibleAboveDurableHorizon holds a leader inside the
// fsync site with a follower's frame already written: neither record may
// reach ReadFrom, a watcher or DurableSeq until its own fsync completes.
// Then 8 appenders run free and the watcher must see every sequence
// once, in order, never ahead of the horizon.
func TestChaosNothingVisibleAboveDurableHorizon(t *testing.T) {
	l, _, _ := openCollect(t, Options{Dir: t.TempDir(), Policy: FsyncAlways})
	defer l.Close()
	const free = 8 * 40
	w := l.Watch(2 + free) // holds every record: a lagged watcher would hide a gap
	entered, release := holdFsync(t)

	results := appendAsync(l, "leader")
	<-entered
	follower := appendAsync(l, "follower")
	waitFor(t, "the follower's frame", func() bool { return l.LastSeq() == 2 })

	if got := l.DurableSeq(); got != 0 {
		t.Fatalf("durable horizon %d with the only fsync still in flight", got)
	}
	if recs, err := l.ReadFrom(0, 0); err != nil || len(recs) != 0 {
		t.Fatalf("ReadFrom exposed %d unsynced record(s), err %v", len(recs), err)
	}
	select {
	case rec := <-w.C():
		t.Fatalf("watcher received seq %d before its fsync", rec.Seq)
	default:
	}

	release()
	for _, ch := range []<-chan appendResult{results, follower} {
		if r := <-ch; r.err != nil {
			t.Fatalf("append: %v", r.err)
		}
	}
	// The held flush began before the follower wrote: it covered only the
	// leader, and the follower led a second one.
	if got := l.Stats().Fsyncs; got != 2 {
		t.Fatalf("fsyncs = %d, want 2", got)
	}
	if recs, err := l.ReadFrom(0, 0); err != nil || len(recs) != 2 {
		t.Fatalf("ReadFrom after both fsyncs: %d record(s), err %v", len(recs), err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < free/8; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	for want := uint64(1); want <= 2+free; want++ {
		select {
		case rec := <-w.C():
			if rec.Seq != want {
				t.Fatalf("watcher got seq %d, want %d", rec.Seq, want)
			}
			if horizon := l.DurableSeq(); rec.Seq > horizon {
				t.Fatalf("watcher got seq %d above the durable horizon %d", rec.Seq, horizon)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("watcher stalled before seq %d", want)
		}
	}
	wg.Wait()
	if w.Lagged() {
		t.Fatal("watcher lagged: the contiguity check proved nothing")
	}
}

// TestChaosFsyncsPerAppend pins the cost model: a lone writer pays one
// fsync per record, and appenders that arrive while a flush is in flight
// share the next one.
func TestChaosFsyncsPerAppend(t *testing.T) {
	l, _, _ := openCollect(t, Options{Dir: t.TempDir(), Policy: FsyncAlways})
	defer l.Close()
	for i := 0; i < 20; i++ {
		if _, err := l.Append([]byte("solo")); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if st := l.Stats(); st.Fsyncs != st.Appends {
		t.Fatalf("one writer: %d fsyncs for %d appends", st.Fsyncs, st.Appends)
	}

	before := l.Stats()
	entered, release := holdFsync(t)
	leader := appendAsync(l, "leader")
	<-entered
	followers := appendAsync(l, "f1", "f2", "f3", "f4", "f5", "f6", "f7")
	waitFor(t, "seven follower frames", func() bool { return l.LastSeq() == before.LastSeq+8 })
	release()
	if r := <-leader; r.err != nil {
		t.Fatalf("leader: %v", r.err)
	}
	for i := 0; i < 7; i++ {
		if r := <-followers; r.err != nil {
			t.Fatalf("follower: %v", r.err)
		}
	}
	st := l.Stats()
	if appends, fsyncs := st.Appends-before.Appends, st.Fsyncs-before.Fsyncs; appends != 8 || fsyncs != 2 {
		t.Fatalf("8 writers: %d fsyncs for %d appends, want 2 for 8", fsyncs, appends)
	}
}

// TestChaosCloseReleasesBlockedFollowers closes (and kills) a log whose
// leader is parked inside the fsync: the followers return ErrClosed at
// once, the shutdown itself waits for the flush that still owns the
// descriptor, the leader's record — fsynced after all — is acknowledged
// and recovered, and every goroutine comes home.
func TestChaosCloseReleasesBlockedFollowers(t *testing.T) {
	for name, shutdown := range map[string]func(*Log){
		"close": func(l *Log) { _ = l.Close() },
		"kill":  (*Log).Kill,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			// FsyncAlways has no ticker; the interval flusher's exit is
			// covered by TestClosedLogRefusesWork.
			l, _, _ := openCollect(t, Options{Dir: dir, Policy: FsyncAlways})
			entered, release := holdFsync(t)
			leader := appendAsync(l, "leader")
			<-entered
			followers := appendAsync(l, "f1", "f2", "f3")
			waitFor(t, "three follower frames", func() bool { return l.LastSeq() == 4 })

			closed := make(chan struct{})
			go func() {
				defer close(closed)
				shutdown(l)
			}()
			for i := 0; i < 3; i++ {
				select {
				case r := <-followers:
					if !errors.Is(r.err, ErrClosed) {
						t.Fatalf("follower returned (%d, %v), want ErrClosed", r.seq, r.err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("follower still blocked after shutdown began")
				}
			}
			select {
			case <-closed:
				t.Fatal("shutdown returned while a flush still used the descriptor")
			default:
			}
			release()
			<-closed
			if r := <-leader; r.err != nil || r.seq != 1 {
				t.Fatalf("leader returned (%d, %v), want (1, nil)", r.seq, r.err)
			}

			l2, recs, _ := openCollect(t, Options{Dir: dir, Policy: FsyncAlways})
			defer l2.Close()
			if len(recs) == 0 || string(recs[0].Data) != "leader" {
				t.Fatalf("acknowledged leader record not recovered: %d record(s)", len(recs))
			}
		})
	}
}
