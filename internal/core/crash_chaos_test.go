package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/septic-db/septic/internal/faultinject"
	"github.com/septic-db/septic/internal/qstruct"
	"github.com/septic-db/septic/internal/wal"
)

// The crash-chaos suite (run via `make chaos`, always part of
// `go test`) kills the durability machinery at random kill points —
// mid-frame, before fsync, during rotation, inside a checkpoint's
// atomic rename — then restarts from whatever the "crash" left on disk
// and asserts the two invariants the WAL exists for:
//
//  1. No acknowledged training update is ever lost. With fsync=always,
//     Store.Put returning true IS the durability acknowledgement; every
//     acked (domain, id) must be present after every recovery, cycle
//     after cycle.
//  2. Recovery converges. Every restart must attach successfully over
//     the previous crash's debris — a torn tail is truncated once and
//     the next recovery is clean, never an error loop or a panic.
//
// A crash is an in-process panic(faultinject.Crash) recovered at the
// harness boundary: the files are left exactly as the kill left them
// (no Close, no flush — the abandoned handles are the dead process's),
// which is as close to kill -9 as a single test process gets.
//
// Every third cycle the burst is 8 concurrent putters instead of one
// thread, so the acknowledgements under test are those of WAL commit
// groups: members of one fsync led by another goroutine, the goroutine
// the kill lands on holding a shard lock the rest may be queued behind.

// chaosOp runs one mutation with crash containment; reports whether the
// injected kill fired.
func chaosOp(t *testing.T, op func()) (crashed bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			if !faultinject.IsCrash(r) {
				panic(r) // a real bug, not the injected kill
			}
			crashed = true
		}
	}()
	op()
	return false
}

func TestChaosCrashRecoveryNeverLosesAckedUpdates(t *testing.T) {
	const cycles = 60
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(0x5EB71C))
	sites := faultinject.KillSites()

	// A few distinct models to learn; identity is (domain, id), so the
	// same model under different ids exercises everything.
	models := []qstruct.Model{
		modelFor(t, "SELECT a FROM t WHERE b = 1"),
		modelFor(t, "SELECT name, price FROM products WHERE cat = 'x'"),
		modelFor(t, "INSERT INTO logs (msg) VALUES ('hello')"),
	}
	domains := []string{DefaultDomain, "shop"}

	// acked maps "domain/id" → model fingerprint for every Put that
	// returned true and was not later deleted; limbo holds ids whose
	// delete may or may not have reached the log before a crash.
	acked := make(map[string]uint64)
	limbo := make(map[string]uint64)
	nextID, crashes, checkpoints := 0, 0, 0
	// writerSites are the kill points a Put crosses.
	writerSites := []string{faultinject.SiteWALAppend, faultinject.SiteWALShortWrite,
		faultinject.SiteWALFsync, faultinject.SiteWALRotate}

	boot := func() (*Septic, *Persistence) {
		s := New(DefaultConfig())
		if _, err := s.RegisterDomain("shop", DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		p, err := s.AttachPersistence(PersistenceOptions{
			Dir:   dir,
			Fsync: wal.FsyncAlways,
			// Tiny segments force rotations so the rotate/trim kill
			// points actually fire.
			SegmentSize: 512,
		})
		if err != nil {
			t.Fatalf("recovery did not converge: %v", err)
		}
		return s, p
	}

	for cycle := 0; cycle < cycles; cycle++ {
		s, p := boot()

		// Invariant 1: everything acked before the last crash survived.
		for key, fp := range acked {
			dom, id := splitKey(key)
			d, ok := s.Domain(dom)
			if !ok {
				t.Fatalf("cycle %d: domain %q vanished", cycle, dom)
			}
			view, ok := d.Store().Get(id)
			if !ok {
				t.Fatalf("cycle %d: acked update %s lost (crashes so far: %d)", cycle, key, crashes)
			}
			found := false
			for i := 0; i < view.Len(); i++ {
				if view.At(i).Fingerprint() == fp {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("cycle %d: acked model for %s recovered with wrong content", cycle, key)
			}
		}
		// Limbo ids settle on restart: if the delete reached the log the
		// id is gone for good; if it didn't, the put is still durable
		// and the id is required again from here on.
		for key, fp := range limbo {
			dom, id := splitKey(key)
			d, _ := s.Domain(dom)
			if _, ok := d.Store().Get(id); ok {
				acked[key] = fp
			}
			delete(limbo, key)
		}

		// Arm one random kill point with a random countdown and run a
		// burst of mutations until it fires (or the burst ends).
		crashed := false
		if cycle%3 == 2 {
			site := writerSites[rng.Intn(len(writerSites))]
			faultinject.Arm(faultinject.KillPoint(site, int64(1+rng.Intn(12))))
			var mu sync.Mutex // guards acked and crashed
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				dom := domains[g%len(domains)]
				d, _ := s.Domain(dom)
				m := models[rng.Intn(len(models))]
				base := nextID
				nextID += 6
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 6; i++ {
						id := fmt.Sprintf("q%06d", base+i)
						killed := chaosOp(t, func() {
							if d.Store().Put(id, m, false) {
								mu.Lock()
								acked[dom+"/"+id] = m.Fingerprint()
								mu.Unlock()
							}
						})
						if killed {
							// This goroutine "died"; the others run on until
							// the poisoned log (or the burst's end) stops them.
							mu.Lock()
							crashed = true
							mu.Unlock()
							return
						}
					}
				}()
			}
			wg.Wait()
		} else {
			site := sites[rng.Intn(len(sites))]
			faultinject.Arm(faultinject.KillPoint(site, int64(1+rng.Intn(6))))
			for op := 0; op < 24 && !crashed; op++ {
				switch r := rng.Intn(10); {
				case r < 6: // put
					dom := domains[rng.Intn(len(domains))]
					id := fmt.Sprintf("q%06d", nextID)
					nextID++
					m := models[rng.Intn(len(models))]
					d, _ := s.Domain(dom)
					crashed = chaosOp(t, func() {
						if d.Store().Put(id, m, false) {
							acked[dom+"/"+id] = m.Fingerprint()
						}
					})
				case r < 7 && len(acked) > 0: // delete a random acked id
					for key := range acked {
						dom, id := splitKey(key)
						d, _ := s.Domain(dom)
						fp := acked[key]
						delete(acked, key)
						limbo[key] = fp
						crashed = chaosOp(t, func() { d.Store().Delete(id) })
						break
					}
				case r < 8: // mode flip (never acked: no assertion later)
					d, _ := s.Domain(domains[rng.Intn(len(domains))])
					mode := []Mode{ModeTraining, ModeDetection, ModePrevention}[rng.Intn(3)]
					crashed = chaosOp(t, func() { d.SetMode(mode) })
				default: // checkpoint
					crashed = chaosOp(t, func() {
						if err := p.Checkpoint(); err == nil {
							checkpoints++
						}
					})
				}
			}
		}
		faultinject.Disarm()
		if crashed {
			crashes++
		}
		// The dead process's descriptors are reaped, never Close()d: Kill
		// releases them — and with them the WAL directory lock, as the
		// kernel would — without flushing a byte. fsync=always has
		// already made every acked append durable.
		p.Kill()
	}

	if crashes == 0 {
		t.Fatal("no kill point ever fired: the chaos exercised nothing")
	}
	if checkpoints == 0 {
		t.Fatal("no checkpoint ever completed")
	}
	// Final convergence check: one more boot over the last crash's
	// debris, then a clean close and one more boot over THAT.
	s, p := boot()
	for key := range acked {
		dom, id := splitKey(key)
		d, _ := s.Domain(dom)
		if _, ok := d.Store().Get(id); !ok {
			t.Fatalf("final recovery lost %s", key)
		}
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("final close: %v", err)
	}
	s2, p2 := boot()
	defer p2.Close()
	if got, want := storeLenOf(s2), storeLenOf(s); got != want {
		t.Fatalf("post-checkpoint recovery has %d identifiers, want %d", got, want)
	}
	t.Logf("chaos: %d cycles, %d crashes, %d checkpoints, %d acked updates verified",
		cycles, crashes, checkpoints, len(acked))
}

// splitKey splits "domain/id" back apart (ids never contain '/').
func splitKey(key string) (dom, id string) {
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			return key[:i], key[i+1:]
		}
	}
	return DefaultDomain, key
}

func storeLenOf(s *Septic) int {
	n := 0
	for _, d := range s.Domains() {
		n += d.Store().Len()
	}
	return n
}
