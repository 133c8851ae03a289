package server

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/faultinject"
	"github.com/septic-db/septic/internal/obs"
	"github.com/septic-db/septic/internal/raceflag"
	"github.com/septic-db/septic/internal/sqlparser"
	"github.com/septic-db/septic/internal/wire"
)

// testConfig is the shipped configuration on an ephemeral loopback port,
// without the live event display.
func testConfig() Config {
	cfg := Defaults()
	cfg.Addr, cfg.Quiet = "127.0.0.1:0", true
	return cfg
}

func mustStart(t *testing.T, cfg Config) *Stack {
	t.Helper()
	st, err := Start(cfg)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	return st
}

func dial(t *testing.T, addr string, opts ...wire.ClientOption) *wire.Client {
	t.Helper()
	c, err := wire.Dial(addr, opts...)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func mustExec(t *testing.T, c *wire.Client, queries ...string) {
	t.Helper()
	for _, q := range queries {
		if _, err := c.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestCrashRestartRecoversDomainModels pins "domains before
// persistence": a model trained inside a configured domain survives a
// crash, because the domain's partition exists by the time the WAL is
// replayed — attached the other way round, its records would be
// skipped as belonging to an unknown domain.
func TestCrashRestartRecoversDomainModels(t *testing.T) {
	cfg := testConfig()
	cfg.WALDir = t.TempDir()
	cfg.Domains = map[string]DomainSpec{"shop": {Mode: "training"}}

	st := mustStart(t, cfg)
	c := dial(t, st.Addr, wire.WithHello("shop"))
	if c.Domain() != "shop" {
		t.Fatalf("session bound to %q, want shop", c.Domain())
	}
	mustExec(t, c, "CREATE TABLE items (id INT, name TEXT)", "SELECT name FROM items WHERE id = 1")
	shop, _ := st.Guard.Domain("shop")
	trained := shop.Store().IDs()
	if len(trained) == 0 {
		t.Fatal("training inside the domain learned nothing")
	}
	st.Guard.Persistence().Kill() // the process dies: no checkpoint, no clean close
	_ = st.Shutdown(context.Background())

	st = mustStart(t, cfg)
	defer st.Shutdown(context.Background())
	if pst := st.Guard.Persistence().Stats(); pst.RecoveredSkipped != 0 || pst.RecoveredRecords == 0 {
		t.Errorf("recovery replayed %d record(s) and skipped %d, want > 0 and 0", pst.RecoveredRecords, pst.RecoveredSkipped)
	}
	shop, _ = st.Guard.Domain("shop")
	if got := shop.Store().IDs(); !reflect.DeepEqual(got, trained) {
		t.Errorf("after the crash the domain holds %v, want %v", got, trained)
	}
}

// TestReplicaConvergesAndRefusesTraining pins "replica source after
// persistence, before the listener": a replica stack follows the
// primary's WAL to the same models, and by the time it accepts its
// first connection its stores are already read-only.
func TestReplicaConvergesAndRefusesTraining(t *testing.T) {
	pcfg := testConfig()
	pcfg.Mode, pcfg.WALDir = "training", t.TempDir()
	primary := mustStart(t, pcfg)
	defer primary.Shutdown(context.Background())
	mustExec(t, dial(t, primary.Addr),
		"CREATE TABLE users (name TEXT, pass TEXT)", "SELECT pass FROM users WHERE name = 'ann'")

	rcfg := testConfig()
	rcfg.Mode, rcfg.WALDir, rcfg.ReplicateFrom = "training", t.TempDir(), primary.Addr
	replica := mustStart(t, rcfg)
	defer replica.Shutdown(context.Background())
	want := primary.Guard.Store().IDs()
	eventually(t, "the replica holds the primary's models", func() bool {
		return reflect.DeepEqual(replica.Guard.Store().IDs(), want)
	})

	rc := dial(t, replica.Addr)
	if _, err := rc.Exec("CREATE TABLE users (name TEXT, pass TEXT)"); err == nil ||
		!strings.Contains(err.Error(), core.ErrReadOnly.Error()) {
		t.Errorf("training write on the replica: %v, want %v", err, core.ErrReadOnly)
	}
	if got := replica.Guard.Store().IDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("refused write changed the replica's models: %v, want %v", got, want)
	}
}

// TestPrimaryShutdownWithReplicaAttached: a replica streaming on the
// primary's query port does not hold up the primary's drain — Shutdown
// ends well inside -drain-timeout without force-closing anything — and
// both stacks leave no goroutine behind.
func TestPrimaryShutdownWithReplicaAttached(t *testing.T) {
	base := runtime.NumGoroutine()
	pcfg := testConfig()
	pcfg.Mode, pcfg.WALDir, pcfg.DrainTimeout = "training", t.TempDir(), 2*time.Second
	primary := mustStart(t, pcfg)
	pc, err := wire.Dial(primary.Addr)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, pc, usersTable...)
	mustExec(t, pc, benignQuery)
	pc.Close()

	rcfg := testConfig()
	rcfg.Mode, rcfg.ReplicateFrom = "detection", primary.Addr
	replica := mustStart(t, rcfg)
	eventually(t, "the replica streams from the primary's query port", func() bool {
		return replica.Guard.ReplicaState().ConnState() == core.ReplStreaming
	})

	start := time.Now()
	if err := primary.Shutdown(context.Background()); err != nil {
		t.Errorf("primary Shutdown: %v", err)
	}
	if elapsed := time.Since(start); primary.DrainTimedOut || elapsed >= pcfg.DrainTimeout {
		t.Errorf("primary Shutdown took %v (drain timed out: %t), want a clean drain inside %v",
			elapsed, primary.DrainTimedOut, pcfg.DrainTimeout)
	}
	if err := replica.Shutdown(context.Background()); err != nil || replica.ReplicaErr != nil {
		t.Errorf("replica Shutdown = %v, stream ended with %v", err, replica.ReplicaErr)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after both shutdowns, %d before:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestHealthzTurnsUnreadyWhileDraining: /healthz answers 200, then 503
// for as long as Shutdown waits on an in-flight query — with no
// admission controller configured, whose nil value must stay safe.
func TestHealthzTurnsUnreadyWhileDraining(t *testing.T) {
	cfg := testConfig()
	cfg.Mode, cfg.ObsAddr = "training", "127.0.0.1:0"
	st := mustStart(t, cfg)
	get := func(path string) int {
		resp, err := http.Get("http://" + st.ObsAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for path, want := range map[string]int{"/healthz": 200, "/qm": 200, "/qm?domain=nobody": 404} {
		if got := get(path); got != want {
			t.Fatalf("%s before shutdown = %d, want %d", path, got, want)
		}
	}

	c := dial(t, st.Addr)
	mustExec(t, c, "CREATE TABLE t (id INT)")
	entered, release := make(chan struct{}), make(chan struct{})
	faultinject.Arm(func(site string) {
		if site == faultinject.SiteEngineExecute {
			close(entered)
			<-release
		}
	})
	defer faultinject.Disarm()
	queryDone := make(chan error, 1)
	go func() {
		_, err := c.Exec("SELECT id FROM t")
		queryDone <- err
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- st.Shutdown(context.Background()) }()
	eventually(t, "/healthz reports 503", func() bool { return get("/healthz") == http.StatusServiceUnavailable })
	close(release)
	if err := <-queryDone; err != nil {
		t.Errorf("in-flight query during the drain: %v", err)
	}
	if err := <-shutdownDone; err != nil || st.DrainTimedOut {
		t.Errorf("Shutdown = %v (drain timed out: %t), want a clean drain", err, st.DrainTimedOut)
	}
}

// TestShutdownRunsPastAFailedStep: a listener whose Close fails must not
// cost the WAL its final checkpoint or the directory its lock.
func TestShutdownRunsPastAFailedStep(t *testing.T) {
	cfg := testConfig()
	cfg.Mode, cfg.WALDir = "training", t.TempDir()
	st, err := start(cfg, func(network, addr string) (net.Listener, error) {
		ln, err := net.Listen(network, addr)
		if err != nil {
			return nil, err
		}
		return faultinject.CloseErrListener{Listener: ln}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, dial(t, st.Addr), "CREATE TABLE t (id INT)", "SELECT id FROM t WHERE id = 1")

	if err := st.Shutdown(context.Background()); !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("Shutdown = %v, want the injected listener failure reported", err)
	}
	trained := st.Guard.Store().IDs()
	if _, err := os.Stat(filepath.Join(cfg.WALDir, "checkpoint.json")); err != nil {
		t.Errorf("shutdown stopped before writing it: %v", err)
	}
	if pst := st.Guard.Persistence().Stats(); pst.Checkpoints != 1 {
		t.Errorf("%d checkpoint(s) taken at shutdown, want 1", pst.Checkpoints)
	}
	again, err := Start(cfg)
	if err != nil {
		t.Fatalf("the WAL directory is still locked after Shutdown: %v", err)
	}
	if got := again.Guard.Store().IDs(); len(trained) == 0 || !reflect.DeepEqual(got, trained) {
		t.Errorf("restart recovered %v, want the trained %v", got, trained)
	}
	if pst := again.Guard.Persistence().Stats(); pst.RecoveredRecords != 0 {
		t.Errorf("restart replayed %d record(s), want an empty tail after the final checkpoint", pst.RecoveredRecords)
	}
	if err := again.Shutdown(context.Background()); err != nil {
		t.Error(err)
	}
}

// TestFailedBootReleasesWhatItOpened: whichever listener cannot be
// bound, Start leaves nothing behind — the listeners opened before it
// are closed and the WAL directory can be opened again at once.
func TestFailedBootReleasesWhatItOpened(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	for name, occupy := range map[string]func(*Config){
		"addr":     func(c *Config) { c.Addr = taken.Addr().String() },
		"obs-addr": func(c *Config) { c.ObsAddr = taken.Addr().String() },
	} {
		t.Run(name, func(t *testing.T) {
			good := testConfig()
			good.WALDir = t.TempDir()
			good.Audit = filepath.Join(t.TempDir(), "audit.jsonl")
			bad := good
			occupy(&bad)
			var opened []net.Listener
			st, err := start(bad, func(network, addr string) (net.Listener, error) {
				ln, err := net.Listen(network, addr)
				if err == nil {
					opened = append(opened, ln)
				}
				return ln, err
			})
			if err == nil {
				_ = st.Shutdown(context.Background())
				t.Fatal("Start bound an occupied port")
			}
			for _, ln := range opened {
				// On a listener left open the deadline fails the Accept
				// instead of hanging it.
				_ = ln.(*net.TCPListener).SetDeadline(time.Now().Add(50 * time.Millisecond))
				if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
					t.Errorf("listener %s left open by the failed boot (Accept: %v)", ln.Addr(), err)
				}
			}
			st, err = Start(good)
			if err != nil {
				t.Fatalf("second Start on the same WAL directory: %v", err)
			}
			if err := st.Shutdown(context.Background()); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestValidateRefusesSettingsThatCannotTakeEffect(t *testing.T) {
	for name, tc := range map[string]struct {
		set  func(*Config)
		want string // substring of the error; empty = valid
	}{
		"defaults":                             {func(*Config) {}, ""},
		"wal with its dependants":              {func(c *Config) { c.WALDir, c.WALForceRecover = "d", true }, ""},
		"gate behind a shed target":            {func(c *Config) { c.ShedTarget, c.MaxConcurrent = time.Millisecond, 8 }, ""},
		"unknown mode":                         {func(c *Config) { c.Mode = "paranoid" }, `unknown mode "paranoid"`},
		"unknown domain mode":                  {func(c *Config) { c.Domains = map[string]DomainSpec{"shop": {}} }, `domain "shop"`},
		"unknown fsync policy without a wal":   {func(c *Config) { c.WALFsync = "sometimes" }, "unknown fsync policy"},
		"force-recover without a wal":          {func(c *Config) { c.WALForceRecover = true }, "-wal-force-recover requires -wal-dir"},
		"execution gate without a shed target": {func(c *Config) { c.MaxConcurrent = 8 }, "-max-concurrent requires -shed-target"},
		"seed file on a replica":               {func(c *Config) { c.Models, c.ReplicateFrom = "m.json", ":1" }, "cannot be combined with -replicate-from"},
		"domain seed file on a replica": {func(c *Config) {
			c.Domains, c.ReplicateFrom = map[string]DomainSpec{"shop": {Mode: "detection", Store: "s.json"}}, ":1"
		}, "cannot be combined with -replicate-from"},
	} {
		cfg := Defaults()
		tc.set(&cfg)
		err := cfg.Validate()
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: Validate = %v, want %q", name, err, tc.want)
		}
		if tc.want == "" {
			continue
		}
		if _, startErr := Start(cfg); !reflect.DeepEqual(startErr, err) {
			t.Errorf("%s: Start = %v, want Validate's refusal", name, startErr)
		}
	}
}

// TestLoadDomainsAndStoreFiles: a -domains file reaches the stack — quota
// policy installed, sessions bound by HELLO — and its "store" files, like
// -models, are seeds: read when recovery left the domain empty, never
// written, and an error when named but unreadable.
func TestLoadDomainsAndStoreFiles(t *testing.T) {
	dir := t.TempDir()
	blog := filepath.Join(dir, "blog.json")
	file := filepath.Join(dir, "domains.json")
	spec := `{"shop": {"mode": "prevention", "quota_rate": 100, "breaker": true},
	          "blog": {"mode": "training", "store": "` + blog + `"}}`
	if err := os.WriteFile(file, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	var err error
	if cfg.Domains, err = LoadDomains(file); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDomains(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("LoadDomains read a file that does not exist")
	}
	if _, err := Start(cfg); err == nil || !strings.Contains(err.Error(), "seed domain blog") {
		t.Fatalf("Start with a seed file that does not exist: %v, want a boot error naming the domain", err)
	}

	// The seed: what a training run without any file learned, saved by hand.
	seedless := cfg
	seedless.Domains = map[string]DomainSpec{"shop": cfg.Domains["shop"], "blog": {Mode: "training"}}
	st := mustStart(t, seedless)
	shop, _ := st.Guard.Domain("shop")
	if ctl := shop.Overload(); ctl.Quota == nil || ctl.Breaker == nil {
		t.Error("the shop domain's quota and breaker were not installed")
	}
	if got := dial(t, st.Addr, wire.WithHello("nobody")).Domain(); got != core.DefaultDomain {
		t.Errorf("an unregistered application bound to %q, want the default domain", got)
	}
	mustExec(t, dial(t, st.Addr, wire.WithHello("blog")), "CREATE TABLE posts (id INT)", "SELECT id FROM posts")
	trained, _ := st.Guard.Domain("blog")
	want := trained.Store().IDs()
	if err := trained.Store().Save(blog); err != nil {
		t.Fatal(err)
	}
	if err := st.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("training the blog domain learned nothing")
	}
	blogIDs := func(st *Stack) []string {
		d, _ := st.Guard.Domain("blog")
		return d.Store().IDs()
	}

	// Without a WAL the seed is read at every boot, and nothing learned
	// on top of it is written anywhere.
	for boot := 0; boot < 2; boot++ {
		st = mustStart(t, cfg)
		if got := blogIDs(st); !reflect.DeepEqual(got, want) {
			t.Errorf("boot %d without a WAL starts with %v, want the seed's %v", boot, got, want)
		}
		mustExec(t, dial(t, st.Addr, wire.WithHello("blog")), "CREATE TABLE extra (id INT)")
		if err := st.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// With a WAL: a checkpoint that fails right after the seed was read is
	// a failed boot, and leaves nothing of the seed behind.
	cfg.WALDir = t.TempDir()
	seedless.WALDir = cfg.WALDir
	faultinject.ArmErr(faultinject.FailPoint(faultinject.SiteCheckpoint, 1))
	_, err = Start(cfg)
	faultinject.DisarmErr()
	if err == nil || !strings.Contains(err.Error(), "seed checkpoint") {
		t.Fatalf("Start through a failing seed checkpoint: %v", err)
	}
	st = mustStart(t, seedless)
	if got := blogIDs(st); len(got) != 0 {
		t.Errorf("a boot that died between seed and checkpoint left %v in the directory", got)
	}
	if err := st.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The empty domain is seeded and made durable by one checkpoint...
	st = mustStart(t, cfg)
	if got := blogIDs(st); !reflect.DeepEqual(got, want) {
		t.Errorf("first boot on the directory starts with %v, want the seed's %v", got, want)
	}
	if pst := st.Guard.Persistence().Stats(); pst.Checkpoints != 1 || pst.WAL.Appends != 0 {
		t.Errorf("seeding took %d checkpoint(s) and %d append(s), want 1 and 0", pst.Checkpoints, pst.WAL.Appends)
	}
	st.Guard.Persistence().Kill() // and survives a crash from there
	_ = st.Shutdown(context.Background())

	// ...after which the directory is the store and the file is not even
	// opened: it may be gone, or garbage.
	if err := os.WriteFile(blog, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	st = mustStart(t, cfg)
	defer st.Shutdown(context.Background())
	if got := blogIDs(st); !reflect.DeepEqual(got, want) {
		t.Errorf("second boot starts with %v, want the recovered %v", got, want)
	}
	if pst := st.Guard.Persistence().Stats(); pst.Checkpoints != 0 {
		t.Errorf("second boot took %d checkpoint(s), want none", pst.Checkpoints)
	}
	// The same garbage in front of an empty domain is a boot error.
	cfg.WALDir = t.TempDir()
	if _, err := Start(cfg); err == nil || !strings.Contains(err.Error(), "decode model store") {
		t.Errorf("Start on an unparsable seed: %v", err)
	}
}

// trainAndAttack is the paper's demo in two statements per domain: the
// query the application makes, and the tautology that must not pass for
// it once the guard stops learning.
const (
	benignQuery = "SELECT name FROM users WHERE id = 1"
	attackQuery = "SELECT name FROM users WHERE id = 1 OR 1=1"
)

var usersTable = []string{"CREATE TABLE users (id INT, name TEXT)",
	"INSERT INTO users VALUES (1, 'ann')", "INSERT INTO users VALUES (2, 'bob')"}

// TestRestartHonoursConfiguredMode is phases C and D of the demo on one
// WAL directory: train, stop, start again in prevention mode — by flag
// for the default domain, by domains file for another. The second boot
// runs in the modes it was given, not the ones the first run recorded,
// and blocks the tautology instead of learning it.
func TestRestartHonoursConfiguredMode(t *testing.T) {
	cfg := testConfig()
	cfg.Mode, cfg.WALDir = "training", t.TempDir()
	cfg.Domains = map[string]DomainSpec{"shop": {Mode: "training"}}
	st := mustStart(t, cfg)
	for _, app := range []string{"", "shop"} {
		c := dial(t, st.Addr, wire.WithHello(app))
		mustExec(t, c, usersTable...)
		mustExec(t, c, benignQuery)
		mustExec(t, c, "DROP TABLE users")
	}
	if err := st.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	cfg.Mode = "prevention"
	cfg.Domains = map[string]DomainSpec{"shop": {Mode: "prevention"}}
	st = mustStart(t, cfg)
	defer st.Shutdown(context.Background())
	for _, d := range st.Guard.Domains() {
		if d.Mode() != core.ModePrevention {
			t.Errorf("domain %s restarted in %s mode, want the configured prevention", d.Name(), d.Mode())
		}
	}
	for _, app := range []string{"", "shop"} {
		c := dial(t, st.Addr, wire.WithHello(app))
		mustExec(t, c, usersTable...)
		mustExec(t, c, benignQuery)
		if _, err := c.Exec(attackQuery); err == nil || !strings.Contains(err.Error(), "septic sqli") {
			t.Errorf("app %q: the tautology: %v, want it blocked", app, err)
		}
		mustExec(t, c, "DROP TABLE users")
	}
	if stats := st.Guard.Stats(); stats.ModelsLearned != 0 || stats.AttacksFound != 2 || stats.AttacksBlocked != 2 {
		t.Errorf("%d models learned, %d attacks (%d blocked); want 0, 2 (2)",
			stats.ModelsLearned, stats.AttacksFound, stats.AttacksBlocked)
	}
}

// TestDetectionReplicaOfTrainingPrimary: the primary's mode does not
// travel with its models. A detection replica that installs a training
// primary's snapshot answers queries (in training mode a replica refuses
// every one as a write) and detects the attack.
func TestDetectionReplicaOfTrainingPrimary(t *testing.T) {
	pcfg := testConfig()
	pcfg.Mode, pcfg.WALDir = "training", t.TempDir()
	primary := mustStart(t, pcfg)
	defer primary.Shutdown(context.Background())
	pc := dial(t, primary.Addr)
	mustExec(t, pc, usersTable...)
	mustExec(t, pc, benignQuery)

	rcfg := testConfig()
	rcfg.Mode, rcfg.ReplicateFrom = "detection", primary.Addr
	replica := mustStart(t, rcfg)
	defer replica.Shutdown(context.Background())
	want := primary.Guard.Store().IDs()
	eventually(t, "the replica holds the primary's models", func() bool {
		return reflect.DeepEqual(replica.Guard.Store().IDs(), want)
	})
	// So short a log is streamed record by record; a replica that had
	// fallen behind a trimmed one would be sent this instead.
	barrier, snap, err := primary.Guard.Persistence().ReplSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.Guard.ReplicaState().ApplySnapshot(barrier, snap); err != nil {
		t.Fatal(err)
	}
	if got := replica.Guard.Store().IDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the snapshot the replica holds %v, want %v", got, want)
	}
	if mode := replica.Guard.Mode(); mode != core.ModeDetection {
		t.Fatalf("the replica runs in %s mode after the install, want detection", mode)
	}
	rc := dial(t, replica.Addr)
	mustExec(t, rc, usersTable...)
	mustExec(t, rc, benignQuery, attackQuery) // detection logs, and lets through
	if stats := replica.Guard.Stats(); stats.AttacksFound != 1 || stats.AttacksBlocked != 0 {
		t.Errorf("%d attacks found (%d blocked) on the replica, want 1 (0)", stats.AttacksFound, stats.AttacksBlocked)
	}
}

// TestEventsNamesTheDomain: /events on the shipped stack is the guard's
// register, so an attack record says which domain it was blocked in, and
// ?kind= / ?n= filter as they always did.
func TestEventsNamesTheDomain(t *testing.T) {
	cfg := testConfig()
	cfg.ObsAddr = "127.0.0.1:0"
	cfg.Domains = map[string]DomainSpec{"shop": {Mode: "training"}, "crm": {Mode: "training"}}
	st := mustStart(t, cfg)
	defer st.Shutdown(context.Background())

	for _, name := range []string{"crm", "shop"} {
		c := dial(t, st.Addr, wire.WithHello(name))
		mustExec(t, c, "CREATE TABLE "+name+"_t (id INT, name TEXT)",
			"SELECT name FROM "+name+"_t WHERE id = 1")
		d, _ := st.Guard.Domain(name)
		d.SetMode(core.ModePrevention)
		if _, err := c.Exec("SELECT name FROM " + name + "_t WHERE id = 1 OR 1 = 1"); err == nil {
			t.Fatalf("%s: the tautology ran", name)
		}
	}
	events := func(query string) []map[string]any {
		resp, err := http.Get("http://" + st.ObsAddr + "/events" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out []map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("/events%s: %v", query, err)
		}
		return out
	}
	attacks := events("?kind=attack")
	if len(attacks) != 2 || attacks[0]["domain"] != "crm" || attacks[1]["domain"] != "shop" {
		t.Fatalf("/events?kind=attack = %v, want one attack in crm, then one in shop", attacks)
	}
	for _, a := range attacks {
		if a["kind"] != "attack" || a["action"] != "blocked" || a["detector"] != "sqli/structural" {
			t.Errorf("attack record = %v", a)
		}
	}
	if last := events("?kind=attack&n=1"); len(last) != 1 || last[0]["domain"] != "shop" {
		t.Errorf("?n=1 = %v, want the newest attack only", last)
	}
	for _, m := range events("?kind=mode") {
		if m["kind"] != "mode" || m["domain"] == nil {
			t.Errorf("?kind=mode returned %v", m)
		}
	}
	if all := events(""); len(all) <= len(attacks) {
		t.Errorf("/events holds %d records, want the learned models and mode changes too", len(all))
	}
}

// TestCachedHitAllocFreeOnShippedStack measures the configuration that
// ships, not a test's: the guard server.Start assembles for a -quiet,
// audit-less septicd serves a verdict-cache hit without allocating and
// without touching the register — the check is counted, not recorded.
func TestCachedHitAllocFreeOnShippedStack(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation adds allocations")
	}
	cfg := testConfig()
	cfg.Mode = "training"
	st := mustStart(t, cfg)
	defer st.Shutdown(context.Background())
	guard := st.Guard

	const q = "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234"
	stmt, err := sqlparser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	hctx := &engine.HookContext{Raw: q, Decoded: q, Stmt: stmt, Memo: new(engine.Memo)}
	hit := func() {
		if err := guard.BeforeExecute(hctx); err != nil {
			t.Fatalf("benign query: %v", err)
		}
	}
	hit() // learn the model
	guard.SetMode(core.ModePrevention)
	hit() // miss: populate the cache
	events := guard.Logger().Events()
	seq, checked := events[len(events)-1].Seq, guard.Stats().QueriesChecked

	if allocs := testing.AllocsPerRun(1000, hit); allocs != 0 {
		t.Errorf("cached hit on the shipped guard allocates %.1f objects/op, want 0", allocs)
	}
	events = guard.Logger().Events()
	if got := events[len(events)-1].Seq; got != seq {
		t.Errorf("register sequence moved %d -> %d over cached hits nobody is watching", seq, got)
	}
	if got := guard.Stats().QueriesChecked - checked; got < 1000 {
		t.Errorf("QueriesChecked moved by %d over 1000 cached hits", got)
	}
	if guard.CacheStats().Hits < 1000 {
		t.Fatal("cache never hit — the guard measured the wrong path")
	}
}

// TestDocumentsNameMetricsThatExist: every `core.` / `engine.` / `wire.` /
// `wal.` / `repl.` name DESIGN.md and README.md put in backticks is one an
// operator can scrape from the shipped stack — a primary with -obs-addr,
// -wal-dir and a domain, and a replica of it — or one the bench/ ledger
// reports (BENCHMARK.json). `name.*` stands for any metric under name,
// `<name>` for a domain, and a bare `.suffix`, as the cache table of
// DESIGN §8.2 writes its rows, for that suffix under every `name.*` of
// the paragraph above it. A function is written with its receiver
// (`DB.exec`), so a lower-case `pkg.word` is always a metric.
func TestDocumentsNameMetricsThatExist(t *testing.T) {
	exists := make(map[string]bool)
	scrape := func(cfg Config) *Stack {
		cfg.ObsAddr = "127.0.0.1:0"
		st := mustStart(t, cfg)
		t.Cleanup(func() { _ = st.Shutdown(context.Background()) })
		resp, err := http.Get("http://" + st.ObsAddr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap obs.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		for name := range snap.Counters {
			exists[name] = true
		}
		for name := range snap.Gauges {
			exists[name] = true
		}
		for name := range snap.Histograms {
			exists[name] = true
		}
		return st
	}
	pcfg := testConfig()
	pcfg.Mode, pcfg.WALDir = "training", t.TempDir()
	pcfg.Domains = map[string]DomainSpec{"shop": {Mode: "training"}}
	primary := scrape(pcfg)
	rcfg := testConfig()
	rcfg.Mode, rcfg.ReplicateFrom = "detection", primary.Addr
	scrape(rcfg)

	var contract struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	for _, m := range append(contract.EndToEnd, contract.PerLayer...) {
		exists[m.Name] = true
	}

	known := func(name string) bool {
		name = strings.ReplaceAll(name, "<name>", "shop")
		if family, ok := strings.CutSuffix(name, "*"); ok {
			for have := range exists {
				if strings.HasPrefix(have, family) {
					return true
				}
			}
			return false
		}
		return exists[name]
	}
	token := regexp.MustCompile("`((?:core|engine|wire|wal|repl)?\\.[a-z0-9_.<>*]+)`")
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile("../../" + doc)
		if err != nil {
			t.Fatal(err)
		}
		var families []string // the `name.*` of the last paragraph that named any
		for _, paragraph := range strings.Split(string(text), "\n\n") {
			var named, suffixes []string
			for _, m := range token.FindAllStringSubmatch(paragraph, -1) {
				switch name := m[1]; {
				case strings.HasPrefix(name, "."):
					suffixes = append(suffixes, name)
				case !known(name):
					t.Errorf("%s names `%s`: the shipped stack registers no such metric and the ledger reports none", doc, name)
				case strings.HasSuffix(name, ".*"):
					named = append(named, strings.TrimSuffix(name, ".*"))
				}
			}
			if named != nil {
				families = named
			}
			for _, suffix := range suffixes {
				for _, family := range families {
					if !known(family + suffix) {
						t.Errorf("%s lists `%s` under `%s.*`: no metric %s is registered", doc, suffix, family, family+suffix)
					}
				}
			}
		}
	}
}
