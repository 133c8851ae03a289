package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/faultinject"
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
// cost the models their snapshot file, the WAL its final checkpoint, or
// the directory its lock.
func TestShutdownRunsPastAFailedStep(t *testing.T) {
	cfg := testConfig()
	cfg.Mode, cfg.WALDir = "training", t.TempDir()
	cfg.Models = filepath.Join(t.TempDir(), "models.json")
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
	want := []StoreFile{{Path: cfg.Models, Models: st.Guard.Store().Len()}}
	if !reflect.DeepEqual(st.Saved, want) {
		t.Errorf("Saved = %+v, want %+v", st.Saved, want)
	}
	for _, path := range []string{cfg.Models, filepath.Join(cfg.WALDir, "checkpoint.json")} {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("shutdown stopped before writing it: %v", err)
		}
	}
	if pst := st.Guard.Persistence().Stats(); pst.Checkpoints != 1 {
		t.Errorf("%d checkpoint(s) taken at shutdown, want 1", pst.Checkpoints)
	}
	again, err := Start(cfg)
	if err != nil {
		t.Fatalf("the WAL directory is still locked after Shutdown: %v", err)
	}
	if len(again.Loaded) != 1 || again.Loaded[0].Models != want[0].Models {
		t.Errorf("restart loaded %+v, want the %d saved model(s)", again.Loaded, want[0].Models)
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
		"addr":        func(c *Config) { c.Addr = taken.Addr().String() },
		"repl-listen": func(c *Config) { c.ReplListen = taken.Addr().String() },
		"obs-addr":    func(c *Config) { c.ObsAddr = taken.Addr().String() },
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
		"wal with its dependants":              {func(c *Config) { c.WALDir, c.ReplListen, c.WALForceRecover = "d", ":0", true }, ""},
		"gate behind a shed target":            {func(c *Config) { c.ShedTarget, c.MaxConcurrent = time.Millisecond, 8 }, ""},
		"unknown mode":                         {func(c *Config) { c.Mode = "paranoid" }, `unknown mode "paranoid"`},
		"unknown domain mode":                  {func(c *Config) { c.Domains = map[string]DomainSpec{"shop": {}} }, `domain "shop"`},
		"unknown fsync policy without a wal":   {func(c *Config) { c.WALFsync = "sometimes" }, "unknown fsync policy"},
		"repl listener without a wal":          {func(c *Config) { c.ReplListen = ":0" }, "-repl-listen requires -wal-dir"},
		"force-recover without a wal":          {func(c *Config) { c.WALForceRecover = true }, "-wal-force-recover requires -wal-dir"},
		"execution gate without a shed target": {func(c *Config) { c.MaxConcurrent = 8 }, "-max-concurrent requires -shed-target"},
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

// TestLoadDomainsAndStoreFiles: a -domains file round-trips through the
// stack — quota policy installed, per-domain snapshot written at
// shutdown and read back, in name order, at the next boot.
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

	st := mustStart(t, cfg)
	if want := []StoreFile{{Domain: "blog", Path: blog}, {Domain: "shop"}}; !reflect.DeepEqual(st.Loaded, want) {
		t.Errorf("Loaded = %+v, want %+v", st.Loaded, want)
	}
	shop, _ := st.Guard.Domain("shop")
	if ctl := shop.Overload(); ctl.Quota == nil || ctl.Breaker == nil {
		t.Error("the shop domain's quota and breaker were not installed")
	}
	if got := dial(t, st.Addr, wire.WithHello("nobody")).Domain(); got != core.DefaultDomain {
		t.Errorf("an unregistered application bound to %q, want the default domain", got)
	}
	mustExec(t, dial(t, st.Addr, wire.WithHello("blog")), "CREATE TABLE posts (id INT)", "SELECT id FROM posts")
	if err := st.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	saved := st.Saved
	if len(saved) != 1 || saved[0].Domain != "blog" || saved[0].Models == 0 {
		t.Fatalf("Saved = %+v, want the blog domain's models", saved)
	}

	st = mustStart(t, cfg)
	defer st.Shutdown(context.Background())
	if st.Loaded[0] != saved[0] {
		t.Errorf("restart loaded %+v, the last run saved %+v", st.Loaded[0], saved[0])
	}
}
