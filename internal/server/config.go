// Package server assembles the deployment septicd ships: engine, guard,
// protection domains, durability, replication, overload control,
// observability and the wire front end, booted in the one order that is
// correct and torn down in the one order that loses nothing (DESIGN.md
// §14). cmd/septicd is flag parsing around Start and Shutdown; tests and
// harnesses that need "the server as deployed" call them too.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/overload"
	"github.com/septic-db/septic/internal/wal"
	"github.com/septic-db/septic/internal/wire"
)

// Config is one field per septicd flag; the flag's help text documents
// the field.
type Config struct {
	Addr    string                // -addr
	Mode    string                // -mode: training, detection or prevention
	Models  string                // -models
	Domains map[string]DomainSpec // -domains, as LoadDomains parsed the file
	SQLI    bool                  // -sqli
	Stored  bool                  // -stored
	Quiet   bool                  // -quiet
	Audit   string                // -audit

	MaxConns     int           // -max-conns
	QueryTimeout time.Duration // -query-timeout
	IdleTimeout  time.Duration // -idle-timeout
	DrainTimeout time.Duration // -drain-timeout
	FailOpen     bool          // -fail-open
	ObsAddr      string        // -obs-addr

	PipelineWorkers int // -pipeline-workers
	MaxInFlight     int // -max-in-flight

	ShedTarget    time.Duration // -shed-target
	MaxConcurrent int           // -max-concurrent

	WALDir             string        // -wal-dir
	WALFsync           string        // -wal-fsync: always, interval or never
	WALForceRecover    bool          // -wal-force-recover
	CheckpointInterval time.Duration // -checkpoint-interval

	ReplicateFrom string // -replicate-from
}

// Defaults is the shipped configuration: septicd started with no flags.
// The wire limits are internal/wire's own defaults, so wire.NewServer(db)
// and Start(Defaults()) serve the same front end.
func Defaults() Config {
	return Config{
		Addr:               "127.0.0.1:3306",
		Mode:               "prevention",
		SQLI:               true,
		Stored:             true,
		MaxConns:           wire.DefaultMaxConns,
		QueryTimeout:       wire.DefaultQueryTimeout,
		IdleTimeout:        wire.DefaultIdleTimeout,
		DrainTimeout:       5 * time.Second,
		PipelineWorkers:    wire.DefaultPipelineWorkers,
		MaxInFlight:        wire.DefaultMaxInFlight,
		WALFsync:           "always",
		CheckpointInterval: time.Minute,
	}
}

// DomainSpec is one entry of the -domains file.
type DomainSpec struct {
	Mode string `json:"mode"`
	// The three-valued booleans distinguish "omitted" (nil → default)
	// from an explicit false.
	SQLI        *bool `json:"sqli"`
	Stored      *bool `json:"stored"`
	Incremental *bool `json:"incremental"`
	FailOpen    bool  `json:"fail_open"`
	// Store is the domain's seed file, what -models is to the default
	// domain: read at boot when the domain has no models yet.
	Store string `json:"store"`

	// Overload policy, all optional. QuotaRate caps the domain's
	// sustained queries/second (0 = unlimited); QuotaBurst is the bucket
	// depth (0 = rate); MaxInFlight bounds the domain's concurrent
	// queries (0 = unlimited). Breaker arms the detection circuit
	// breaker; BreakerSlowMS additionally counts detection runs slower
	// than this many milliseconds as failures (0 = latency ignored).
	QuotaRate     float64 `json:"quota_rate"`
	QuotaBurst    float64 `json:"quota_burst"`
	MaxInFlight   int     `json:"max_in_flight"`
	Breaker       bool    `json:"breaker"`
	BreakerSlowMS int     `json:"breaker_slow_ms"`
}

// LoadDomains reads a -domains file.
func LoadDomains(path string) (map[string]DomainSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read domains file: %w", err)
	}
	var specs map[string]DomainSpec
	if err := json.Unmarshal(data, &specs); err != nil {
		return nil, fmt.Errorf("decode domains file: %w", err)
	}
	return specs, nil
}

// overloadControls builds the per-domain overload policy out of a
// domains-file entry, or nil when the entry configures none.
func (spec DomainSpec) overloadControls() *overload.Controls {
	var q *overload.Quota
	if spec.QuotaRate > 0 || spec.MaxInFlight > 0 {
		q = overload.NewQuota(overload.QuotaSpec{
			Rate:        spec.QuotaRate,
			Burst:       spec.QuotaBurst,
			MaxInFlight: spec.MaxInFlight,
		})
	}
	var b *overload.Breaker
	if spec.Breaker {
		b = overload.NewBreaker(overload.BreakerOptions{
			SlowCall: time.Duration(spec.BreakerSlowMS) * time.Millisecond,
		})
	}
	if q == nil && b == nil {
		return nil
	}
	return overload.NewControls(q, b)
}

// domainNames returns the configured domains in the order they are
// registered, seeded and reported.
func (c Config) domainNames() []string {
	names := make([]string, 0, len(c.Domains))
	for name := range c.Domains {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// parseMode maps a -mode / domains-file mode string.
func parseMode(name string) (core.Mode, error) {
	for _, m := range []core.Mode{core.ModeTraining, core.ModeDetection, core.ModePrevention} {
		if name == m.String() {
			return m, nil
		}
	}
	return core.ModeInvalid, fmt.Errorf("unknown mode %q", name)
}

// Validate refuses a configuration Start could not honour: a value that
// does not parse, or a setting that depends on one that is off and would
// be silently ignored.
func (c Config) Validate() error {
	_, _, err := c.parse()
	return err
}

// parse is Validate, returning the two enumerations it decoded.
func (c Config) parse() (core.Mode, wal.FsyncPolicy, error) {
	mode, err := parseMode(c.Mode)
	if err != nil {
		return 0, 0, err
	}
	seeded := c.Models != ""
	for _, name := range c.domainNames() {
		if _, err := parseMode(c.Domains[name].Mode); err != nil {
			return 0, 0, fmt.Errorf("domain %q: %w", name, err)
		}
		seeded = seeded || c.Domains[name].Store != ""
	}
	policy, err := wal.ParseFsyncPolicy(c.WALFsync)
	switch {
	case err != nil:
	case c.WALForceRecover && c.WALDir == "":
		err = errors.New("-wal-force-recover requires -wal-dir (there is no log to recover)")
	case c.MaxConcurrent != 0 && c.ShedTarget <= 0:
		err = errors.New("-max-concurrent requires -shed-target (it sizes the gate behind the admission controller)")
	case c.ReplicateFrom != "" && seeded:
		err = errors.New("-models and a domains-file store cannot be combined with -replicate-from (a replica's stores belong to the stream)")
	}
	return mode, policy, err
}
