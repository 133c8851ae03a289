// Package septic is a faithful Go reimplementation of SEPTIC —
// SElf-Protecting daTabases prevenTIng attaCks (Medeiros, Beatriz, Neves,
// Correia; demonstrated at DSN 2017) — together with the DBMS substrate
// it runs inside.
//
// SEPTIC detects and blocks injection attacks *inside* the database
// engine, at the point where the query has already been parsed, decoded
// and validated — after every transformation that creates the "semantic
// mismatch" between what applications believe they send and what the
// DBMS executes. It learns a query model (the query's stack of items
// with data values blanked) for every query an application issues, and
// at runtime compares each incoming query's structure against its model:
// structural or syntactical deviations are injections. Values written by
// INSERT/UPDATE additionally pass through stored-injection plugins
// (stored XSS, file inclusion, command injection).
//
// This package is the supported public API; everything under internal/
// is implementation. Quick start:
//
//	db, guard := septic.New(septic.DefaultConfig())
//	db.Exec(`CREATE TABLE t (id INT, name TEXT)`)
//
//	guard.SetMode(septic.ModeTraining)
//	db.Exec(`SELECT name FROM t WHERE id = 1`) // learn the shape
//
//	guard.SetMode(septic.ModePrevention)
//	_, err := db.Exec(`SELECT name FROM t WHERE id = 1 OR 1=1-- `)
//	// err wraps septic.ErrQueryBlocked
package septic

import (
	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/engine"
)

// Core types, re-exported for the public API.
type (
	// DB is the in-memory MySQL-like database engine hosting SEPTIC.
	DB = engine.DB
	// Result is the outcome of one statement.
	Result = engine.Result
	// Value is one cell value.
	Value = engine.Value
	// Guard is a SEPTIC instance: the four modules of the paper wired
	// together behind the engine's pre-execution hook.
	Guard = core.Septic
	// Config selects the operation mode and active detections.
	Config = core.Config
	// Mode is the operation mode (training / detection / prevention).
	Mode = core.Mode
	// Event is one entry of SEPTIC's event register.
	Event = core.Event
	// Stats aggregates SEPTIC's work counters.
	Stats = core.Stats
	// Plugin detects one class of stored-injection attack.
	Plugin = core.Plugin
)

// Operation modes (paper Table I).
const (
	ModeTraining   = core.ModeTraining
	ModeDetection  = core.ModeDetection
	ModePrevention = core.ModePrevention
)

// ErrQueryBlocked is wrapped by errors returned for queries SEPTIC
// dropped in prevention mode; test with errors.Is.
var ErrQueryBlocked = engine.ErrQueryBlocked

// DefaultConfig is prevention mode with both detections enabled and
// incremental learning on — the configuration the demo runs in phase D.
func DefaultConfig() Config { return core.DefaultConfig() }

// New creates a SEPTIC-protected database: a fresh engine with a fresh
// Guard installed at its pre-execution hook.
func New(cfg Config, opts ...core.SepticOption) (*DB, *Guard) {
	guard := core.New(cfg, opts...)
	db := engine.New(engine.WithQueryHook(guard))
	return db, guard
}

// NewUnprotected creates a stock database engine without SEPTIC — the
// paper's baseline ("original MySQL without SEPTIC installed").
func NewUnprotected() *DB {
	return engine.New()
}

// Attach installs a Guard on an existing database (the paper's pitch:
// protection is provided off-the-shelf by the DBMS, no application or
// client changes).
func Attach(db *DB, guard *Guard) {
	db.SetHook(guard)
}

// Int builds an integer value for ExecArgs.
func Int(i int64) Value { return engine.Int(i) }

// Float builds a floating-point value for ExecArgs.
func Float(f float64) Value { return engine.Float(f) }

// Str builds a string value for ExecArgs.
func Str(s string) Value { return engine.Str(s) }

// Bool builds a boolean value for ExecArgs.
func Bool(b bool) Value { return engine.Bool(b) }

// Null builds the SQL NULL value for ExecArgs.
func Null() Value { return engine.Null() }
