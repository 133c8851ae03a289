// Package demo orchestrates the five phases of the demonstration (§IV):
//
//	A — attacks against the application protected only by its PHP
//	    sanitization functions (they all succeed);
//	B — the same attacks with ModSecurity in front (some blocked, the
//	    semantic-mismatch ones pass: false negatives);
//	C — SEPTIC training (one model per distinct query, duplicates not
//	    re-added, models persisted);
//	D — SEPTIC in prevention mode (every attack blocked, benign traffic
//	    untouched: no false negatives, no false positives), and a stored
//	    XSS through an entry point training never visited, blocked with
//	    no model;
//	E — side-by-side comparison of the mechanisms.
//
// A GreenSQL-style SQL proxy is included as an extra baseline (the
// related-work deployment the paper discusses), so the comparison table
// has the full protection spectrum: sanitization, WAF, proxy, SEPTIC.
package demo

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/septic-db/septic/internal/attacks"
	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/dbfw"
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/waf"
	"github.com/septic-db/septic/internal/webapp"
	"github.com/septic-db/septic/internal/webapp/apps"
)

// Outcome is one attack case measured against every mechanism.
type Outcome struct {
	Case attacks.Case
	// ExecutedUnprotected: with sanitization only, the attack reached
	// the DBMS and executed (phase A).
	ExecutedUnprotected bool
	// BlockedByWAF: ModSecurity stopped the setup or trigger request
	// (phase B).
	BlockedByWAF bool
	// BlockedByProxy: the SQL proxy dropped one of the queries.
	BlockedByProxy bool
	// BlockedBySeptic: SEPTIC dropped the attack (phase D).
	BlockedBySeptic bool
	// SepticDetail names the detection (sqli step or plugin).
	SepticDetail string
}

// FalsePositives counts benign requests each mechanism wrongly blocked.
type FalsePositives struct {
	WAF    int
	Proxy  int
	Septic int
}

// Report is the full demonstration result.
type Report struct {
	Outcomes []Outcome
	// ModelsLearned is the size of SEPTIC's store after training
	// (phase C).
	ModelsLearned int
	// RetrainAdded is how many models a second identical training pass
	// added (phase C property: must be zero).
	RetrainAdded int
	FP           FalsePositives
	// SepticEvents is the event register after phase D (the demo's
	// "SEPTIC events" display).
	SepticEvents []core.Event
	// UntrainedWriteBlocked: in phase D, a stored XSS written through an
	// entry point with no model (UntrainedWrite) was dropped.
	UntrainedWriteBlocked bool
}

// UntrainedWrite is phase D's write through an entry point the guard has
// no model for: training skips /note/add, and this request stores a script
// through it. The stored-injection plugins judge what a write stores
// whatever its identifier, so prevention blocks it at first sight.
var UntrainedWrite = webapp.Request{Path: "/note/add",
	Params: map[string]string{"id": "1", "notes": "<script>alert(document.cookie)</script>"}}

// prevention is phase D's configuration: both detections, no learning.
var prevention = core.Config{
	Mode: core.ModePrevention, DetectSQLI: true, DetectStored: true,
	IncrementalLearning: false,
}

// freshWaspMon builds a new WaspMon deployment over the given executor,
// installing the schema through the raw engine so protection layers
// never see DDL.
func freshWaspMon(db *engine.DB, exec webapp.Executor) (*webapp.App, error) {
	for _, q := range apps.WaspMonSchema() {
		if _, err := db.Exec(q); err != nil {
			return nil, fmt.Errorf("schema: %w", err)
		}
	}
	return apps.NewWaspMon(exec), nil
}

// background replays the standard benign traffic so every deployment's
// database reaches the same state before an attack runs (it doubles as
// SEPTIC/proxy training where a guard is attached).
func background(app *webapp.App) error {
	for _, req := range apps.WaspMonTraining() {
		if resp := app.Serve(req.Clone()); resp.Status != 200 {
			return fmt.Errorf("background request %s failed: %v", req, resp.Err)
		}
	}
	return nil
}

// RunOption configures a demonstration run.
type RunOption func(*runConfig)

type runConfig struct {
	wafOpts []waf.Option
}

// WithWAFOptions forwards options to the phase-B WAF — the paranoia
// ablation runs the whole demonstration against a stricter rule set.
func WithWAFOptions(opts ...waf.Option) RunOption {
	return func(c *runConfig) { c.wafOpts = opts }
}

// Run executes all phases and assembles the report.
func Run(opts ...RunOption) (*Report, error) {
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	report := &Report{}
	corpus := attacks.Corpus()
	benign := attacks.Benign()

	// --- Phase A: sanitization only -----------------------------------
	for _, c := range corpus {
		db := engine.New()
		app, err := freshWaspMon(db, db)
		if err != nil {
			return nil, err
		}
		if err := background(app); err != nil {
			return nil, err
		}
		ok := true
		for _, setup := range c.Setup {
			if resp := app.Serve(setup.Clone()); resp.Status != 200 {
				ok = false
			}
		}
		var executed bool
		if ok {
			resp := app.Serve(c.Request.Clone())
			executed = resp.Status == 200
		}
		report.Outcomes = append(report.Outcomes, Outcome{
			Case:                c,
			ExecutedUnprotected: executed,
		})
	}

	// --- Phase B: ModSecurity in front ---------------------------------
	for i, c := range corpus {
		db := engine.New()
		app, err := freshWaspMon(db, db)
		if err != nil {
			return nil, err
		}
		if err := background(app); err != nil {
			return nil, err
		}
		w := waf.New(cfg.wafOpts...)
		serve := waf.Protect(w, app)
		blocked := false
		for _, setup := range c.Setup {
			if resp := serve(setup.Clone()); resp.Status == 403 {
				blocked = true
			}
		}
		if !blocked {
			if resp := serve(c.Request.Clone()); resp.Status == 403 {
				blocked = true
			}
		}
		report.Outcomes[i].BlockedByWAF = blocked
	}

	// --- Extra baseline: GreenSQL-style proxy --------------------------
	for i, c := range corpus {
		db := engine.New()
		fw := dbfw.New(db)
		app, err := freshWaspMon(db, fw)
		if err != nil {
			return nil, err
		}
		for _, req := range apps.WaspMonTraining() {
			if resp := app.Serve(req.Clone()); resp.Status != 200 {
				return nil, fmt.Errorf("proxy training request %s failed: %v", req, resp.Err)
			}
		}
		fw.SetMode(dbfw.ModeEnforcing)
		blocked := false
		proxyErr := func(resp *webapp.Response) bool {
			return resp.Err != nil && errors.Is(resp.Err, dbfw.ErrBlockedByProxy)
		}
		for _, setup := range c.Setup {
			if resp := app.Serve(setup.Clone()); proxyErr(resp) {
				blocked = true
			}
		}
		if !blocked {
			if resp := app.Serve(c.Request.Clone()); proxyErr(resp) {
				blocked = true
			}
		}
		report.Outcomes[i].BlockedByProxy = blocked
	}

	// --- Phase C: SEPTIC training --------------------------------------
	guard := core.New(core.Config{Mode: core.ModeTraining})
	db := engine.New(engine.WithQueryHook(guard))
	app, err := freshWaspMon(db, db)
	if err != nil {
		return nil, err
	}
	for _, req := range apps.WaspMonTraining() {
		if resp := app.Serve(req.Clone()); resp.Status != 200 {
			return nil, fmt.Errorf("SEPTIC training request %s failed: %v", req, resp.Err)
		}
	}
	report.ModelsLearned = guard.Store().Len()
	// Re-run the training: no model may be added twice.
	before := guard.Store().Len()
	for _, req := range apps.WaspMonTraining() {
		_ = app.Serve(req.Clone())
	}
	report.RetrainAdded = guard.Store().Len() - before

	// --- Phase D: SEPTIC prevention ------------------------------------
	for i, c := range corpus {
		guard := core.New(core.Config{Mode: core.ModeTraining})
		db := engine.New(engine.WithQueryHook(guard))
		app, err := freshWaspMon(db, db)
		if err != nil {
			return nil, err
		}
		for _, req := range apps.WaspMonTraining() {
			if resp := app.Serve(req.Clone()); resp.Status != 200 {
				return nil, fmt.Errorf("training %s failed: %v", req, resp.Err)
			}
		}
		guard.SetConfig(prevention)
		blocked := false
		for _, setup := range c.Setup {
			if resp := app.Serve(setup.Clone()); resp.Blocked {
				blocked = true
			}
		}
		resp := app.Serve(c.Request.Clone())
		if resp.Blocked {
			blocked = true
		}
		report.Outcomes[i].BlockedBySeptic = blocked
		if evs := guard.Logger().Attacks(); len(evs) > 0 {
			ev := evs[len(evs)-1]
			if ev.Attack == core.AttackSQLI {
				report.Outcomes[i].SepticDetail = "sqli/" + ev.Step.String()
			} else {
				report.Outcomes[i].SepticDetail = "stored/" + ev.Plugin
			}
			report.SepticEvents = append(report.SepticEvents, evs...)
		}
	}

	// An entry point training never visited: no model for its identifier.
	{
		guard := core.New(core.Config{Mode: core.ModeTraining})
		db := engine.New(engine.WithQueryHook(guard))
		app, err := freshWaspMon(db, db)
		if err != nil {
			return nil, err
		}
		for _, req := range apps.WaspMonTraining() {
			if req.Path == UntrainedWrite.Path {
				continue
			}
			if resp := app.Serve(req.Clone()); resp.Status != 200 {
				return nil, fmt.Errorf("training %s failed: %v", req, resp.Err)
			}
		}
		guard.SetConfig(prevention)
		report.UntrainedWriteBlocked = app.Serve(UntrainedWrite.Clone()).Blocked
	}

	// --- False positives: benign traffic through every mechanism -------
	// WAF.
	w := waf.New(cfg.wafOpts...)
	for _, req := range benign {
		if d := w.Check(req.Clone()); d.Blocked {
			report.FP.WAF++
		}
	}
	// Proxy.
	{
		db := engine.New()
		fw := dbfw.New(db)
		app, err := freshWaspMon(db, fw)
		if err != nil {
			return nil, err
		}
		for _, req := range apps.WaspMonTraining() {
			_ = app.Serve(req.Clone())
		}
		fw.SetMode(dbfw.ModeEnforcing)
		for _, req := range benign {
			resp := app.Serve(req.Clone())
			if resp.Err != nil && errors.Is(resp.Err, dbfw.ErrBlockedByProxy) {
				report.FP.Proxy++
			}
		}
	}
	// SEPTIC.
	{
		guard := core.New(core.Config{Mode: core.ModeTraining})
		db := engine.New(engine.WithQueryHook(guard))
		app, err := freshWaspMon(db, db)
		if err != nil {
			return nil, err
		}
		for _, req := range apps.WaspMonTraining() {
			_ = app.Serve(req.Clone())
		}
		guard.SetConfig(prevention)
		for _, req := range benign {
			if resp := app.Serve(req.Clone()); resp.Blocked {
				report.FP.Septic++
			}
		}
	}

	return report, nil
}

// Summary renders the phase-E comparison table as text.
func (r *Report) Summary() string {
	var b strings.Builder
	b.WriteString("phase E — mechanism comparison (x = attack blocked)\n")
	fmt.Fprintf(&b, "%-28s %-26s %-9s %-9s %-9s %-9s %s\n",
		"case", "class", "sanitize", "modsec", "proxy", "septic", "septic detail")
	for _, o := range r.Outcomes {
		sanitize := " " // sanitization never blocks: the attack executed
		if !o.ExecutedUnprotected {
			sanitize = "x"
		}
		fmt.Fprintf(&b, "%-28s %-26s %-9s %-9s %-9s %-9s %s\n",
			o.Case.Name, o.Case.Class,
			sanitize, mark(o.BlockedByWAF), mark(o.BlockedByProxy),
			mark(o.BlockedBySeptic), o.SepticDetail)
	}
	det := r.DetectionCounts()
	keys := make([]string, 0, len(det))
	for k := range det {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("\ndetection totals: ")
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %d/%d", k, det[k], len(r.Outcomes))
	}
	fmt.Fprintf(&b, "\nfalse positives on %d benign requests: modsec=%d proxy=%d septic=%d\n",
		len(attacks.Benign()), r.FP.WAF, r.FP.Proxy, r.FP.Septic)
	fmt.Fprintf(&b, "training: %d models learned, %d added on retrain (must be 0)\n",
		r.ModelsLearned, r.RetrainAdded)
	return b.String()
}

func mark(b bool) string {
	if b {
		return "x"
	}
	return " "
}

// DetectionCounts aggregates blocked-attack counts per mechanism.
func (r *Report) DetectionCounts() map[string]int {
	out := map[string]int{"modsec": 0, "proxy": 0, "septic": 0}
	for _, o := range r.Outcomes {
		if o.BlockedByWAF {
			out["modsec"]++
		}
		if o.BlockedByProxy {
			out["proxy"]++
		}
		if o.BlockedBySeptic {
			out["septic"]++
		}
	}
	return out
}
