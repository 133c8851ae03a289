package benchlab

import (
	"fmt"
	"strings"
	"time"

	"github.com/septic-db/septic/internal/core"
	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/sqlparser"
	"github.com/septic-db/septic/internal/wal"
)

// The durability lane measures what crash safety costs on the training
// path: each Put of a newly learned model appends to the write-ahead
// log before it is acknowledged, so the interesting number is the
// per-update latency at each fsync policy against the no-WAL baseline.
// Detection-path traffic is untouched by durability (verdicts are not
// logged), which the overhead table makes visible by also replaying a
// detection-mode pass over the trained store.

// DurabilityRow is one policy's measurement.
type DurabilityRow struct {
	// Policy is "off" (no WAL) or the wal.FsyncPolicy name.
	Policy string
	// TrainPerUpdate is the mean wall time of one training-path hook
	// call (parse excluded; every call learns a new model and appends).
	TrainPerUpdate time.Duration
	// DetectPerQuery is the mean detection-mode hook call over the
	// trained store (cached verdicts disabled) — durability must not
	// show up here.
	DetectPerQuery time.Duration
	// Appends and Fsyncs are the WAL's counters after the run.
	Appends int64
	Fsyncs  int64
}

// DurabilityPolicies lists the measured configurations in report order.
func DurabilityPolicies() []string {
	return []string{"off", "never", "interval", "always"}
}

// RunDurability replays `updates` distinct training queries through the
// full hook path for each policy, each in a fresh WAL directory under
// dir, and returns one row per policy. Queries are made distinct by a
// "/* qN */" comment identifier, so every training call stores a model
// and therefore appends one WAL record.
func RunDurability(dir string, updates int) ([]DurabilityRow, error) {
	// Pre-parse outside the timed region: the parse cost is identical
	// across policies and would only dilute the overhead being measured.
	ctxs := make([]*engine.HookContext, updates)
	for i := range ctxs {
		q := fmt.Sprintf("/* q%06d */ SELECT a FROM t WHERE b = %d", i, i)
		stmt, err := sqlparser.Parse(q)
		if err != nil {
			return nil, err
		}
		ctxs[i] = &engine.HookContext{
			Raw: q, Decoded: q, Stmt: stmt, Comments: stmt.StatementComments(),
		}
	}

	var rows []DurabilityRow
	for _, policy := range DurabilityPolicies() {
		guard := core.New(core.Config{Mode: core.ModeTraining},
			core.WithVerdictCacheCapacity(0))
		var persist *core.Persistence
		if policy != "off" {
			fp, err := wal.ParseFsyncPolicy(policy)
			if err != nil {
				return nil, err
			}
			persist, err = guard.AttachPersistence(core.PersistenceOptions{
				Dir:   fmt.Sprintf("%s/wal-%s", dir, policy),
				Fsync: fp,
			})
			if err != nil {
				return nil, err
			}
		}

		start := time.Now()
		for _, hctx := range ctxs {
			if err := guard.BeforeExecute(hctx); err != nil {
				return nil, fmt.Errorf("policy %s: train: %w", policy, err)
			}
		}
		trainPer := time.Since(start) / time.Duration(updates)

		guard.SetConfig(core.Config{
			Mode: core.ModePrevention, DetectSQLI: true, DetectStored: true,
		})
		start = time.Now()
		for _, hctx := range ctxs {
			if err := guard.BeforeExecute(hctx); err != nil {
				return nil, fmt.Errorf("policy %s: detect: %w", policy, err)
			}
		}
		detectPer := time.Since(start) / time.Duration(updates)

		row := DurabilityRow{Policy: policy, TrainPerUpdate: trainPer, DetectPerQuery: detectPer}
		if persist != nil {
			st := persist.Stats()
			row.Appends = st.WAL.Appends
			row.Fsyncs = st.WAL.Fsyncs
			if err := persist.Close(); err != nil {
				return nil, err
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatDurability renders the rows as the EXPERIMENTS.md table:
// per-update training latency, overhead vs the no-WAL baseline, and the
// detection-path latency showing durability stays off the read path.
func FormatDurability(rows []DurabilityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %14s %10s %14s %10s %10s\n",
		"policy", "train/update", "overhead", "detect/query", "appends", "fsyncs")
	var base time.Duration
	for _, r := range rows {
		if r.Policy == "off" {
			base = r.TrainPerUpdate
		}
	}
	for _, r := range rows {
		over := "—"
		if r.Policy != "off" && base > 0 {
			over = fmt.Sprintf("%+.0f%%", 100*(float64(r.TrainPerUpdate)/float64(base)-1))
		}
		fmt.Fprintf(&b, "%-10s %14s %10s %14s %10d %10d\n",
			r.Policy, r.TrainPerUpdate, over, r.DetectPerQuery, r.Appends, r.Fsyncs)
	}
	return b.String()
}
