package engine

import (
	"fmt"
	"strings"

	"github.com/septic-db/septic/internal/sqlparser"
)

// execExplain answers an EXPLAIN with the access plan the SELECT would
// use: one row per FROM source plus derived branches, in the spirit of
// MySQL's EXPLAIN output. Runs under the caller-held read lock.
func (db *DB) execExplain(s *sqlparser.ExplainStmt, args []Value) (*Result, error) {
	res := &Result{Columns: []string{"table", "access_type", "detail"}}
	db.explainSelect(s.Select, res, args)
	return res, nil
}

func (db *DB) explainSelect(s *sqlparser.SelectStmt, res *Result, args []Value) {
	// The access path is the one execution takes: ask the planner, and
	// for a '?' put this execution's argument to the same proof.
	var p plan
	answered := false
	if len(s.From) == 1 && s.From[0].Subquery == nil && db.planAccess(&p, s.From[0].Name, s.From[0].Alias, s.Where) {
		_, _, answered = p.probe(args)
	}
	if answered {
		res.Rows = append(res.Rows, []Value{
			Str(p.table.Name), Str("const"),
			Str(fmt.Sprintf("unique index lookup on %s", p.table.Columns[p.indexCol].Name)),
		})
	} else {
		db.explainScan(s.From, res, args)
	}
	if hasAggregates(s) {
		res.Rows = append(res.Rows, []Value{Str(""), Str("aggregate"), Str("grouping pass")})
	}
	if s.Union != nil {
		res.Rows = append(res.Rows, []Value{Str(""), Str("union"), Str("result merge")})
		db.explainSelect(s.Union.Next, res, args)
	}
}

// explainScan lists the FROM sources of a branch that scans them.
func (db *DB) explainScan(from []sqlparser.TableRef, res *Result, args []Value) {
	if len(from) == 0 {
		res.Rows = append(res.Rows, []Value{Str(""), Str("none"), Str("no tables used")})
	}
	for i, ref := range from {
		switch {
		case ref.Subquery != nil:
			name := ref.Alias
			if name == "" {
				name = "derived"
			}
			res.Rows = append(res.Rows, []Value{
				Str(name), Str("derived"), Str("materialized subquery"),
			})
			db.explainSelect(ref.Subquery, res, args)
		case i == 0:
			detail := "full scan"
			if t := db.tables[strings.ToLower(ref.Name)]; t != nil {
				detail = fmt.Sprintf("full scan (%d rows)", len(t.Rows))
			}
			res.Rows = append(res.Rows, []Value{Str(ref.Name), Str("ALL"), Str(detail)})
		default:
			join := ref.Join
			if join == "" {
				join = "CROSS"
			}
			res.Rows = append(res.Rows, []Value{
				Str(ref.Name), Str("ALL"),
				Str(fmt.Sprintf("nested-loop %s join", strings.ToLower(join))),
			})
		}
	}
}
