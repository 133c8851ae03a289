package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"github.com/septic-db/septic/internal/sqlparser"
)

// Sentinel errors returned by the engine.
var (
	// ErrQueryBlocked is returned when the registered QueryHook drops a
	// query (SEPTIC prevention mode). Callers distinguish a blocked query
	// from a failed one with errors.Is.
	ErrQueryBlocked = errors.New("query blocked by security hook")
	// ErrNoSuchTable is returned for references to unknown tables.
	ErrNoSuchTable = errors.New("no such table")
	// ErrNoSuchColumn is returned for references to unknown columns.
	ErrNoSuchColumn = errors.New("no such column")
	// ErrDuplicate is returned on UNIQUE/PRIMARY KEY violations.
	ErrDuplicate = errors.New("duplicate entry")
	// ErrTableExists is returned by CREATE TABLE without IF NOT EXISTS.
	ErrTableExists = errors.New("table already exists")
)

// ColType is a column's declared type.
type ColType int

// Column types. DATETIME values are stored as strings in canonical
// "2006-01-02 15:04:05" form.
const (
	ColInvalid ColType = iota
	ColInt
	ColFloat
	ColText
	ColBool
	ColDatetime
)

// String names the column type as DESCRIBE would print it.
func (t ColType) String() string {
	switch t {
	case ColInt:
		return "INT"
	case ColFloat:
		return "FLOAT"
	case ColText:
		return "TEXT"
	case ColBool:
		return "BOOL"
	case ColDatetime:
		return "DATETIME"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

func colTypeFromName(name string) (ColType, error) {
	switch name {
	case "INT":
		return ColInt, nil
	case "FLOAT":
		return ColFloat, nil
	case "TEXT":
		return ColText, nil
	case "BOOL":
		return ColBool, nil
	case "DATETIME":
		return ColDatetime, nil
	default:
		return ColInvalid, fmt.Errorf("unknown column type %q", name)
	}
}

// Column is one column definition of a table.
type Column struct {
	Name          string
	Type          ColType
	PrimaryKey    bool
	AutoIncrement bool
	Unique        bool
	NotNull       bool
	Default       *Value
}

// Table is an in-memory table: a schema plus a row store. The schema
// (Name, Columns) is immutable after CREATE TABLE; rows, indexes and the
// AUTO_INCREMENT counter are guarded by the table's own lock, acquired
// per statement by the engine's lock plan (lockplan.go) — so statements
// touching different tables run fully in parallel.
type Table struct {
	Name    string
	Columns []Column
	// layout is the scope layout of a row of this table under its own
	// name: the column-name slice every statement over the table shares.
	// Built once in newTable, immutable like the schema.
	layout layout

	// mu guards Rows, nextAuto and indexes. DML takes it exclusively,
	// reads share it; acquisition order across tables is by sorted name.
	mu   sync.RWMutex
	Rows [][]Value
	// nextAuto is the next AUTO_INCREMENT value to hand out.
	nextAuto int64
	// indexes holds the unique hash indexes, keyed by column position.
	// Maintained under the table write lock; see index.go.
	indexes map[int]map[string]int
}

// colIndex returns the index of the named column (case-insensitive,
// matching MySQL's default collation for identifiers), or -1.
func (t *Table) colIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// coerce converts v to the column's declared type, mirroring MySQL's
// implicit conversion on store.
func (c *Column) coerce(v Value) (Value, error) {
	if v.IsNull() {
		if c.NotNull {
			return Value{}, fmt.Errorf("column %q cannot be null", c.Name)
		}
		return v, nil
	}
	switch c.Type {
	case ColInt:
		return Int(v.AsInt()), nil
	case ColFloat:
		return Float(v.AsFloat()), nil
	case ColText, ColDatetime:
		return Str(v.String()), nil
	case ColBool:
		return Bool(v.AsBool()), nil
	default:
		return Value{}, fmt.Errorf("column %q has invalid type", c.Name)
	}
}

func newTable(stmt *sqlparser.CreateTableStmt) (*Table, error) {
	t := &Table{Name: stmt.Table, nextAuto: 1}
	seen := make(map[string]bool, len(stmt.Columns))
	for _, def := range stmt.Columns {
		key := strings.ToLower(def.Name)
		if seen[key] {
			return nil, fmt.Errorf("duplicate column %q", def.Name)
		}
		seen[key] = true
		typ, err := colTypeFromName(def.Type)
		if err != nil {
			return nil, err
		}
		col := Column{
			Name:          def.Name,
			Type:          typ,
			PrimaryKey:    def.PrimaryKey,
			AutoIncrement: def.AutoIncrement,
			Unique:        def.Unique || def.PrimaryKey,
			NotNull:       def.NotNull || def.PrimaryKey,
		}
		if def.Default != nil {
			lit, ok := def.Default.(*sqlparser.Literal)
			if !ok {
				return nil, fmt.Errorf("column %q: DEFAULT must be a literal", def.Name)
			}
			v := LiteralValue(lit)
			cv, err := col.coerce(v)
			if err != nil {
				return nil, err
			}
			col.Default = &cv
		}
		t.Columns = append(t.Columns, col)
	}
	if len(t.Columns) == 0 {
		return nil, errors.New("table must have at least one column")
	}
	names := make([]string, len(t.Columns))
	for i := range t.Columns {
		names[i] = t.Columns[i].Name
	}
	t.layout.addSource(t.Name, names)
	t.rebuildIndexes()
	return t, nil
}

// LiteralValue converts a parsed literal to a runtime value: what a '?'
// in its place would have to be bound to for the statement to mean, and
// look to the guard, the same.
func LiteralValue(l *sqlparser.Literal) Value {
	switch l.Kind {
	case sqlparser.LiteralInt:
		return Int(l.Int)
	case sqlparser.LiteralFloat:
		return Float(l.Float)
	case sqlparser.LiteralString:
		return Str(l.Str)
	case sqlparser.LiteralBool:
		return Bool(l.Bool)
	default:
		return Null()
	}
}
