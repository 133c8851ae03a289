package core

import (
	"strconv"
	"strings"

	"github.com/septic-db/septic/internal/qstruct"
	"github.com/septic-db/septic/internal/sqlparser"
)

// IDGenerator produces query identifiers (paper §II-C2). An identifier
// is the concatenation of two parts:
//
//   - The external identifier, optionally supplied by the application or
//     its server-side language engine inside a leading SQL comment
//     ("/* external identifier */ SELECT ..."). It is free-form text
//     chosen by the programmer.
//   - The internal identifier, computed by SEPTIC itself from the
//     query's skeleton — statement kind, target tables and column lists —
//     i.e. the parts of the query an injection into a data value cannot
//     change. Hashing the full structure would be self-defeating: an
//     attacked query would hash to an unknown ID and look like a *new*
//     query instead of failing the comparison against its model.
//
// When no external identifier is present, the ID is just the internal
// part.
type IDGenerator struct {
	// UseExternal controls whether comment-borne external identifiers
	// participate in the ID (the ablation benchmarks toggle this).
	UseExternal bool
}

// NewIDGenerator returns a generator with external identifiers enabled,
// the paper's default ("one of these identifiers may be optionally
// provided by the application").
func NewIDGenerator() *IDGenerator {
	return &IDGenerator{UseExternal: true}
}

// ID computes the query identifier for a validated statement: the
// external identifier and a '#', when there is one and it participates,
// then the internal one — 'q' and the statement skeleton's hash in hex.
// The skeleton is streamed into the hash (qstruct.SkeletonHash) and the
// parts are appended into one stack buffer, so the identifier is built
// and allocated once. Identifiers are store keys in WAL directories on
// disk: these bytes may not change.
func (g *IDGenerator) ID(stmt sqlparser.Statement, comments []string) string {
	var buf [MaxExternalIDLen + 18]byte // ext + '#' + 'q' + up to 16 hex digits
	id := buf[:0]
	if g.UseExternal {
		if ext := ExternalID(comments); ext != "" {
			id = append(append(id, ext...), '#')
		}
	}
	id = append(id, 'q')
	return string(strconv.AppendUint(id, qstruct.SkeletonHash(stmt), 16))
}

// MaxExternalIDLen bounds the accepted external identifier (after
// trimming). The bound exists for two reasons: identifiers are store
// keys and metric labels, so an attacker-influenced comment must not be
// able to balloon them; and the verdict-cache/domain router does byte
// scans over the identifier on the hot path, which the bound keeps O(1)
// in practice.
const MaxExternalIDLen = 128

// ExternalID extracts the application-supplied external identifier from
// a statement's comments: the body of the first comment, trimmed. An
// empty string means the application supplied none — either because
// there was no comment or because the comment body is MALFORMED as an
// identifier and is rejected outright:
//
//   - embedded newlines or any other control byte (< 0x20, or DEL): a
//     multi-line comment is commentary, not an identifier, and control
//     bytes would corrupt the single-line event register and audit log
//     where identifiers are printed verbatim;
//   - oversized bodies (> MaxExternalIDLen after trimming): see the
//     constant.
//
// Rejection deliberately degrades to "no external identifier": the
// query still gets its internal skeleton-hash identifier and full
// protection, it just loses the optional programmer-supplied label —
// the paper's semantics for applications that supply none. (Unterminated
// /* comments never reach here: the parser rejects the whole statement
// before the hook runs.)
func ExternalID(comments []string) string {
	if len(comments) == 0 {
		return ""
	}
	ext := strings.TrimSpace(comments[0])
	if len(ext) > MaxExternalIDLen {
		return ""
	}
	for i := 0; i < len(ext); i++ {
		if c := ext[i]; c < 0x20 || c == 0x7f {
			return ""
		}
	}
	return ext
}

// AppPrefix returns the application prefix of an external identifier —
// the text before the first ':' in the "/* app:query-id */" convention
// the paper's four demo applications use — or "" when the identifier
// carries no prefix. The result aliases ext (a substring), so calling it
// on the hot path allocates nothing.
func AppPrefix(ext string) string {
	if i := strings.IndexByte(ext, ':'); i > 0 {
		return ext[:i]
	}
	return ""
}
