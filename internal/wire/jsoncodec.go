// jsoncodec.go — the version-1 JSON query codec.
//
// A v1 query frame is the length prefix and one JSON object, byte for
// byte what json.Encoder renders for Request and Response (protocol.go):
// HTML escaping, omitempty, the trailing newline and all. Those structs
// remain the schema, the codec of the handshake frames and the oracle
// this file is tested against (jsoncodec_test.go, FuzzJSONDecode). What
// a page waits on does not go through reflection: as on v2, the server
// appends the engine's own values to the frame (appendReplyJSON) and the
// client reads the frame into the *engine.Result its caller gets
// (decodeReplyJSON) — no Response, no WireValue rows in between.
//
// The decoders read what json.Unmarshal reads into those structs and
// refuse what it refuses: members in any order, unknown ones skipped,
// whitespace, null for any value, strings un-escaped exactly as it
// un-escapes them — a query text must reach the guard as the same bytes
// whichever decoder read it, or the codec is itself a semantic-mismatch
// channel. They are stricter in two ways: member names match exactly,
// not case-insensitively, and a known member given twice fails the frame
// where encoding/json merges the two. Like dec, jdec carries a sticky
// error, never indexes past the bytes present, and allocates at most a
// constant factor of the (already bounded) frame.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/septic-db/septic/internal/engine"
)

// --- encoding ----------------------------------------------------------

// errNonFinite refuses a value JSON has no literal for. encoding/json
// refuses it too; the binary framing carries it.
var errNonFinite = errors.New("non-finite float")

const hexDigits = "0123456789abcdef"

// jsonEscape says how json.Encoder writes an ASCII byte in a string: 0 as
// it is, 'u' as \u00XX (the controls and, for HTML's sake, <, > and &),
// any other value as a backslash and that letter.
var jsonEscape = func() (esc [utf8.RuneSelf]byte) {
	for c := 0; c < ' '; c++ {
		esc[c] = 'u'
	}
	esc['<'], esc['>'], esc['&'] = 'u', 'u', 'u'
	esc['"'], esc['\\'] = '"', '\\'
	esc['\b'], esc['\f'], esc['\n'], esc['\r'], esc['\t'] = 'b', 'f', 'n', 'r', 't'
	return esc
}()

func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0 // s[start:i] is read and not yet copied
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
		}
		switch {
		case c < utf8.RuneSelf && jsonEscape[c] == 'u':
			b = append(append(b, s[start:i]...), '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
		case c < utf8.RuneSelf && jsonEscape[c] != 0:
			b = append(append(b, s[start:i]...), '\\', jsonEscape[c])
		case c == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// appendJSONFloat renders f as encoding/json does: exponent form below
// 1e-6 and from 1e21 up, without the zero strconv pads the exponent with.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendJSONCell renders one value as its WireValue object: the kind
// always, every other field only when it is not zero.
func appendJSONCell(b []byte, v engine.Value) ([]byte, error) {
	b = strconv.AppendInt(append(b, `{"k":`...), int64(v.Kind), 10)
	if v.I != 0 {
		b = strconv.AppendInt(append(b, `,"i":`...), v.I, 10)
	}
	if v.F != 0 {
		if math.IsInf(v.F, 0) || math.IsNaN(v.F) {
			return b, errNonFinite
		}
		b = appendJSONFloat(append(b, `,"f":`...), v.F)
	}
	if v.S != "" {
		b = appendJSONString(append(b, `,"s":`...), v.S)
	}
	if v.B {
		b = append(b, `,"b":true`...)
	}
	return append(b, '}'), nil
}

// closeJSON ends an object or a list whose members were each written
// with a comma after them: the last comma becomes the closer, and an
// empty one just gets it.
func closeJSON(b []byte, closer byte) []byte {
	if b[len(b)-1] == ',' {
		b[len(b)-1] = closer
		return b
	}
	return append(b, closer)
}

// appendRequestJSON encodes one query request as a complete v1 frame.
// Handshakes are not its business: those go out through WriteJSONFrame.
func appendRequestJSON(b []byte, req *Request) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	b = append(appendJSONString(append(b, `{"query":`...), req.Query), ',')
	if len(req.Args) > 0 {
		b = append(b, `"args":[`...)
		for _, a := range req.Args {
			var err error
			if b, err = appendJSONCell(b, FromWire(a)); err != nil {
				return b, err
			}
			b = append(b, ',')
		}
		b = append(closeJSON(b, ']'), ',')
	}
	return endFrame(append(closeJSON(b, '}'), '\n'), start) // the newline is the Encoder's
}

// appendReplyJSON encodes one answer as a complete v1 frame, the
// result's values straight from the engine's. It fails on a non-finite
// float and on a frame over the limit; b is then garbage.
func appendReplyJSON(b []byte, r *reply) ([]byte, error) {
	start := len(b)
	b = append(b, 0, 0, 0, 0, '{')
	if res := r.res; res != nil {
		if len(res.Columns) > 0 {
			b = append(b, `"columns":[`...)
			for _, c := range res.Columns {
				b = append(appendJSONString(b, c), ',')
			}
			b = append(closeJSON(b, ']'), ',')
		}
		if len(res.Rows) > 0 {
			b = append(b, `"rows":[`...)
			for _, row := range res.Rows {
				b = append(b, '[')
				for _, v := range row {
					var err error
					if b, err = appendJSONCell(b, v); err != nil {
						return b, err
					}
					b = append(b, ',')
				}
				b = append(closeJSON(b, ']'), ',')
			}
			b = append(closeJSON(b, ']'), ',')
		}
		if res.Affected != 0 {
			b = append(strconv.AppendInt(append(b, `"affected":`...), res.Affected, 10), ',')
		}
		if res.LastInsertID != 0 {
			b = append(strconv.AppendInt(append(b, `"last_insert_id":`...), res.LastInsertID, 10), ',')
		}
	}
	if r.err != "" {
		b = append(appendJSONString(append(b, `"error":`...), r.err), ',')
	}
	if r.blocked {
		b = append(b, `"blocked":true,`...)
	}
	if r.busy {
		b = append(b, `"busy":true,`...)
	}
	if r.shed {
		b = append(b, `"shed":true,`...)
	}
	if r.retryAfterMS != 0 {
		b = append(strconv.AppendInt(append(b, `"retry_after_ms":`...), r.retryAfterMS, 10), ',')
	}
	return endFrame(append(closeJSON(b, '}'), '\n'), start)
}

// --- decoding ----------------------------------------------------------

// maxJSONDepth is encoding/json's own nesting bound; past it the frame is
// refused rather than recursed into.
const maxJSONDepth = 10000

// jdec is a bounds-checked cursor over one JSON payload, copied once
// into one string as dec copies its body: strings are substrings of the
// copy, and nothing decoded aliases the caller's (reused) read buffer.
type jdec struct {
	s     string // the payload
	i     int    // s[:i] is consumed
	depth int    // objects and arrays open around the cursor
	err   error
}

func (d *jdec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("decode frame: invalid JSON at byte %d: %s", d.i, what)
	}
}

// peek returns the byte at the cursor — 0 at the end of the payload and
// after any failure. No JSON token starts with a NUL, so whoever peeks
// then rejects: that makes the error sticky and every loop finite.
func (d *jdec) peek() byte {
	if d.err != nil || d.i >= len(d.s) {
		return 0
	}
	return d.s[d.i]
}

func (d *jdec) ws() {
	for c := d.peek(); c == ' ' || c == '\t' || c == '\r' || c == '\n'; c = d.peek() {
		d.i++
	}
}

// word consumes one of the literals true, false and null. Whatever
// follows it must be a delimiter, which the enclosing container checks.
func (d *jdec) word(w string) {
	if d.err == nil && strings.HasPrefix(d.s[d.i:], w) {
		d.i += len(w)
		return
	}
	d.fail("expected " + w)
}

// null consumes a null if one is at the cursor. For a field of any type
// encoding/json reads it as "leave it as it is": zero.
func (d *jdec) null() bool {
	if d.peek() != 'n' {
		return false
	}
	d.word("null")
	return true
}

// end rejects anything but whitespace after the value and returns the
// decode's verdict.
func (d *jdec) end() error {
	d.ws()
	if d.err == nil && d.i != len(d.s) {
		d.fail("trailing bytes")
	}
	return d.err
}

// each reads the object or array at the cursor, calling elem with the
// cursor on each element in turn (for an object, on the member's name).
// A null in the container's place is no elements.
func (d *jdec) each(open, closer byte, elem func()) {
	if d.null() {
		return
	}
	if d.peek() != open {
		d.fail("expected " + string(open) + " or null")
		return
	}
	if d.depth++; d.depth > maxJSONDepth {
		d.fail("nested too deep")
		return
	}
	d.i++
	for first := true; ; first = false {
		d.ws()
		switch c := d.peek(); {
		case c == closer:
			d.i++
			d.depth--
			return
		case first:
		case c == ',':
			d.i++
			d.ws()
		default:
			d.fail("expected , or " + string(closer))
			return
		}
		elem()
	}
}

func (d *jdec) array(elem func()) { d.each('[', ']', elem) }

// object reads an object, calling field with each member's name, the
// cursor on its value. known lists the names field acts on: the second
// occurrence of one fails the frame.
func (d *jdec) object(known []string, field func(name string)) {
	var seen uint
	d.each('{', '}', func() {
		name := d.str()
		d.ws()
		if d.peek() != ':' {
			d.fail("expected : after a member name")
			return
		}
		d.i++
		d.ws()
		for i, k := range known {
			if name != k {
				continue
			}
			if seen&(1<<i) != 0 {
				d.fail("member " + k + " given twice")
				return
			}
			seen |= 1 << i
		}
		field(name)
	})
}

// str reads a string literal. One with no escape and no invalid UTF-8 in
// it — nearly all of them — is a substring of the payload.
func (d *jdec) str() string {
	if d.peek() != '"' {
		d.fail("expected a string")
		return ""
	}
	start := d.i + 1
	for j := start; j < len(d.s); {
		switch c := d.s[j]; {
		case c == '"':
			d.i = j + 1
			return d.s[start:j]
		case c == '\\':
			return d.unquote(j)
		case c < ' ':
			d.i = j
			d.fail("control character in a string")
			return ""
		case c < utf8.RuneSelf:
			j++
		default:
			r, size := utf8.DecodeRuneInString(d.s[j:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(j)
			}
			j += size
		}
	}
	d.fail("unterminated string")
	return ""
}

// unquote finishes the literal at the cursor, which from j on holds
// something to rewrite — an escape, a byte that is not UTF-8 — by handing
// it to encoding/json, whose rewriting defines what the text is.
func (d *jdec) unquote(j int) (text string) {
	for ; j < len(d.s) && d.s[j] != '"'; j++ {
		if d.s[j] == '\\' {
			j++ // whatever is escaped, a quote included, is not the end
		}
	}
	if j >= len(d.s) || json.Unmarshal([]byte(d.s[d.i:j+1]), &text) != nil {
		d.fail("malformed string")
		return ""
	}
	d.i = j + 1
	return text
}

// text reads a string field: a literal, or null for the empty string.
func (d *jdec) text() string {
	if d.null() {
		return ""
	}
	return d.str()
}

func (d *jdec) boolean() bool {
	switch {
	case d.null():
	case d.peek() == 't':
		d.word("true")
		return d.err == nil
	default:
		d.word("false")
	}
	return false
}

func (d *jdec) digits() bool {
	start := d.i
	for c := d.peek(); '0' <= c && c <= '9'; c = d.peek() {
		d.i++
	}
	return d.i > start
}

// number consumes one number literal by the JSON grammar, or a null,
// which reads as 0.
func (d *jdec) number() string {
	if d.null() {
		return "0"
	}
	start := d.i
	if d.peek() == '-' {
		d.i++
	}
	if d.peek() == '0' {
		d.i++
	} else if !d.digits() {
		d.fail("expected a number")
	}
	if d.peek() == '.' {
		d.i++
		if !d.digits() {
			d.fail("expected digits after the decimal point")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.i++
		if c := d.peek(); c == '+' || c == '-' {
			d.i++
		}
		if !d.digits() {
			d.fail("expected digits in the exponent")
		}
	}
	return d.s[start:d.i]
}

// integer reads an int64 field. Like encoding/json it takes integer
// literals only: 1.0 and 1e3 are numbers but not int64s.
func (d *jdec) integer() int64 {
	lit := d.number()
	n, err := strconv.ParseInt(lit, 10, 64)
	if err != nil {
		d.fail("number " + lit + " is not an int64")
		return 0
	}
	return n
}

func (d *jdec) float() float64 {
	lit := d.number()
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		d.fail("number " + lit + " is not a float64")
		return 0
	}
	return f
}

// skip consumes one value of any shape — an unknown member's — holding
// it to the grammar all the same.
func (d *jdec) skip() {
	switch c := d.peek(); {
	case c == '{':
		d.object(nil, func(string) { d.skip() })
	case c == '[':
		d.array(d.skip)
	case c == '"':
		d.str()
	case c == 't':
		d.word("true")
	case c == 'f':
		d.word("false")
	case c == 'n':
		d.word("null")
	case c == '-' || '0' <= c && c <= '9':
		d.number()
	default:
		d.fail("expected a value")
	}
}

var cellKeys = []string{"k", "i", "f", "s", "b"}

// cell reads one WireValue object. Like encoding/json it takes the
// fields as they come, whatever the kind says.
func (d *jdec) cell() (v engine.Value) {
	d.object(cellKeys, func(name string) {
		switch name {
		case "k":
			v.Kind = engine.Kind(d.integer())
		case "i":
			v.I = d.integer()
		case "f":
			v.F = d.float()
		case "s":
			v.S = d.text()
		case "b":
			v.B = d.boolean()
		default:
			d.skip()
		}
	})
	return v
}

// viaJSON hands the value at the cursor to encoding/json: a handshake's,
// which happens once a connection and is that codec's business.
func (d *jdec) viaJSON(into any) {
	start := d.i
	d.skip()
	if d.err == nil && json.Unmarshal([]byte(d.s[start:d.i]), into) != nil {
		d.i = start
		d.fail("malformed handshake")
	}
}

var requestKeys = []string{"query", "args", "hello"}

// decodeRequestJSON decodes a v1 request payload — a query or a
// handshake, the server cannot know which is coming — into req (which
// should be reset; Args capacity is reused).
func decodeRequestJSON(payload []byte, req *Request) error {
	d := jdec{s: string(payload)}
	d.ws()
	d.object(requestKeys, func(name string) {
		switch name {
		case "query":
			req.Query = d.text()
		case "args":
			d.array(func() { req.Args = append(req.Args, ToWire(d.cell())) })
		case "hello":
			d.viaJSON(&req.Hello)
		default:
			d.skip()
		}
	})
	return d.end()
}

var replyKeys = []string{"columns", "rows", "affected", "last_insert_id",
	"error", "blocked", "busy", "shed", "retry_after_ms", "hello"}

// decodeReplyJSON decodes a v1 response payload into r, laid out like the
// v2 decoder's result: rows are windows of blocks of cells, so the number
// of allocations does not grow with the number of rows.
func decodeReplyJSON(payload []byte, r *reply) error {
	d := jdec{s: string(payload)}
	res := &engine.Result{}
	r.res = res
	d.ws()
	d.object(replyKeys, func(name string) {
		switch name {
		case "columns":
			d.array(func() {
				if res.Columns == nil {
					res.Columns = make([]string, 0, 8)
				}
				res.Columns = append(res.Columns, d.text())
			})
		case "rows":
			d.rows(res)
		case "affected":
			res.Affected = d.integer()
		case "last_insert_id":
			res.LastInsertID = d.integer()
		case "error":
			r.err = d.text()
		case "blocked":
			r.blocked = d.boolean()
		case "busy":
			r.busy = d.boolean()
		case "shed":
			r.shed = d.boolean()
		case "retry_after_ms":
			r.retryAfterMS = d.integer()
		case "hello":
			d.viaJSON(new(*HelloAck)) // not a query reply's, but held to its type
		default:
			d.skip()
		}
	})
	if res.Rows == nil {
		res.Rows = [][]engine.Value{} // as the binary decoder: no rows, not nil
	}
	return d.end()
}

// rows reads the rows member. JSON announces no counts, so cells go into
// a block sized by what is left of the payload at 16 bytes a cell
// ({"k":1,"i":123} and its comma); when it fills up, the rows cut from it
// keep it and the row being read moves to a block of twice the size.
func (d *jdec) rows(res *engine.Result) {
	var block []engine.Value
	d.array(func() {
		if res.Rows == nil {
			estimate := (len(d.s) - d.i) / 16
			block = make([]engine.Value, 0, estimate)
			res.Rows = make([][]engine.Value, 0, estimate/max(len(res.Columns), 1))
		}
		start := len(block)
		d.array(func() {
			if len(block) == cap(block) {
				grown := make([]engine.Value, len(block)-start, max(2*cap(block), 4))
				copy(grown, block[start:])
				block, start = grown, 0
			}
			block = append(block, d.cell())
		})
		res.Rows = append(res.Rows, block[start:len(block):len(block)])
	})
}
