// codec.go — the version-2 binary frame codec.
//
// A v2 frame is length-prefixed like a v1 frame, so the 16 MiB bound
// and the split idle/read deadline handling carry over unchanged:
//
//	offset  size  field
//	0       4     payload length N (big-endian uint32, 9 ≤ N ≤ maxFrame)
//	4       8     sequence number (big-endian uint64)
//	12      1     frame type (frameQuery | frameResult)
//	13      N-9   type-specific body
//
// The sequence number is assigned by the client, strictly increasing
// per connection, and echoed verbatim in the response frame: responses
// may arrive in any order (the server completes queries out of order)
// and the client matches them back by sequence number. There is no
// binary hello — protocol negotiation happens once, in JSON, before the
// first binary frame — and no per-request cancellation frame: the unit
// of cancellation is the connection (closing it abandons every request
// in flight), exactly like the query-kill granularity of the paper's
// MySQL deployment.
//
// Body encodings (all integers big-endian, lengths/counts unsigned
// varints):
//
//	query request:  query string · arg count · args
//	result:         flags byte (blocked|busy|shed|retry-after) ·
//	                [retry-after ms uvarint, iff the retry-after flag] ·
//	                error string ·
//	                affected i64 · last-insert-id i64 ·
//	                column count · column strings ·
//	                row count · per row: cell count · cells
//	string:         uvarint byte length · bytes
//	value (cell):   kind byte, then INT/FLOAT: 8 bytes, STRING: string,
//	                BOOL: 1 byte, NULL: nothing
//
// A result is encoded once and decoded once: the server's executor
// encodes the engine's own values into the frame (appendReplyFrame), and
// the client decodes the frame into the *engine.Result its caller gets
// (decodeReplyBody) — no Response or WireValue in between.
//
// Every decoder is defensive: lengths and counts are checked against
// the bytes actually present before any allocation, so a torn or
// hostile frame can neither panic the decoder nor make it allocate
// beyond a constant factor of the (already bounded) frame size. The
// fuzz target FuzzBinaryDecode holds the decoders to that contract.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"github.com/septic-db/septic/internal/engine"
)

// v2FrameOverhead is the sequence number plus the type byte — the fixed
// part of every v2 payload.
const v2FrameOverhead = 9

// Frame types.
const (
	frameQuery  byte = 0x01 // client → server
	frameResult byte = 0x02 // server → client
)

// errFrameTooShort rejects payloads smaller than the fixed overhead.
var errFrameTooShort = errors.New("binary frame shorter than header")

// encBuf is a pooled encode/decode scratch buffer. Frames are built in
// one of these and written with a single Write, and read payloads land
// in one before decoding.
type encBuf struct {
	b []byte
}

var encBufPool = sync.Pool{New: func() any {
	return &encBuf{b: make([]byte, 0, 4096)}
}}

func getEncBuf() *encBuf { return encBufPool.Get().(*encBuf) }

func putEncBuf(e *encBuf) {
	if cap(e.b) <= poolableCap {
		encBufPool.Put(e)
	}
}

// --- encoding ----------------------------------------------------------

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendValue(b []byte, v engine.Value) []byte {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case engine.KindInt:
		b = binary.BigEndian.AppendUint64(b, uint64(v.I))
	case engine.KindFloat:
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.F))
	case engine.KindString:
		b = appendString(b, v.S)
	case engine.KindBool:
		if v.B {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// beginFrame reserves the length header and writes the fixed payload
// prefix; endFrame patches the header once the body is complete.
func beginFrame(b []byte, seq uint64, typ byte) []byte {
	b = append(b, 0, 0, 0, 0)
	b = binary.BigEndian.AppendUint64(b, seq)
	return append(b, typ)
}

func endFrame(b []byte, start int) ([]byte, error) {
	n := len(b) - start - 4
	if n > maxFrame {
		return b, fmt.Errorf("frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// appendRequestFrame encodes one query request as a complete v2 frame.
func appendRequestFrame(b []byte, seq uint64, req *Request) ([]byte, error) {
	start := len(b)
	b = beginFrame(b, seq, frameQuery)
	b = appendString(b, req.Query)
	b = binary.AppendUvarint(b, uint64(len(req.Args)))
	for _, a := range req.Args {
		b = appendValue(b, FromWire(a))
	}
	return endFrame(b, start)
}

// Response flag bits. Old decoders never see the new bits set by old
// encoders and ignore unknown bits, so adding flags (with their
// flag-gated payload) keeps both directions of version skew working.
const (
	respFlagBlocked    = 1 << 0
	respFlagBusy       = 1 << 1
	respFlagShed       = 1 << 2 // overload control rejected this request
	respFlagRetryAfter = 1 << 3 // a retry-after uvarint follows the flags
)

// reply is one request's answer as the binary path carries it: what the
// server's executor produced and what the client's reader hands on. The
// result is the engine's own type at both ends.
type reply struct {
	// res is the executed statement's result. The server leaves it nil on
	// any failure; the decoder always sets it.
	res          *engine.Result
	err          string // failure text, empty on success
	blocked      bool   // SEPTIC dropped the query
	busy         bool   // connection refused at admission
	shed         bool   // overload control rejected the request
	retryAfterMS int64  // backoff hint with busy or shed, 0 = none
}

// failure maps an answer's failure fields to the error the client's
// caller sees; nil means the statement executed.
func (r *reply) failure() error {
	switch {
	case r.shed:
		// Overload control rejected this one request before execution:
		// the session stays healthy (no poison) and the typed error
		// carries the server's retry-after hint.
		return &OverloadError{
			RetryAfter: time.Duration(r.retryAfterMS) * time.Millisecond,
			msg:        r.err,
		}
	case r.busy:
		return ErrServerBusy
	case r.err == "":
		return nil
	case r.blocked:
		return fmt.Errorf("%w: %s", ErrServerBlocked, r.err)
	default:
		return errors.New(r.err)
	}
}

// appendReplyFrame encodes one answer as a complete v2 result frame,
// the result's values straight from the engine's.
func appendReplyFrame(b []byte, seq uint64, r *reply) ([]byte, error) {
	start := len(b)
	b = beginFrame(b, seq, frameResult)
	var flags byte
	if r.blocked {
		flags |= respFlagBlocked
	}
	if r.busy {
		flags |= respFlagBusy
	}
	if r.shed {
		flags |= respFlagShed
	}
	if r.retryAfterMS > 0 {
		flags |= respFlagRetryAfter
	}
	b = append(b, flags)
	if r.retryAfterMS > 0 {
		b = binary.AppendUvarint(b, uint64(r.retryAfterMS))
	}
	b = appendString(b, r.err)
	res := r.res
	if res == nil {
		res = &engine.Result{} // does not escape: a failure encodes as the empty result
	}
	b = binary.BigEndian.AppendUint64(b, uint64(res.Affected))
	b = binary.BigEndian.AppendUint64(b, uint64(res.LastInsertID))
	b = binary.AppendUvarint(b, uint64(len(res.Columns)))
	for _, c := range res.Columns {
		b = appendString(b, c)
	}
	b = binary.AppendUvarint(b, uint64(len(res.Rows)))
	for _, row := range res.Rows {
		b = binary.AppendUvarint(b, uint64(len(row)))
		for _, v := range row {
			b = appendValue(b, v)
		}
	}
	return endFrame(b, start)
}

// --- decoding ----------------------------------------------------------

// dec is a bounds-checked cursor over one frame body. Every take method
// fails (sticky error) instead of panicking when the body is truncated
// or a count lies about the bytes that follow. The body is copied once,
// into one string: every string a decoder returns is a substring of it,
// so a frame costs one string allocation however many it carries, and
// nothing decoded aliases the caller's (reused) read buffer.
type dec struct {
	b   []byte // the bytes not yet consumed
	s   string // the same bytes as a string
	err error
}

func newDec(body []byte) dec { return dec{b: body, s: string(body)} }

func (d *dec) skip(n int) {
	d.b, d.s = d.b[n:], d.s[n:]
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("decode binary frame: truncated or invalid %s", what)
	}
}

func (d *dec) takeByte(what string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail(what)
		return 0
	}
	v := d.b[0]
	d.skip(1)
	return v
}

func (d *dec) takeU64(what string) uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail(what)
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.skip(8)
	return v
}

func (d *dec) takeUvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.skip(n)
	return v
}

// takeCount reads a collection count and rejects any value that could
// not possibly fit in the remaining bytes (each element needs at least
// one byte), so a lying count cannot drive a huge allocation.
func (d *dec) takeCount(what string) int {
	v := d.takeUvarint(what)
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.b)) {
		d.fail(what)
		return 0
	}
	return int(v)
}

func (d *dec) takeString(what string) string {
	n := d.takeCount(what)
	if d.err != nil {
		return ""
	}
	s := d.s[:n]
	d.skip(n)
	return s
}

func (d *dec) takeValue() engine.Value {
	kind := d.takeByte("value kind")
	if d.err != nil {
		return engine.Value{}
	}
	v := engine.Value{Kind: engine.Kind(kind)}
	switch v.Kind {
	case engine.KindInvalid, engine.KindNull:
		// No payload. KindInvalid (a zero engine.Value) round-trips like
		// null — the JSON path carries it too, so the binary path must.
	case engine.KindInt:
		v.I = int64(d.takeU64("int value"))
	case engine.KindFloat:
		v.F = math.Float64frombits(d.takeU64("float value"))
	case engine.KindString:
		v.S = d.takeString("string value")
	case engine.KindBool:
		v.B = d.takeByte("bool value") != 0
	default:
		d.fail("value kind")
	}
	return v
}

// finish rejects trailing bytes and returns the decode's verdict.
func (d *dec) finish() error {
	if d.err == nil && len(d.b) != 0 {
		d.fail("trailing bytes")
	}
	return d.err
}

// decodeRequestBody decodes a frameQuery body into req (which should be
// reset; Args capacity is reused).
func decodeRequestBody(body []byte, req *Request) error {
	d := newDec(body)
	req.Query = d.takeString("query")
	argc := d.takeCount("arg count")
	for i := 0; i < argc && d.err == nil; i++ {
		req.Args = append(req.Args, ToWire(d.takeValue()))
	}
	return d.finish()
}

// decodeReplyBody decodes a frameResult body into r. The result costs a
// fixed number of allocations whatever its size: the Result, the frame's
// string backing, the column and row headers, and one flat value slice
// that every row is a window of.
func decodeReplyBody(body []byte, r *reply) error {
	d := newDec(body)
	flags := d.takeByte("flags")
	r.blocked = flags&respFlagBlocked != 0
	r.busy = flags&respFlagBusy != 0
	r.shed = flags&respFlagShed != 0
	if flags&respFlagRetryAfter != 0 {
		r.retryAfterMS = int64(d.takeUvarint("retry-after ms"))
	}
	r.err = d.takeString("error")
	res := &engine.Result{}
	r.res = res
	res.Affected = int64(d.takeU64("affected"))
	res.LastInsertID = int64(d.takeU64("last insert id"))
	ncols := d.takeCount("column count")
	if ncols > 0 {
		res.Columns = make([]string, 0, ncols)
	}
	for i := 0; i < ncols && d.err == nil; i++ {
		res.Columns = append(res.Columns, d.takeString("column name"))
	}
	nrows := d.takeCount("row count")
	res.Rows = make([][]engine.Value, 0, nrows)
	// Rows of a well-formed result have one cell per column, and a cell
	// takes at least a byte: the estimate can never exceed the body.
	flat := make([]engine.Value, 0, min(nrows*ncols, len(d.b)))
	for i := 0; i < nrows && d.err == nil; i++ {
		ncells := d.takeCount("cell count")
		if cap(flat)-len(flat) < ncells {
			flat = make([]engine.Value, 0, ncells) // a row the estimate did not cover
		}
		start := len(flat)
		for j := 0; j < ncells && d.err == nil; j++ {
			flat = append(flat, d.takeValue())
		}
		res.Rows = append(res.Rows, flat[start:len(flat):len(flat)])
	}
	return d.finish()
}

// readBinaryFrame reads one v2 frame into buf (reused across calls) and
// returns the sequence number, frame type and body. The body aliases
// buf and is only valid until the next call.
func readBinaryFrame(r io.Reader, buf *encBuf) (seq uint64, typ byte, body []byte, err error) {
	payload, err := readWholeFrame(r, buf)
	if err != nil {
		return 0, 0, nil, err
	}
	return splitBinaryPayload(payload)
}

// readBinaryFramePayload reads the payload of a v2 frame whose header
// (length n) was already consumed — split out so the server can switch
// from its idle deadline to its read deadline between the two.
func readBinaryFramePayload(r io.Reader, n uint32, buf *encBuf) (seq uint64, typ byte, body []byte, err error) {
	payload, err := readPayload(r, n, buf)
	if err != nil {
		return 0, 0, nil, err
	}
	return splitBinaryPayload(payload)
}

func splitBinaryPayload(payload []byte) (seq uint64, typ byte, body []byte, err error) {
	if len(payload) < v2FrameOverhead {
		return 0, 0, nil, errFrameTooShort
	}
	return binary.BigEndian.Uint64(payload), payload[8], payload[v2FrameOverhead:], nil
}
