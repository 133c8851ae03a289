package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/septic-db/septic/internal/engine"
)

const (
	kInt    = int(engine.KindInt)
	kFloat  = int(engine.KindFloat)
	kString = int(engine.KindString)
	kBool   = int(engine.KindBool)
	kNull   = int(engine.KindNull)
)

// sampleRequest exercises every value kind.
func sampleRequest() *Request {
	return &Request{
		Query: "SELECT id, name FROM t WHERE id = ? AND w > ? AND ok = ? AND note = ? AND x IS ?",
		Args: []WireValue{
			{Kind: kInt, I: -42},
			{Kind: kFloat, F: math.Pi},
			{Kind: kBool, B: true},
			{Kind: kString, S: "O'Reilly — naïve\x00bytes"},
			{Kind: kNull},
		},
	}
}

func sampleReply() *reply {
	return &reply{res: &engine.Result{
		Columns: []string{"id", "name"},
		Rows: [][]engine.Value{
			{engine.Int(1), engine.Str("ann")},
			{engine.Int(2), engine.Null()},
		},
		Affected:     -7,
		LastInsertID: 99,
	}}
}

func TestBinaryRequestRoundTrip(t *testing.T) {
	want := sampleRequest()
	frame, err := appendRequestFrame(nil, 12345, want)
	if err != nil {
		t.Fatal(err)
	}
	buf := &encBuf{}
	seq, typ, body, err := readBinaryFrame(bytes.NewReader(frame), buf)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 12345 || typ != frameQuery {
		t.Fatalf("seq=%d typ=%#x", seq, typ)
	}
	var got Request
	if err := decodeRequestBody(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Query != want.Query || !reflect.DeepEqual(got.Args, want.Args) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, *want)
	}
}

// TestBinaryReplyRoundTrip: what the server's executor encodes is what
// the client's reader decodes, for every kind of answer. A failure
// carries no result on the server and decodes to the empty one.
func TestBinaryReplyRoundTrip(t *testing.T) {
	cases := []*reply{
		sampleReply(),
		{err: "boom", blocked: true},
		{busy: true, err: "server busy"},
		{busy: true, err: "server busy", retryAfterMS: 250},
		{shed: true, err: "server overloaded", retryAfterMS: 17},
		{shed: true, err: "quota exceeded"}, // shed without a hint
		{res: &engine.Result{}},             // empty success
		{res: &engine.Result{Columns: []string{"n"}, Rows: [][]engine.Value{{}, {engine.Bool(true), engine.Float(math.Pi)}}}}, // ragged rows
	}
	for i, want := range cases {
		frame, err := appendReplyFrame(nil, uint64(i)+7, want)
		if err != nil {
			t.Fatal(err)
		}
		buf := &encBuf{}
		seq, typ, body, err := readBinaryFrame(bytes.NewReader(frame), buf)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if seq != uint64(i)+7 || typ != frameResult {
			t.Fatalf("case %d: seq=%d typ=%#x", i, seq, typ)
		}
		var got reply
		if err := decodeReplyBody(body, &got); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		// The decoded strings must not alias the (reused) read buffer.
		scratch := buf.b[:cap(buf.b)]
		for j := range scratch {
			scratch[j] = 0xAA
		}
		wantRes := want.res
		if wantRes == nil {
			wantRes = &engine.Result{}
		}
		if got.blocked != want.blocked || got.busy != want.busy || got.err != want.err ||
			got.shed != want.shed || got.retryAfterMS != want.retryAfterMS ||
			got.res.Affected != wantRes.Affected || got.res.LastInsertID != wantRes.LastInsertID ||
			len(got.res.Columns) != len(wantRes.Columns) || len(got.res.Rows) != len(wantRes.Rows) {
			t.Fatalf("case %d mismatch:\n got %+v %+v\nwant %+v %+v", i, got, got.res, *want, wantRes)
		}
		for j := range wantRes.Columns {
			if got.res.Columns[j] != wantRes.Columns[j] {
				t.Fatalf("case %d column %d: got %q want %q", i, j, got.res.Columns[j], wantRes.Columns[j])
			}
		}
		for j := range wantRes.Rows {
			if len(got.res.Rows[j]) != len(wantRes.Rows[j]) ||
				(len(wantRes.Rows[j]) > 0 && !reflect.DeepEqual(got.res.Rows[j], wantRes.Rows[j])) {
				t.Fatalf("case %d row %d: got %+v want %+v", i, j, got.res.Rows[j], wantRes.Rows[j])
			}
			// Rows are windows of one backing: appending to one must not
			// write into the next.
			if cap(got.res.Rows[j]) != len(got.res.Rows[j]) {
				t.Fatalf("case %d row %d: cap %d beyond len %d", i, j, cap(got.res.Rows[j]), len(got.res.Rows[j]))
			}
		}
	}
}

// TestReplyFrameBytesUnchanged holds the rewritten codec to the frame
// format: the committed fuzz seeds were written by the encoder that went
// through Response and WireValue, and decoding then re-encoding them
// must give back the same bytes.
func TestReplyFrameBytesUnchanged(t *testing.T) {
	for _, name := range []string{"valid_response", "blocked_response"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzBinaryDecode", name))
		if err != nil {
			t.Fatal(err)
		}
		lit := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
		lit = strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")")
		text, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := []byte(text)
		seq, typ, body, err := readBinaryFrame(bytes.NewReader(want), &encBuf{})
		if err != nil || typ != frameResult {
			t.Fatalf("%s: typ=%#x err=%v", name, typ, err)
		}
		var ans reply
		if err := decodeReplyBody(body, &ans); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := appendReplyFrame(nil, seq, &ans)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s re-encoded differently:\n got %q\nwant %q", name, got, want)
		}
	}
}

// TestDecoderRejectsHostileBodies holds the decoders to their contract:
// truncated, lying, or trailing-garbage bodies return an error — never
// a panic, never a giant allocation.
func TestDecoderRejectsHostileBodies(t *testing.T) {
	reqFrame, _ := appendRequestFrame(nil, 1, sampleRequest())
	respFrame, _ := appendReplyFrame(nil, 1, sampleReply())
	reqBody := reqFrame[4+v2FrameOverhead:]
	respBody := respFrame[4+v2FrameOverhead:]

	// Every strict prefix of a valid body must decode cleanly or error —
	// prefixes that happen to be self-delimiting are fine, panics are not.
	for n := 0; n < len(reqBody); n++ {
		var req Request
		_ = decodeRequestBody(reqBody[:n], &req) // must not panic
	}
	for n := 0; n < len(respBody); n++ {
		var ans reply
		_ = decodeReplyBody(respBody[:n], &ans)
	}

	// A count that promises more elements than bytes remain must be
	// rejected before allocation.
	lie := binary.AppendUvarint(appendString(nil, "SELECT 1"), 1<<40)
	var req Request
	if err := decodeRequestBody(lie, &req); err == nil {
		t.Fatal("lying arg count accepted")
	}
	// Unknown value kind.
	bad := appendString(nil, "q")
	bad = binary.AppendUvarint(bad, 1) // argc = 1
	bad = append(bad, 0xEE)            // unknown kind
	if err := decodeRequestBody(bad, &req); err == nil {
		t.Fatal("unknown value kind accepted")
	}
	// Trailing bytes after a complete body.
	trailing := append(append([]byte{}, reqBody...), 0x00)
	if err := decodeRequestBody(trailing, &req); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	var ans reply
	trailingResp := append(append([]byte{}, respBody...), 0x01)
	if err := decodeReplyBody(trailingResp, &ans); err == nil {
		t.Fatal("trailing bytes accepted in response")
	}
}

func TestReadBinaryFrameRejectsShortAndOversized(t *testing.T) {
	// Payload length below the fixed seq+type overhead.
	short := []byte{0, 0, 0, 4, 1, 2, 3, 4}
	if _, _, _, err := readBinaryFrame(bytes.NewReader(short), &encBuf{}); err == nil {
		t.Fatal("undersized frame accepted")
	}
	// Length header beyond maxFrame.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0}
	if _, _, _, err := readBinaryFrame(bytes.NewReader(huge), &encBuf{}); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Torn frame: header promises more than arrives.
	torn, _ := appendRequestFrame(nil, 9, sampleRequest())
	if _, _, _, err := readBinaryFrame(bytes.NewReader(torn[:len(torn)-3]), &encBuf{}); err == nil {
		t.Fatal("torn frame accepted")
	}
	// Encoder refuses to build a frame over the limit.
	big := &Request{Query: string(make([]byte, maxFrame+1))}
	if _, err := appendRequestFrame(nil, 1, big); err == nil {
		t.Fatal("over-limit frame encoded")
	}
}

// TestCodecSteadyStateAllocs pins the pooled codec's hot path: with a
// reused buffer, encoding a request and decoding it back must not
// allocate beyond the decoded strings themselves.
func TestCodecSteadyStateAllocs(t *testing.T) {
	req := sampleRequest()
	buf := &encBuf{}
	var scratch Request
	allocs := testing.AllocsPerRun(200, func() {
		frame, err := appendRequestFrame(buf.b[:0], 7, req)
		if err != nil {
			t.Fatal(err)
		}
		buf.b = frame
		scratch.reset()
		if err := decodeRequestBody(frame[4+v2FrameOverhead:], &scratch); err != nil {
			t.Fatal(err)
		}
	})
	// One alloc per string arg + the query string; everything else (frame
	// buffer, args slice) is reused. Generous ceiling: 6.
	if allocs > 6 {
		t.Fatalf("encode+decode steady state allocates %.1f/op, ceiling 6", allocs)
	}
}

// TestPutEncBufDropsOversizedBuffers: one giant frame, either framing,
// must not pin its buffer in the pool every query frame is built in.
func TestPutEncBufDropsOversizedBuffers(t *testing.T) {
	big := &encBuf{b: make([]byte, 0, poolableCap+1)}
	putEncBuf(big)
	for i := 0; i < 64; i++ {
		if got := getEncBuf(); got == big {
			t.Fatalf("pooled a buffer of %d bytes, bound %d", cap(big.b), poolableCap)
		}
	}
}
