package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/septic-db/septic/internal/engine"
	"github.com/septic-db/septic/internal/raceflag"
)

// --- the oracle ----------------------------------------------------------
//
// What the v1 query path was until jsoncodec.go: the answer copied into a
// Response and rendered by json.Encoder; the payload read by
// json.Unmarshal and copied into a Result. It stays here as the
// definition of the frame bytes and of what a payload means.

func oracleResponse(r *reply) *Response {
	resp := &Response{Error: r.err, Blocked: r.blocked, Busy: r.busy,
		Shed: r.shed, RetryAfterMS: r.retryAfterMS}
	if res := r.res; res != nil {
		resp.Columns = res.Columns
		resp.Affected = res.Affected
		resp.LastInsertID = res.LastInsertID
		for _, row := range res.Rows {
			wr := make([]WireValue, len(row))
			for j, v := range row {
				wr[j] = ToWire(v)
			}
			resp.Rows = append(resp.Rows, wr)
		}
	}
	return resp
}

// oracleFrame is the frame json.Encoder makes of msg — what writeFrame
// sent for every message until jsoncodec.go, and what jsonFrame must
// still send for a handshake.
func oracleFrame(t testing.TB, msg any) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(make([]byte, frameHeaderLen))
	if err := json.NewEncoder(&buf).Encode(msg); err != nil {
		return nil, err
	}
	frame := buf.Bytes()
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-frameHeaderLen))
	if got, err := jsonFrame(msg); err != nil || !bytes.Equal(got, frame) {
		t.Fatalf("jsonFrame(%+v) = %q, %v; json.Encoder frames it as %q", msg, got, err, frame)
	}
	return frame, nil
}

// oracleReply is everything the client reads off a response payload.
type oracleReply struct {
	res          *engine.Result
	err          error
	busy         bool
	retryAfterMS int64
}

func oracleDecodeReply(payload []byte) (oracleReply, error) {
	var resp Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		return oracleReply{}, err
	}
	o := oracleReply{busy: resp.Busy, retryAfterMS: resp.RetryAfterMS}
	ans := reply{err: resp.Error, blocked: resp.Blocked, busy: resp.Busy,
		shed: resp.Shed, retryAfterMS: resp.RetryAfterMS}
	if o.err = ans.failure(); o.err != nil {
		return o, nil
	}
	o.res = &engine.Result{Affected: resp.Affected, LastInsertID: resp.LastInsertID}
	if len(resp.Columns) > 0 {
		o.res.Columns = append([]string(nil), resp.Columns...)
	}
	o.res.Rows = make([][]engine.Value, len(resp.Rows))
	for i, row := range resp.Rows {
		vals := make([]engine.Value, len(row))
		for j, w := range row {
			vals[j] = FromWire(w)
		}
		o.res.Rows[i] = vals
	}
	return o, nil
}

// checkReplyDecode decodes payload both ways and holds the codec to the
// oracle: the same verdict, and on acceptance the same reply.
func checkReplyDecode(t testing.TB, payload []byte) {
	t.Helper()
	want, wantErr := oracleDecodeReply(payload)
	var ans reply
	gotErr := decodeReplyJSON(payload, &ans)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("reply %q: codec err %v, oracle err %v", payload, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	got := oracleReply{err: ans.failure(), busy: ans.busy, retryAfterMS: ans.retryAfterMS}
	if got.err == nil {
		got.res = ans.res
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reply %q:\n codec  %+v %+v\n oracle %+v %+v", payload, got, got.res, want, want.res)
	}
}

func checkRequestDecode(t testing.TB, payload []byte) {
	t.Helper()
	var want, got Request
	wantErr := json.Unmarshal(payload, &want)
	gotErr := decodeRequestJSON(payload, &got)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("request %q: codec err %v, oracle err %v", payload, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if len(want.Args) == 0 {
		want.Args = nil // "args":[] and no args at all are one thing to the server
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("request %q:\n codec  %+v %+v\n oracle %+v %+v", payload, got, got.Hello, want, want.Hello)
	}
}

// --- the generator -------------------------------------------------------

// nastyStrings is what a string generator must not miss: everything
// json.Encoder escapes or rewrites, and the confusable quote of the
// paper's Fig. 3.
var nastyStrings = []string{
	"", "ann", `"`, `\`, "<", ">", "&", "'", "/", "\x00", "\x01", "\b", "\f", "\n", "\r", "\t", "\x1f", "\x7f",
	"ʼ", "\u2028", "\u2029", "é", "日本語", "😀", "\xff", "\xc3", "\xe2\x80", "\xed\xa0\x80", "\ufffd",
	"SELECT * FROM t WHERE a < 1 AND b > 'x' -- ", `{"k":1}`, `\u02bc`,
}

var nastyFloats = []float64{
	0, math.Copysign(0, -1), 1e-6, 9.999e-7, -1e-6, 1e20, 1e21, -1e21, 1e-9, 1.5e-10, 123456789e-20,
	math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.1, 2.5, math.Pi, 1e6, 123456789.125,
}

var nastyInts = []int64{0, 1, -1, 42, math.MaxInt64, math.MinInt64, 1 << 53, -(1 << 31)}

func genString(rng *rand.Rand) string {
	var sb strings.Builder
	for n := rng.Intn(4); n >= 0; n-- {
		sb.WriteString(nastyStrings[rng.Intn(len(nastyStrings))])
	}
	return sb.String()
}

func genValue(rng *rand.Rand) engine.Value {
	switch rng.Intn(8) {
	case 0:
		return engine.Value{}
	case 1:
		return engine.Null()
	case 2:
		return engine.Bool(rng.Intn(2) == 0)
	case 3:
		return engine.Float(nastyFloats[rng.Intn(len(nastyFloats))])
	case 4:
		return engine.Float(math.Float64frombits(rng.Uint64())) // any bit pattern, NaN and Inf included
	case 5:
		return engine.Int(nastyInts[rng.Intn(len(nastyInts))])
	case 6:
		// A value whose fields disagree with its kind travels whole.
		return engine.Value{Kind: engine.Kind(rng.Intn(9) - 1), I: rng.Int63(), S: genString(rng), B: true}
	default:
		return engine.Str(genString(rng))
	}
}

func genReply(rng *rand.Rand) *reply {
	r := &reply{}
	switch rng.Intn(6) {
	case 0:
		r.err, r.blocked = genString(rng), rng.Intn(2) == 0
	case 1:
		r.err, r.shed, r.retryAfterMS = "shed", true, nastyInts[rng.Intn(len(nastyInts))]
	case 2:
		r.err, r.busy, r.retryAfterMS = "busy", true, int64(rng.Intn(3))
	}
	if rng.Intn(5) > 0 {
		res := &engine.Result{}
		r.res = res
		ncols := rng.Intn(5)
		for i := 0; i < ncols; i++ {
			res.Columns = append(res.Columns, genString(rng))
		}
		nrows := []int{0, 0, 1, 3, 200}[rng.Intn(5)]
		for i := 0; i < nrows; i++ {
			row := make([]engine.Value, ncols) // 0 columns: rows of no cells
			for j := range row {
				row[j] = genValue(rng)
			}
			res.Rows = append(res.Rows, row)
		}
		if rng.Intn(2) == 0 {
			res.Affected = nastyInts[rng.Intn(len(nastyInts))]
			res.LastInsertID = nastyInts[rng.Intn(len(nastyInts))]
		}
	}
	return r
}

func genRequest(rng *rand.Rand) *Request {
	req := &Request{Query: genString(rng)}
	for n := rng.Intn(4); n > 0; n-- {
		req.Args = append(req.Args, ToWire(genValue(rng)))
	}
	return req
}

// TestJSONCodecMatchesEncodingJSON is the differential property: over
// generated replies and requests the codec's frame is the oracle's frame
// byte for byte — or both refuse the value — and the codec decodes that
// frame to what the oracle decodes it to.
func TestJSONCodecMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var refused int
	for i := 0; i < 3000; i++ {
		ans := genReply(rng)
		want, wantErr := oracleFrame(t, oracleResponse(ans))
		got, gotErr := appendReplyJSON(nil, ans)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("reply %d %+v %+v: codec err %v, oracle err %v", i, ans, ans.res, gotErr, wantErr)
		}
		if gotErr != nil {
			if !errors.Is(gotErr, errNonFinite) {
				t.Fatalf("reply %d refused for %v", i, gotErr)
			}
			refused++
		} else {
			if !bytes.Equal(got, want) {
				t.Fatalf("reply %d frame differs:\n codec  %q\n oracle %q", i, got, want)
			}
			checkReplyDecode(t, got[frameHeaderLen:])
		}

		req := genRequest(rng)
		want, wantErr = oracleFrame(t, req)
		got, gotErr = appendRequestJSON(nil, req)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("request %d %+v: codec err %v, oracle err %v", i, req, gotErr, wantErr)
		}
		if gotErr == nil {
			if !bytes.Equal(got, want) {
				t.Fatalf("request %d frame differs:\n codec  %q\n oracle %q", i, got, want)
			}
			checkRequestDecode(t, got[frameHeaderLen:])
		}
	}
	if refused == 0 {
		t.Error("the generator never produced a non-finite float")
	}
}

// TestJSONDecodeForeignFrames: a v1 peer need not be this package. What
// another language's JSON library sends — spaces, its own member order,
// members this build does not know, null for an empty list, escapes
// where Go writes the character — reads as encoding/json read it.
func TestJSONDecodeForeignFrames(t *testing.T) {
	requests := []struct {
		payload string
		query   string // what the guard must see
		argc    int
	}{
		{`{"query": "SELECT 1"}`, "SELECT 1", 0},                                           // Python's json.dumps spacing
		{"{\n  \"query\": \"SELECT 1\",\n  \"args\": []\n}\n", "SELECT 1", 0},              // pretty-printed
		{`{"args":[{"i":7,"k":1}],"query":"SELECT ?"}`, "SELECT ?", 1},                     // members reordered
		{`{"query":"SELECT 1","trace_id":{"a":[1,2.5e3,null,true]},"v":2}`, "SELECT 1", 0}, // unknown members
		{`{"query":"SELECT 1","args":null,"hello":null}`, "SELECT 1", 0},
		{`{"query":"a = \u02bc OR 1=1"}`, "a = ʼ OR 1=1", 0},  // the confusable arrives as U+02BC, not as a quote
		{`{"query":"\ud83d\ude00 \u00e9\/\""}`, "😀 é/\"", 0},  // surrogate pair, escaped solidus
		{`{"query":"\ud83d x \ude00"}`, "\ufffd x \ufffd", 0}, // lone halves
		{"{\"query\":\"caf\xe9\"}", "caf\ufffd", 0},           // Latin-1 bytes from a careless client
		{`{"qu\u0065ry":"SELECT 1"}`, "SELECT 1", 0},          // an escape in a member name
		{`{"query":null}`, "", 0},
		{` null `, "", 0},
	}
	for _, c := range requests {
		checkRequestDecode(t, []byte(c.payload))
		var req Request
		if err := decodeRequestJSON([]byte(c.payload), &req); err != nil {
			t.Errorf("%q refused: %v", c.payload, err)
			continue
		}
		if req.Query != c.query || len(req.Args) != c.argc || req.Hello != nil {
			t.Errorf("%q: decoded %+v, want query %q with %d args", c.payload, req, c.query, c.argc)
		}
	}

	hello := `{"query":"","hello":{"repl":false,"app":"shop","v":2,"client":"php"}}`
	checkRequestDecode(t, []byte(hello))
	var req Request
	if err := decodeRequestJSON([]byte(hello), &req); err != nil || req.Hello == nil ||
		*req.Hello != (Hello{Version: 2, App: "shop"}) {
		t.Errorf("hello decoded to %+v %+v, err %v", req, req.Hello, err)
	}

	replies := []string{
		`{"columns": ["id", "name"], "rows": [[{"k": 2, "i": 1}, {"k": 4, "s": "ann"}]]}`,
		`{"rows":[[{"s":"x","k":4}],[],null,[null,{}]],"columns":["c"]}`,
		`{"affected":3,"last_insert_id":-0,"warnings":[{"code":1265}]}`,
		`{"error":"no such table","blocked":null,"rows":null,"columns":null}`,
		`{"error":"blocked \u003cby\u003e SEPTIC","blocked":true}`,
		`{"shed":true,"error":"shed","retry_after_ms":25}`,
		`{"busy":true,"error":"busy","retry_after_ms":1000}`,
		`{"rows":[[{"k":3,"f":1E+2},{"k":3,"f":-0.0},{"k":3,"f":5e-324},{"k":3,"f":1.7976931348623157e308}]]}`,
		`{"hello":{"v":2,"domain":"shop"}}`,
		`{}`, `null`, "\t{ }\r\n",
	}
	for _, p := range replies {
		checkReplyDecode(t, []byte(p))
		var ans reply
		if err := decodeReplyJSON([]byte(p), &ans); err != nil {
			t.Errorf("%q refused: %v", p, err)
		}
	}

	// Refused by both: not JSON, or JSON of the wrong shape.
	for _, p := range []string{
		``, `{`, `{"query":"x"`, `{"query":"x"}}`, `{"query":"x"} x`, `{"query":"x",}`, `{,"query":"x"}`,
		`{"query":'x'}`, `{query:"x"}`, `{"query":"x\q"}`, `{"query":"\u12G4"}`, "{\"query\":\"a\nb\"}",
		`{"query":5}`, `{"query":["x"]}`, `{"args":{}}`, `{"args":[1]}`, `{"args":[{"k":"1"}]}`,
		`{"args":[{"k":1.0}]}`, `{"args":[{"k":1e2}]}`, `{"args":[{"i":9223372036854775808}]}`,
		`{"args":[{"f":1e999}]}`, `{"args":[{"f":01}]}`, `{"args":[{"f":.5}]}`, `{"args":[{"f":1.}]}`,
		`{"args":[{"f":-}]}`, `{"args":[{"b":1}]}`, `{"args":[{"b":tru}]}`, `{"hello":[]}`, `{"hello":{"v":"2"}}`,
		`[]`, `"x"`, `1`, `true`, `nul`, `{"x":nulll}`, "\ufeff{}", `{"a":[1,]}`, `{"a":[1 2]}`, `{"a" 1}`,
	} {
		checkRequestDecode(t, []byte(p))
		checkReplyDecode(t, []byte(strings.ReplaceAll(strings.ReplaceAll(p, "query", "error"), "args", "rows")))
		if err := decodeRequestJSON([]byte(p), new(Request)); err == nil {
			t.Errorf("%q accepted", p)
		}
	}
	deep := strings.Repeat("[", maxJSONDepth+1) + strings.Repeat("]", maxJSONDepth+1)
	checkRequestDecode(t, []byte(`{"x":`+deep+`}`))                // 10 001 open brackets under the object: one too many
	checkRequestDecode(t, []byte(`{"x":`+deep[1:len(deep)-1]+`}`)) // 10 000 in all: the deepest encoding/json takes

	// The two documented differences, both on the strict side.
	if err := decodeRequestJSON([]byte(`{"Query":"SELECT 1"}`), &req); err != nil || req.Query != "" {
		t.Errorf("member names must match exactly: got %q, err %v", req.Query, err)
	}
	for _, p := range []string{
		`{"query":"benign","query":"evil"}`,
		`{"query":"x","args":[{"k":1}],"args":[{"i":2}]}`,
		`{"query":"x","args":[{"k":1,"k":2}]}`,
	} {
		if err := decodeRequestJSON([]byte(p), new(Request)); err == nil {
			t.Errorf("%q: a member given twice was accepted", p)
		}
	}
	if err := decodeReplyJSON([]byte(`{"error":"a","error":""}`), new(reply)); err == nil {
		t.Error("a reply member given twice was accepted")
	}
	// Unknown members may repeat: nobody reads them.
	checkRequestDecode(t, []byte(`{"x":1,"x":2,"query":"q"}`))
}

// --- allocation guards ---------------------------------------------------

// TestReplyJSONEncodeAllocatesNothing: between the engine's result and
// the v1 frame bytes the wire side allocates nothing, as on v2.
func TestReplyJSONEncodeAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation adds allocations")
	}
	buf := getEncBuf()
	defer putEncBuf(buf)
	for name, ans := range map[string]*reply{
		"2-row result": {res: &engine.Result{
			Columns: []string{"id", "name", "score"},
			Rows: [][]engine.Value{
				{engine.Int(1), engine.Str("ann <a&b>"), engine.Float(2.5e-7)},
				{engine.Int(2), engine.Null(), engine.Bool(true)},
			},
			Affected: 2,
		}},
		"blocked": {err: "query blocked\n", blocked: true},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			frame, err := appendReplyJSON(buf.b[:0], ans)
			if err != nil {
				t.Fatal(err)
			}
			buf.b = frame
		})
		if allocs != 0 {
			t.Errorf("%s: encoding allocates %.1f/op, want 0", name, allocs)
		}
	}
}

// TestReplyJSONDecodeAllocsIndependentOfRows: decoding a v1 result costs
// the Result, the payload's string copy, the column names, the row
// headers and a block of cells — the same few allocations for 200 rows
// and for 2 000, where the reflective decoder paid several per row.
func TestReplyJSONDecodeAllocsIndependentOfRows(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation adds allocations")
	}
	measure := func(nrows int) float64 {
		res := &engine.Result{Columns: []string{"id", "name", "phone", "email"}}
		for i := 0; i < nrows; i++ {
			res.Rows = append(res.Rows, []engine.Value{engine.Int(int64(i)), engine.Str("ann"),
				engine.Str("555-0100"), engine.Str("ann@example.org")})
		}
		frame, err := appendReplyJSON(nil, &reply{res: res})
		if err != nil {
			t.Fatal(err)
		}
		checkReplyDecode(t, frame[frameHeaderLen:])
		return testing.AllocsPerRun(50, func() {
			var ans reply
			if err := decodeReplyJSON(frame[frameHeaderLen:], &ans); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(200), measure(2000)
	t.Logf("v1 decode allocations: %.0f for 200 rows, %.0f for 2 000", small, large)
	if small > 8 || large > small+4 {
		t.Errorf("v1 decode allocates %.0f for 200 rows and %.0f for 2 000: want ≤ 8, and no growth with the rows", small, large)
	}
}

// TestReplyJSONDecodeBlockGrowth: rows denser than the estimate outgrow
// the first block; the rows already cut keep their cells and a row open
// at the seam is whole.
func TestReplyJSONDecodeBlockGrowth(t *testing.T) {
	res := &engine.Result{Columns: []string{"a", "b", "c"}}
	for i := 0; i < 500; i++ {
		res.Rows = append(res.Rows, []engine.Value{{}, {}, {}}) // {"k":0}: half the estimate's bytes
	}
	res.Rows[250] = []engine.Value{engine.Int(7), engine.Str("seam"), engine.Bool(true)}
	frame, err := appendReplyJSON(nil, &reply{res: res})
	if err != nil {
		t.Fatal(err)
	}
	checkReplyDecode(t, frame[frameHeaderLen:])
	var ans reply
	if err := decodeReplyJSON(frame[frameHeaderLen:], &ans); err != nil {
		t.Fatal(err)
	}
	for i, row := range ans.res.Rows {
		if cap(row) != len(row) {
			t.Fatalf("row %d: cap %d beyond len %d — an append would write into the next row", i, cap(row), len(row))
		}
	}
}

// TestJSONEncodeRefusesOversizeFrame: the encoders refuse a frame over
// the limit, and the header of one they build counts its payload.
func TestJSONEncodeRefusesOversizeFrame(t *testing.T) {
	big := &reply{res: &engine.Result{Columns: []string{"c"},
		Rows: [][]engine.Value{{engine.Str(strings.Repeat("x", maxFrame))}}}}
	if _, err := appendReplyJSON(nil, big); err == nil {
		t.Fatal("over-limit reply encoded")
	}
	if _, err := appendRequestJSON(nil, &Request{Query: strings.Repeat("x", maxFrame)}); err == nil {
		t.Fatal("over-limit request encoded")
	}
	frame, err := appendReplyJSON(nil, &reply{err: "e"})
	if err != nil || binary.BigEndian.Uint32(frame) != uint32(len(frame)-frameHeaderLen) {
		t.Fatalf("header %d for a frame of %d, err %v", binary.BigEndian.Uint32(frame), len(frame), err)
	}
}
