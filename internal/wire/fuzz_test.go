package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
	"unicode"

	"github.com/septic-db/septic/internal/engine"
)

// sameValue compares two values bit-for-bit: reflect.DeepEqual would
// reject a NaN float that round-tripped perfectly.
func sameValue(x, y engine.Value) bool {
	return x.Kind == y.Kind && x.I == y.I && x.S == y.S && x.B == y.B &&
		math.Float64bits(x.F) == math.Float64bits(y.F)
}

// FuzzBinaryDecode holds the v2 codec's decoders to their contract: an
// arbitrary byte stream — torn frames, oversized lengths, lying counts,
// hostile sequence numbers — must never panic the decoder or drive an
// allocation beyond the frame bound, and everything that does decode
// must re-encode and decode back to the same value (round-trip
// stability, which is what the server relies on when it echoes
// sequence numbers and replays bodies through the pools).
func FuzzBinaryDecode(f *testing.F) {
	// Seeds: valid frames of both types, then mutations a hostile or
	// faulty peer would produce.
	reqFrame, _ := appendRequestFrame(nil, 1, &Request{
		Query: "SELECT id FROM t WHERE id = ?",
		Args:  []WireValue{{Kind: kInt, I: 42}, {Kind: kString, S: "x"}},
	})
	respFrame, _ := appendReplyFrame(nil, 1<<40, &reply{res: &engine.Result{
		Columns: []string{"id"},
		Rows:    [][]engine.Value{{engine.Int(1)}, {engine.Null()}},
	}})
	blockedFrame, _ := appendReplyFrame(nil, 7, &reply{err: "blocked", blocked: true})
	f.Add(reqFrame)
	f.Add(respFrame)
	f.Add(blockedFrame)
	f.Add(reqFrame[:len(reqFrame)-4])                       // torn mid-body
	f.Add(reqFrame[:6])                                     // torn mid-header
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})          // oversized length
	f.Add([]byte{0, 0, 0, 3, 1, 2, 3})                      // below fixed overhead
	f.Add([]byte{0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0xEE}) // unknown type, zero seq
	// Lying collection count: argc claims 2^40 elements.
	lie := append([]byte{}, reqFrame[:4+v2FrameOverhead]...)
	lie = append(lie, appendString(nil, "q")...)
	lie = append(lie, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	lie[3] = byte(len(lie) - 4)
	f.Add(lie)

	f.Fuzz(func(t *testing.T, data []byte) {
		buf := &encBuf{}
		seq, typ, body, err := readBinaryFrame(bytes.NewReader(data), buf)
		if err != nil {
			return // rejected cleanly — that's a pass
		}
		// Decode as both frame kinds; neither may panic.
		var req Request
		reqErr := decodeRequestBody(body, &req)
		var ans reply
		ansErr := decodeReplyBody(body, &ans)

		// Whatever decoded must round-trip: encode → read → decode gives
		// the same value under the same sequence number.
		if typ == frameQuery && reqErr == nil {
			re, err := appendRequestFrame(nil, seq, &req)
			if err != nil {
				t.Fatalf("re-encode decoded request: %v", err)
			}
			seq2, typ2, body2, err := readBinaryFrame(bytes.NewReader(re), &encBuf{})
			if err != nil || seq2 != seq || typ2 != frameQuery {
				t.Fatalf("re-read: seq=%d/%d typ=%#x err=%v", seq2, seq, typ2, err)
			}
			var req2 Request
			if err := decodeRequestBody(body2, &req2); err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if req2.Query != req.Query || !slices.EqualFunc(req2.Args, req.Args, func(x, y WireValue) bool {
				return sameValue(FromWire(x), FromWire(y))
			}) {
				t.Fatalf("request round-trip mismatch: %+v vs %+v", req, req2)
			}
		}
		if typ == frameResult && ansErr == nil {
			re, err := appendReplyFrame(nil, seq, &ans)
			if err != nil {
				t.Fatalf("re-encode decoded reply: %v", err)
			}
			var ans2 reply
			_, _, body2, err := readBinaryFrame(bytes.NewReader(re), &encBuf{})
			if err != nil {
				t.Fatalf("re-read reply: %v", err)
			}
			if err := decodeReplyBody(body2, &ans2); err != nil {
				t.Fatalf("re-decode reply: %v", err)
			}
			res, res2 := ans.res, ans2.res
			same := ans2.err == ans.err && ans2.blocked == ans.blocked && ans2.busy == ans.busy &&
				ans2.shed == ans.shed && res2.Affected == res.Affected &&
				res2.LastInsertID == res.LastInsertID &&
				len(res2.Columns) == len(res.Columns) && len(res2.Rows) == len(res.Rows)
			for i := 0; same && i < len(res.Columns); i++ {
				same = res2.Columns[i] == res.Columns[i]
			}
			for i := 0; same && i < len(res.Rows); i++ {
				same = slices.EqualFunc(res2.Rows[i], res.Rows[i], sameValue)
			}
			if !same {
				t.Fatalf("reply round-trip mismatch: %+v %+v vs %+v %+v", ans, res, ans2, res2)
			}
		}
	})
}

// jsonFoldName is encoding/json's case folding of a member name: every
// rune replaced by the smallest of its simple-folding orbit (the Kelvin
// sign is a K).
func jsonFoldName(s string) string {
	return strings.Map(func(r rune) rune {
		for {
			next := unicode.SimpleFold(r)
			if next <= r {
				return next
			}
			r = next
		}
	}, s)
}

// wireMemberNames are the member names of the wire structs, as written
// and case-folded.
var wireMemberNames, wireMemberNamesFolded = func() (exact, folded map[string]bool) {
	exact, folded = map[string]bool{}, map[string]bool{}
	for _, keys := range [][]string{requestKeys, replyKeys, cellKeys, {"v", "app", "domain", "repl"}} {
		for _, k := range keys {
			exact[k], folded[jsonFoldName(k)] = true, true
		}
	}
	return exact, folded
}()

// strictnessApplies reports whether payload — valid JSON — has an object
// with a member named twice, or named like a member of the wire structs
// but not exactly: the inputs on which the codec is knowingly stricter
// than encoding/json (jsoncodec.go), and the only ones FuzzJSONDecode
// lets the two disagree on.
func strictnessApplies(payload []byte) bool {
	exact, folded := wireMemberNames, wireMemberNamesFolded
	dec := json.NewDecoder(bytes.NewReader(payload))
	var walk func() bool // consumes one value
	walk = func() bool {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch tok {
		case json.Delim('{'):
			names := map[string]bool{}
			for dec.More() {
				tok, _ := dec.Token()
				name, _ := tok.(string)
				if names[name] || !exact[name] && folded[jsonFoldName(name)] {
					return true
				}
				names[name] = true
				if walk() {
					return true
				}
			}
			_, _ = dec.Token() // the closing brace
		case json.Delim('['):
			for dec.More() {
				if walk() {
					return true
				}
			}
			_, _ = dec.Token()
		}
		return false
	}
	return walk()
}

// FuzzJSONDecode holds the v1 codec's decoders to their contract: a
// frame of arbitrary bytes never panics them; what either accepts is
// valid JSON; and each reaches encoding/json's verdict and encoding/json's
// value — the query text the guard will see included — on everything but
// the inputs the codec is documented to be stricter on.
func FuzzJSONDecode(f *testing.F) {
	reqFrame, _ := appendRequestJSON(nil, sampleRequest())
	respFrame, _ := appendReplyJSON(nil, sampleReply())
	blockedFrame, _ := appendReplyJSON(nil, &reply{err: "query <blocked> by SEPTIC", blocked: true})
	shedFrame, _ := appendReplyJSON(nil, &reply{err: "shed", shed: true, retryAfterMS: 25})
	helloFrame, _ := oracleFrame(f, &Request{Hello: &Hello{Version: HelloVersion, App: "shop"}})
	ackFrame, _ := oracleFrame(f, &Response{Hello: &HelloAck{Version: HelloVersion, Domain: "shop"}})
	frame := func(payload string) []byte {
		return append([]byte{0, 0, 0, byte(len(payload))}, payload...)
	}
	for _, seed := range [][]byte{
		reqFrame, respFrame, blockedFrame, shedFrame, helloFrame, ackFrame,
		reqFrame[:len(reqFrame)-5], // torn mid-payload
		respFrame[:3],              // torn mid-header
		frame(`{"query": "SELECT 1", "args": null, "trace": [1, 2.5e3, {"a": null}]}`),
		frame(`{"query":"a = \u02bc OR \ud83d\ude00 \ud83d"}`),
		frame("{\"query\":\"caf\xe9\"}"),
		frame(`{"rows":[[{"k":3,"f":-0.0},{"k":2,"i":-9223372036854775808}],null,[]],"columns":null}`),
		frame(`{"query":"x","QUERY":"y","query":"z"}`),
		{0xFF, 0xFF, 0xFF, 0xFF, '{', '}'}, // oversized length
		{0, 0, 0, 9, '{', '}'},             // the header lies: 9 bytes promised, 2 sent
		{0, 0, 0, 1, '{', '}'},             // lies the other way: a frame that ends inside the object
		{0, 0, 0, 0},                       // empty payload
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := readWholeFrame(bytes.NewReader(data), &encBuf{})
		if err != nil {
			return // rejected cleanly — that's a pass
		}
		if json.Valid(payload) && strictnessApplies(payload) {
			// Stricter by design: the verdicts may differ, nothing else.
			_ = decodeRequestJSON(payload, new(Request))
			_ = decodeReplyJSON(payload, new(reply))
			return
		}
		checkRequestDecode(t, payload)
		checkReplyDecode(t, payload)
		if !json.Valid(payload) {
			if err := decodeRequestJSON(payload, new(Request)); err == nil {
				t.Fatalf("request decoder accepted invalid JSON %q", payload)
			}
			if err := decodeReplyJSON(payload, new(reply)); err == nil {
				t.Fatalf("reply decoder accepted invalid JSON %q", payload)
			}
		}
	})
}
