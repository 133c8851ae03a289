package wire

import (
	"bytes"
	"math"
	"slices"
	"testing"

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
