package httpd

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"vsmartjoin"
	"vsmartjoin/internal/cluster"
)

// jsonDecode is the reference the wire decoder is held to: encoding/json
// with unknown fields rejected, and — stricter than json.Decoder.More —
// nothing but whitespace after the value.
func jsonDecode(body []byte, v any) error {
	rd := bytes.NewReader(body)
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	rest, err := io.ReadAll(io.MultiReader(dec.Buffered(), rd))
	if err != nil {
		return err
	}
	if len(bytes.TrimLeft(rest, " \t\r\n")) > 0 {
		return errTrailing
	}
	return nil
}

// decodeBoth decodes body as a T with the wire decoder and with
// jsonDecode, and fails unless both accept with the same value or both
// reject.
func decodeBoth[T any](t *testing.T, kind string, body []byte, value func(d *decoder, v *T)) {
	t.Helper()
	var got, want T
	var d decoder
	err := d.decode(body, nil, func(d *decoder) { value(d, &got) })
	werr := jsonDecode(body, &want)
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("%s %q: wire decoder says %v, encoding/json %v", kind, body, err, werr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%s %q: wire decoder gives %#v, encoding/json %#v", kind, body, got, want)
	}
}

// requestBodySeeds covers what the daemons' bodies exercise of json's
// rules: every body type, case-folded and escaped keys, repeated keys,
// nulls, escapes and surrogates, invalid UTF-8, the number grammar and
// the uint32, int and float64 ranges, trailing bytes and syntax errors.
var requestBodySeeds = []string{
	`{"elements": {"a": 3, "b": 1}, "threshold": 0.5}`,
	`{"elements": {"a": 1}, "topk": 3, "debug": true}`,
	`{"entity": "ip-1", "threshold": 0}`,
	`{"elements": {"a": 1}, "k": 2}`,
	`{"k": 3}`,
	`{"entity": "e", "elements": {"a": 3}}`,
	`{"entity": "e"}`,
	`{"ops": [{"op": "add", "entity": "a", "elements": {"x": 1}}, {"op": "remove", "entity": "b"}]}`,
	`{}`, `null`, " {} ", "", "  \n", "{}\n\t\r ",
	// Field names match exactly, else case-insensitively (with Unicode
	// folding: K is the Kelvin sign, ſ a long s).
	`{"ELEMENTS": {"a": 1}, "Threshold": 0.5}`,
	`{"Entity": "e", "eLeMeNtS": {"a": 1}, "K": 1}`,
	`{"\u212a": 2, "elementſ": {"a": 1}}`,
	`{"TOPK": 1, "elements": {"a": 1}, "DEBUG": false}`,
	`{"OPS": [{"OP": "remove", "ENTITY": "x"}]}`,
	`{"\u0065ntity": "e", "element\u0073": {"\u0061": 1}}`,
	`{"entityx": "e"}`, `{"entit": "e"}`,
	// Repeated keys: the last wins, and a repeated multiset merges.
	`{"elements": {"a": 1, "c": 3}, "elements": {"b": 2, "a": 5}, "threshold": 0.5}`,
	`{"elements": {"a": 1}, "elements": null, "elements": {"b": 2}, "k": 1}`,
	`{"topk": 3, "topk": null, "elements": {"a": 1}}`,
	`{"entity": "a", "entity": null, "threshold": 0.1, "threshold": null}`,
	`{"ops": [{"op": "add", "entity": "a", "elements": {"x": 1}}, {"op": "remove", "entity": "b"}], "ops": [{"entity": "c"}], "ops": [{}, {}, {"elements": {"y": 2}}]}`,
	`{"ops": [], "ops": [{"op": "remove"}]}`,
	`{"ops": []}`, `{"ops": [{"op": "remove", "entity": "a"}], "ops": []}`,
	`{"ops": [{"op": "remove", "entity": "a"}], "ops": [], "ops": [{}]}`,
	`{"ops": [{"op": "add"}, {"entity": "b"}], "ops": [{}], "ops": [null, null]}`,
	`{"ops": null}`, `{"ops": [null, {"op": "remove", "entity": "x"}, null]}`,
	// Nulls.
	`{"elements": {"a": null}, "threshold": null}`,
	`{"threshold": null, "topk": 1, "elements": {"a": 1}}`,
	`{"debug": null, "entity": null, "elements": null}`,
	// Escapes and surrogates.
	`{"entity": "a\"b\\c\/d\b\f\n\r\t\u0041\u00e9\u00E9"}`,
	`{"entity": "\ud83d\ude00"}`, `{"entity": "\ud83d"}`, `{"entity": "\ud83dx"}`,
	`{"entity": "\ud83d\u0041"}`, `{"entity": "\ude00\ud83d"}`, `{"entity": "\ud83d\ud83d\ude00"}`,
	`{"entity": "\ud83d\"}`, `{"entity": "\ud83d\u12"}`, `{"entity": "\ud83d\uzzzz"}`,
	`{"entity": "\x"}`, `{"entity": "\u12"}`, `{"entity": "\'"}`, "{\"entity\": \"a\x01\"}",
	"{\"entity\": \"tab\there\"}", `{"entity": "\u0000"}`,
	// Invalid UTF-8 becomes U+FFFD, in values and keys.
	"{\"entity\": \"\xff\xfe\"}", "{\"elements\": {\"\xc3\x28\": 1}, \"k\": 1}",
	"{\"entity\": \"\xed\xa0\x80\"}", "{\"entity\": \"\xef\xbf\xbd\"}",
	"{\"entity\": \"ok\xe2\x82\"}", "{\"ent\xffity\": \"e\"}",
	// Numbers: grammar, and the range of each field's type.
	`{"elements": {"a": 1.0}, "k": 1}`, `{"elements": {"a": -1}, "k": 1}`,
	`{"elements": {"a": 1e2}, "k": 1}`, `{"elements": {"a": 4294967295}, "k": 1}`,
	`{"elements": {"a": 4294967296}, "k": 1}`, `{"elements": {"a": -0}, "k": 1}`,
	`{"elements": {"a": 0}, "k": 1}`, `{"elements": {"a": 99999999999999999999}}`,
	`{"k": -0}`, `{"k": 1.5}`, `{"k": -7}`, `{"k": 9223372036854775807}`, `{"k": 9223372036854775808}`,
	`{"k": -9223372036854775808}`, `{"k": 1e0}`,
	`{"threshold": 1e400}`, `{"threshold": -1e-400}`, `{"threshold": 1E+2}`, `{"threshold": 5e-324}`,
	`{"threshold": -0.0}`, `{"threshold": 0.1e-1}`,
	`{"threshold": 01}`, `{"threshold": -}`, `{"threshold": 1.}`, `{"threshold": .5}`,
	`{"threshold": 1e}`, `{"threshold": 1e+}`, `{"threshold": +1}`,
	`{"threshold": "0.5"}`, `{"k": "1"}`, `{"k": true}`,
	// After the value: whitespace only. A stray closing delimiter is
	// trailing data too.
	`{"elements": {"a": 1}, "threshold": 0.5}}`, `{"elements": {"a": 1}, "threshold": 0.5}]`,
	`{} x`, `{}{}`, `null null`, `{},`,
	// Values of the wrong kind.
	`[]`, `"x"`, `1`, `-1`, `true`, `false`, `{"elements": [1]}`, `{"elements": "a"}`,
	`{"entity": 1}`, `{"entity": {}}`, `{"debug": "yes"}`, `{"debug": 1}`,
	`{"ops": {}}`, `{"ops": [1]}`, `{"ops": [[]]}`, `{"ops": "x"}`,
	`{"nope": 1}`, `{"nope": {"deep": [1, 2, {"x": null}]}}`, `{"": 1}`,
	// Syntax.
	`{"a"}`, `{"k": 1,}`, `{,}`, `{"k": 1 "topk": 2}`, `{"nope": [1,]}`, `{"k": tru}`,
	`{"k": nul}`, `{"k": nulll}`, `{"entity": "x"`, `{`, `{"`, `{"k"`, `{"k":`, "\xef\xbb\xbf{}",
	`{'k': 1}`, `{k: 1}`, "{\"k\":\x001}",
}

// FuzzRequestBody holds the wire decoder to encoding/json on every body
// type the daemons decode: both accept with the same value, or both
// reject.
func FuzzRequestBody(f *testing.F) {
	for _, s := range requestBodySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		decodeBoth(t, "query", body, (*decoder).queryRequest)
		decodeBoth(t, "knn", body, (*decoder).knnRequest)
		decodeBoth(t, "add", body, (*decoder).addRequest)
		decodeBoth(t, "remove", body, (*decoder).removeRequest)
		decodeBoth(t, "bulk", body, (*decoder).bulkRequest)
		decodeBoth(t, "snapshot", body, func(d *decoder, _ *struct{}) { d.emptyRequest() })
	})
}

// TestNestingLimit: json's depth limit, a syntax error past 10 000
// open containers, holds too (outside the fuzz seeds, whose mutations
// of a 20 KB body would keep the fuzzer minimizing).
func TestNestingLimit(t *testing.T) {
	for _, depth := range []int{maxDepth - 1, maxDepth, maxDepth + 1} {
		body := `{"nope": ` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`
		decodeBoth(t, "snapshot", []byte(body), func(d *decoder, _ *struct{}) { d.emptyRequest() })
		var d decoder
		err := d.decode([]byte(body), nil, (*decoder).emptyRequest)
		if tooDeep := depth+1 > maxDepth; tooDeep != (err != nil && strings.Contains(err.Error(), "max depth")) {
			t.Errorf("depth %d: %v", depth+1, err)
		}
	}
}

// TestStrayDelimiterIsTrailingData pins the one place the wire decoder
// parts from the json.Decoder it replaced, whose More() reports no more
// input before a '}' or ']'.
func TestStrayDelimiterIsTrailingData(t *testing.T) {
	for _, body := range []string{`{"k": 1}}`, `{"k": 1}]`, `{"k": 1} }`} {
		var req knnRequest
		var d decoder
		if err := d.decode([]byte(body), nil, func(d *decoder) { d.knnRequest(&req) }); err != errTrailing {
			t.Errorf("%s: %v, want %v", body, err, errTrailing)
		}
	}
}

// TestBodyCap: the size cap applies where json.Decoder met it — a value
// still open at the cap is 413, one complete before it is judged on its
// own — and a body the cap cuts is never decoded past it.
func TestBodyCap(t *testing.T) {
	serve := func(body string) (int, string) {
		var req removeRequest
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/remove", strings.NewReader(body))
		if readRequest(rec, r, func(d *decoder) { d.removeRequest(&req) }) {
			return http.StatusOK, req.Entity
		}
		return rec.Code, rec.Body.String()
	}
	long := strings.Repeat("x", maxBody)
	for _, c := range []struct {
		body string
		code int
	}{
		{`{"entity": "` + long + `"}`, http.StatusRequestEntityTooLarge},
		{`{"entity": 1` + strings.Repeat("0", maxBody), http.StatusRequestEntityTooLarge},
		{strings.Repeat(" ", maxBody+1), http.StatusRequestEntityTooLarge},
		{`{"entity": "e"}` + strings.Repeat(" ", maxBody), http.StatusOK},
		{`{"entity": "e"} x` + long, http.StatusBadRequest},
		{`{"entity": x` + long, http.StatusBadRequest},
		{`{"entity": "e"}` + strings.Repeat(" ", maxBody-len(`{"entity": "e"}`)), http.StatusOK},
	} {
		if code, out := serve(c.body); code != c.code {
			t.Errorf("%.40q (%d bytes): %d %.80s, want %d", c.body, len(c.body), code, out, c.code)
		}
	}
}

// answerNames are entity names and messages that exercise every branch
// of json's string escaping.
var answerNames = []string{
	"", "ip-1", `q"uote`, `back\slash`, "<a href>&amp;", "ctl\x00\x01\x1f\x7f", "\b\f\n\r\t",
	"sep\u2028mid\u2029", "bad\xff\xfeutf8", "\xed\xa0\x80", "ok\xe2\x82", "é中😀", "\ufffd", "/slash",
}

// answerScores sit at json's float formatting boundaries.
var answerScores = []float64{
	0, 1, 1e-6, 9.99e-7, 5e-324, 0.1 + 0.2, 1e21, 1e20, 999999999999999900000, 1.5e-7, 1.0 / 3,
	-0.5, math.Copysign(0, -1), math.MaxFloat64, 123456789, 1e-7, 0.000001234, 2.5e-10,
}

// sent returns what an answer built by build sends.
func sent(build func(a *answer)) string {
	rec := httptest.NewRecorder()
	a := newAnswer()
	build(a)
	a.send(rec, http.StatusOK)
	return rec.Body.String()
}

// encoded returns what json.NewEncoder writes for v; "" when it refuses
// (writeJSON then wrote no body).
func encoded(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return ""
	}
	return buf.String()
}

// TestAnswersMatchEncodingJSON holds the append encoder to what
// json.NewEncoder wrote for the same answers: the /query and /knn lists
// (empty ones included), the debug block, the error payload, and the
// empty body of an answer json refuses.
func TestAnswersMatchEncodingJSON(t *testing.T) {
	// queryDebug is the struct the debug block used to be encoded from.
	type queryDebug struct {
		RequestID string `json:"request_id"`
		DecodeNs  int64  `json:"decode_ns"`
		QueryNs   int64  `json:"query_ns"`
		TotalNs   int64  `json:"total_ns"`
	}
	var matches []vsmartjoin.Match
	var neighbors []vsmartjoin.Neighbor
	lists := []vsmartjoin.QueryResult{{}}
	for i, name := range answerNames {
		for j, score := range answerScores {
			if (i+j)%3 != 0 && j != i%len(answerScores) {
				continue
			}
			matches = append(matches, vsmartjoin.Match{Entity: name, Similarity: score})
			neighbors = append(neighbors, vsmartjoin.Neighbor{Entity: name, Distance: score})
			lists = append(lists, vsmartjoin.QueryResult{Matches: matches[len(matches)-1:], Neighbors: neighbors[len(neighbors)-1:]})
		}
	}
	lists = append(lists, vsmartjoin.QueryResult{Matches: matches, Neighbors: neighbors})
	for _, res := range lists {
		for _, knn := range []bool{false, true} {
			want := map[string]any{"matches": res.Matches}
			if res.Matches == nil {
				want["matches"] = []vsmartjoin.Match{}
			}
			if knn {
				want = map[string]any{"neighbors": res.Neighbors}
				if res.Neighbors == nil {
					want["neighbors"] = []vsmartjoin.Neighbor{}
				}
			}
			if got, want := sent(func(a *answer) { a.results(res, knn) }), encoded(t, want); got != want {
				t.Fatalf("knn=%v %v:\n got %q\nwant %q", knn, res, got, want)
			}
		}
	}
	for _, rid := range answerNames {
		times := []time.Duration{0, 1, 123456789, 1 << 62}
		for _, d := range times {
			res := vsmartjoin.QueryResult{Matches: matches[:2]}
			got := sent(func(a *answer) { a.debug(rid, d, 2*d, 3*d); a.results(res, false) })
			want := encoded(t, map[string]any{"matches": res.Matches, "debug": queryDebug{rid, int64(d), int64(2 * d), int64(3 * d)}})
			if got != want {
				t.Fatalf("debug %q:\n got %q\nwant %q", rid, got, want)
			}
		}
		rec := httptest.NewRecorder()
		writeError(rec, http.StatusBadRequest, "bad request body: %s", rid)
		if got, want := rec.Body.String(), encoded(t, map[string]string{"error": "bad request body: " + rid}); got != want {
			t.Fatalf("error %q:\n got %q\nwant %q", rid, got, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		res := vsmartjoin.QueryResult{Matches: []vsmartjoin.Match{{Entity: "a", Similarity: 1}, {Entity: "b", Similarity: bad}}}
		if got, want := sent(func(a *answer) { a.results(res, false) }), encoded(t, map[string]any{"matches": res.Matches}); got != want || got != "" {
			t.Fatalf("score %v: got %q, want %q (no body)", bad, got, want)
		}
	}
}

// FuzzAnswerString holds appendString and appendFloat to json's
// encoding of any string and float64.
func FuzzAnswerString(f *testing.F) {
	for i, s := range answerNames {
		f.Add(s, answerScores[i%len(answerScores)])
	}
	f.Fuzz(func(t *testing.T, s string, v float64) {
		res := vsmartjoin.QueryResult{Matches: []cluster.Match{{Entity: s, Similarity: v}}}
		if got, want := sent(func(a *answer) { a.results(res, false) }), encoded(t, map[string]any{"matches": res.Matches}); got != want {
			t.Fatalf("%q %v:\n got %q\nwant %q", s, v, got, want)
		}
	})
}

// TestRequestID: a stamp is the process epoch and a sequence number,
// base 36, joined by "-", and costs its string alone.
func TestRequestID(t *testing.T) {
	a, b := nextRequestID(), nextRequestID()
	epochA, seqA, _ := strings.Cut(a, "-")
	epochB, seqB, _ := strings.Cut(b, "-")
	na, errA := strconv.ParseUint(seqA, 36, 64)
	nb, errB := strconv.ParseUint(seqB, 36, 64)
	if _, err := strconv.ParseInt(epochA, 36, 64); err != nil || epochA != epochB || errA != nil || errB != nil || nb != na+1 {
		t.Fatalf("request IDs %q then %q", a, b)
	}
	if raceDetector {
		return
	}
	if allocs := testing.AllocsPerRun(100, func() { nextRequestID() }); allocs != 1 {
		t.Fatalf("a request ID costs %v allocations, want 1", allocs)
	}
}
