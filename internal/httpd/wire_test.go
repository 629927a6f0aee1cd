package httpd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf16"
	"unicode/utf8"

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

// wireDecode decodes body as a T with the wire decoder and returns its
// error. Whatever the wire decoder accepts, encoding/json must accept
// with the same value; the wire decoder may refuse more (a case-variant
// or repeated key).
func wireDecode[T any](t *testing.T, kind string, body []byte, value func(d *decoder, v *T)) error {
	t.Helper()
	var got, want T
	var d decoder
	if err := d.decode(body, nil, func(d *decoder) { value(d, &got) }); err != nil {
		return err
	}
	switch werr := jsonDecode(body, &want); {
	case werr != nil:
		t.Fatalf("%s %q: wire decoder accepts, encoding/json says %v", kind, body, werr)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%s %q: wire decoder gives %#v, encoding/json %#v", kind, body, got, want)
	}
	return nil
}

// requestBodySeeds covers what the daemons' bodies exercise of json's
// rules: every body type, escaped keys, the case-variant and repeated
// keys the wire decoder refuses, nulls, escapes and surrogates, invalid
// UTF-8, the number grammar and the uint32, int and float64 ranges,
// trailing bytes and syntax errors.
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
	// Field names match exactly: json's case-insensitive matches (with
	// Unicode folding: K is the Kelvin sign, ſ a long s) are refused.
	`{"ELEMENTS": {"a": 1}, "Threshold": 0.5}`,
	`{"Entity": "e", "eLeMeNtS": {"a": 1}, "K": 1}`,
	`{"\u212a": 2, "elementſ": {"a": 1}}`,
	`{"TOPK": 1, "elements": {"a": 1}, "DEBUG": false}`,
	`{"OPS": [{"OP": "remove", "ENTITY": "x"}]}`,
	`{"\u0065ntity": "e", "element\u0073": {"\u0061": 1}}`,
	`{"entityx": "e"}`, `{"entit": "e"}`,
	// Repeated keys, which json merges or overwrites, are refused.
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
// type the daemons decode, in one direction: a body it accepts,
// encoding/json accepts with the same value.
func FuzzRequestBody(f *testing.F) {
	for _, s := range requestBodySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		wireDecode(t, "query", body, (*decoder).queryRequest)
		wireDecode(t, "knn", body, (*decoder).knnRequest)
		wireDecode(t, "add", body, (*decoder).addRequest)
		wireDecode(t, "remove", body, (*decoder).removeRequest)
		wireDecode(t, "bulk", body, (*decoder).bulkRequest)
		wireDecode(t, "snapshot", body, func(d *decoder, _ *struct{}) { d.emptyRequest() })
	})
}

// canonicalStrings are the texts a canonical body's strings are drawn
// from: plain ones, and the answer names, which hold every character
// json escapes, HTML-escapes or replaces as invalid UTF-8.
var canonicalStrings = append([]string{"a", "ip-1", "cookie-42", "entity", "elements"}, answerNames...)

// bodyGen writes a random canonical request body: what json.Marshal
// writes for a request value with its absent fields omitted (or, at
// random, written as json.Marshal writes their zero value), its
// members in random order and random whitespace around every token,
// and each string either as json.Marshal quotes it or with a random
// mix of raw bytes (invalid UTF-8 kept), short escapes and \u escapes.
type bodyGen struct {
	rng *rand.Rand
	b   []byte
}

// member is one object member: its key and a writer of its value, or
// a nil writer for an absent field.
type member struct {
	key   string
	value func()
}

func (g *bodyGen) space() {
	for n := g.rng.IntN(3); n > 0; n-- {
		g.b = append(g.b, " \t\n\r"[g.rng.IntN(4)])
	}
}

func (g *bodyGen) marshal(v any) {
	out, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	g.b = append(g.b, out...)
}

func (g *bodyGen) str(s string) {
	if g.rng.IntN(2) == 0 {
		g.marshal(s)
		return
	}
	g.b = append(g.b, '"')
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		switch short := strings.IndexByte("\"\\/\b\f\n\r\t", s[i]); {
		case r == utf8.RuneError && size == 1:
			g.b = append(g.b, s[i])
		case short >= 0 && (r < ' ' || r == '"' || r == '\\' || g.rng.IntN(2) == 0):
			g.b = append(g.b, '\\', "\"\\/bfnrt"[short])
		case r < ' ' || r == '"' || r == '\\' || g.rng.IntN(3) == 0:
			if r1, r2 := utf16.EncodeRune(r); r1 != utf8.RuneError {
				g.b = fmt.Appendf(g.b, `\u%04x\u%04X`, r1, r2)
			} else {
				g.b = fmt.Appendf(g.b, `\u%04x`, r)
			}
		default:
			g.b = append(g.b, s[i:i+size]...)
		}
		i += size
	}
	g.b = append(g.b, '"')
}

func (g *bodyGen) object(members []member) {
	g.rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
	g.b = append(g.b, '{')
	sep := false
	for _, m := range members {
		if m.value == nil {
			continue
		}
		if sep {
			g.b = append(g.b, ',')
		}
		sep = true
		g.space()
		g.str(m.key)
		g.space()
		g.b = append(g.b, ':')
		g.space()
		m.value()
		g.space()
	}
	g.b = append(g.b, '}')
}

// field returns a member for a field holding v: absent when zero (its
// value omitted, or at random json.Marshal's encoding of the zero),
// else written by write.
func (g *bodyGen) field(key string, zero bool, v any, write func()) member {
	switch {
	case !zero:
		return member{key, write}
	case g.rng.IntN(2) == 0:
		return member{key, nil}
	}
	return member{key, func() { g.marshal(v) }}
}

func (g *bodyGen) text(key string) member {
	s := ""
	if g.rng.IntN(3) > 0 {
		s = canonicalStrings[g.rng.IntN(len(canonicalStrings))]
	}
	return g.field(key, s == "", s, func() { g.str(s) })
}

// scalar returns a member for a number or bool field holding v.
func (g *bodyGen) scalar(key string, v any, zero bool) member {
	return g.field(key, zero, v, func() { g.marshal(v) })
}

func (g *bodyGen) counts(key string) member {
	if g.rng.IntN(4) == 0 {
		return g.field(key, true, map[string]uint32(nil), nil)
	}
	var members []member
	for n := g.rng.IntN(5); n > 0; n-- {
		name := canonicalStrings[g.rng.IntN(len(canonicalStrings))]
		count := []uint32{0, 1, 7, math.MaxUint32, g.rng.Uint32()}[g.rng.IntN(5)]
		members = append(members, member{name, func() { g.marshal(count) }})
	}
	return member{key, func() { g.object(members) }}
}

func (g *bodyGen) integer(key string) member {
	n := []int{0, 1, 3, -2, math.MaxInt, math.MinInt, int(g.rng.Int32())}[g.rng.IntN(7)]
	return g.scalar(key, n, n == 0)
}

// body writes one request of the given kind: query, knn, add, remove
// or bulk.
func (g *bodyGen) body(kind int) []byte {
	g.b = g.b[:0]
	g.space()
	switch kind {
	case 0:
		threshold := []float64{0, 0.5, 1, 1e-7, 1e21, g.rng.Float64()}[g.rng.IntN(6)]
		present, debug := g.rng.IntN(2) == 0, g.rng.IntN(2) == 0
		g.object([]member{g.text("entity"), g.counts("elements"), g.integer("topk"),
			g.field("threshold", !present, (*float64)(nil), func() { g.marshal(threshold) }),
			g.scalar("debug", debug, !debug)})
	case 1:
		g.object([]member{g.text("entity"), g.counts("elements"), g.integer("k")})
	case 2:
		g.object([]member{g.text("entity"), g.counts("elements")})
	case 3:
		g.object([]member{g.text("entity")})
	default:
		n := g.rng.IntN(5) - 1 // -1: no ops
		g.object([]member{g.field("ops", n < 0, []cluster.BulkOp(nil), func() {
			g.b = append(g.b, '[')
			for i := 0; i < n; i++ {
				if i > 0 {
					g.b = append(g.b, ',')
				}
				g.space()
				op := []string{cluster.OpAdd, cluster.OpRemove, "", "other"}[g.rng.IntN(4)]
				g.object([]member{g.field("op", op == "", op, func() { g.str(op) }), g.text("entity"), g.counts("elements")})
				g.space()
			}
			g.b = append(g.b, ']')
		})})
	}
	g.space()
	return g.b
}

// FuzzCanonicalBody holds the wire decoder to json.Unmarshal on the
// bodies clients send: each random canonical body of the five request
// types must decode, and exactly as encoding/json decodes it.
func FuzzCanonicalBody(f *testing.F) {
	for seed := range uint64(16) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		g := bodyGen{rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))}
		for round := 0; round < 20; round++ {
			var err error
			switch kind := round % 5; kind {
			case 0:
				err = wireDecode(t, "query", g.body(kind), (*decoder).queryRequest)
			case 1:
				err = wireDecode(t, "knn", g.body(kind), (*decoder).knnRequest)
			case 2:
				err = wireDecode(t, "add", g.body(kind), (*decoder).addRequest)
			case 3:
				err = wireDecode(t, "remove", g.body(kind), (*decoder).removeRequest)
			default:
				err = wireDecode(t, "bulk", g.body(kind), (*decoder).bulkRequest)
			}
			if err != nil {
				t.Fatalf("canonical body %q refused: %v", g.b, err)
			}
		}
	})
}

// TestRejectedBodies: the bodies the wire decoder refuses where
// encoding/json would accept or fail later — a case-variant key, a
// repeated key, an unknown key (refused there, its value unread) and a
// value of the wrong kind (400 on the spot, even when the body would
// run past the cap).
func TestRejectedBodies(t *testing.T) {
	deep := strings.Repeat("[", 10001) + strings.Repeat("]", 10001)
	for _, c := range []struct {
		path, body, want string
	}{
		{"/remove", `{"Entity": "e"}`, `unknown field "Entity"`},
		{"/knn", `{"K": 1}`, `unknown field "K"`},
		{"/knn", `{"elements": {"a": 1}, "elements": {"b": 1}, "k": 1}`, `repeated field "elements"`},
		{"/query", `{"topk": 3, "topk": null, "elements": {"a": 1}}`, `repeated field "topk"`},
		{"/bulk", `{"ops": [], "ops": []}`, `repeated field "ops"`},
		{"/bulk", `{"ops": [{"op": "add", "op": "remove", "entity": "e"}]}`, `repeated field "op"`},
		{"/snapshot", `{"nope": ` + deep + `}`, `unknown field "nope"`},
		{"/snapshot", `{"nope": ` + deep[:10001], `unknown field "nope"`},
		{"/remove", `{"entity": 1` + strings.Repeat("0", maxBody), `entity: want a string`},
		{"/knn", `{"k": "` + strings.Repeat("x", maxBody), `k: want a number`},
	} {
		var value func(d *decoder)
		switch c.path {
		case "/remove":
			value = func(d *decoder) { d.removeRequest(new(removeRequest)) }
		case "/knn":
			value = func(d *decoder) { d.knnRequest(new(knnRequest)) }
		case "/query":
			value = func(d *decoder) { d.queryRequest(new(queryRequest)) }
		case "/bulk":
			value = func(d *decoder) { d.bulkRequest(new(cluster.BulkRequest)) }
		}
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body))
		var out struct{ Error string }
		if readRequest(rec, r, value) || rec.Code != http.StatusBadRequest ||
			json.Unmarshal(rec.Body.Bytes(), &out) != nil || !strings.Contains(out.Error, c.want) {
			t.Errorf("%s %.60q: %d %.100s, want 400 naming %s", c.path, c.body, rec.Code, rec.Body.String(), c.want)
		}
	}
}

// TestDeclaredLengthReservesLittle: a body's declared length reserves
// at most maxPooled before its bytes arrive, so a request that
// announces nearly 8 MiB and sends 20 bytes costs well under 1 MiB.
func TestDeclaredLengthReservesLittle(t *testing.T) {
	const body = `{"entity": "ip-123"}`
	var req removeRequest
	r := httptest.NewRequest(http.MethodPost, "/remove", strings.NewReader(body))
	r.ContentLength = maxBody - 1
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ok := readRequest(rec, r, func(d *decoder) { d.removeRequest(&req) })
	runtime.ReadMemStats(&after)
	if !ok || req.Entity != "ip-123" || len(body) != 20 {
		t.Fatalf("%q: %d %s", body, rec.Code, rec.Body.String())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a 20-byte body declared as %d bytes allocated %d bytes", r.ContentLength, grew)
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

// TestBodyCap: the size cap applies where the decode meets it — a value
// still open at the cap is 413, one complete before it is judged on its
// own, and one of the wrong kind is 400 before the cap is reached — and
// a body the cap cuts is never decoded past it.
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
		{`{"entity": 1` + strings.Repeat("0", maxBody), http.StatusBadRequest},
		{strings.Repeat(" ", maxBody+1), http.StatusRequestEntityTooLarge},
		{`{"entity": ` + strings.Repeat(" ", maxBody), http.StatusRequestEntityTooLarge},
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
