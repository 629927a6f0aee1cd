package httpd

// The JSON wire codec of the hot bodies: a strict decoder for every
// request body the daemons accept, and append-style encoders for the
// /query and /knn answers, the write replies and the error payload.
//
// The decoder reads the documented schema in one pass and stops at the
// first fault. A key must be one of its object's field names, exactly
// (after unescaping), and may appear once; an unknown or repeated key,
// or a value of the wrong kind, ends the decode there. null means
// absent. Every body json.Marshal of the request types can produce
// decodes as encoding/json decodes it, and whatever the decoder
// accepts, encoding/json accepts with the same value: a string holding
// an escape or an invalid UTF-8 byte is unquoted by encoding/json
// itself, numbers keep json's grammar and range checks, and any byte
// but whitespace after the value is rejected (json.Decoder.More lets a
// stray '}' or ']' through). Every answer is byte for byte what
// json.NewEncoder(w).Encode writes. Cold status endpoints keep
// writeJSON.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"vsmartjoin"
	"vsmartjoin/internal/cluster"
)

// maxBody caps a request body; past it the answer is 413.
const maxBody = 8 << 20

// maxPooled is the largest buffer put back in the pool, and the most a
// body's declared length reserves before its bytes arrive: a rare large
// /bulk body should not stay resident behind it.
const maxPooled = 64 << 10

// Decoders and answers are pooled for their buffers; every value a
// decoder hands out is copied out of its buffer.
var (
	decoders = sync.Pool{New: func() any { return new(decoder) }}
	answers  = sync.Pool{New: func() any { return new(answer) }}
)

// ---- requests ----

// decoder scans one JSON request body held in buf. The first fault — a
// syntax error, the end of the body inside the value, an unknown or
// repeated key, a value of the wrong kind — sets err and ends the scan.
type decoder struct {
	buf     []byte
	pos     int
	readErr error // what ended the body read early: the cap, or a broken connection
	err     error
}

// readRequest reads r's body under the size cap and decodes it with
// value, which fills the request it closes over. A nil value reads the
// optional /snapshot body: absent when it holds nothing but whitespace,
// else an object with no fields, or null. On failure it has answered —
// 413 when the body ran past the cap before the decode failed, else
// 400 — and returns false.
func readRequest(w http.ResponseWriter, r *http.Request, value func(d *decoder)) bool {
	d := decoders.Get().(*decoder)
	defer func() {
		if cap(d.buf) <= maxPooled {
			decoders.Put(d)
		}
	}()
	optional := value == nil
	if optional {
		value = (*decoder).emptyRequest
	}
	buf, readErr := readBody(w, r, d.buf[:0])
	var tooBig *http.MaxBytesError
	switch err := d.decode(buf, readErr, value); {
	case err == nil, err == io.EOF && optional:
		return true
	case err == errTrailing:
		writeError(w, http.StatusBadRequest, "%v", err)
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
	default:
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

// errTrailing rejects a well-formed value followed by more input: a
// malformed request, not something to silently ignore.
var errTrailing = errors.New("trailing data after request body")

// decode scans buf, the body read up to readErr (nil: all of it), as
// one JSON value decoded by value, then nothing but whitespace.
func (d *decoder) decode(buf []byte, readErr error, value func(d *decoder)) error {
	*d = decoder{buf: buf, readErr: readErr}
	if d.skipSpace(); d.pos == len(d.buf) {
		if readErr != nil {
			return readErr
		}
		return io.EOF
	}
	if value(d); d.err != nil {
		return d.err
	}
	if d.skipSpace(); d.pos < len(d.buf) {
		return errTrailing
	}
	return nil
}

// readBody appends r's body to buf, stopping at the cap. The error is
// the read's, nil at a clean end. A declared length reserves at most
// maxPooled up front; reads grow the buffer past that, so memory
// follows the bytes that arrive, not the bytes a client announces.
func readBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxBody)
	if n := min(r.ContentLength, maxPooled-1); n > 0 && int(n) >= cap(buf) {
		buf = make([]byte, 0, n+1) // room for the read that sees the end
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func (d *decoder) skipSpace() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, 0 at the end of the
// body (which the caller's scan then reports).
func (d *decoder) peek() byte {
	if d.skipSpace(); d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

// syntax records a syntax error at the current byte, or the end of the
// value's input there.
func (d *decoder) syntax(context string) {
	switch {
	case d.pos < len(d.buf):
		d.err = fmt.Errorf("invalid character %q %s (offset %d)", d.buf[d.pos], context, d.pos)
	case d.readErr != nil:
		d.err = d.readErr
	default:
		d.err = io.ErrUnexpectedEOF
	}
}

// wrongKind records a field's value that is not of the field's kind. A
// value cut off by the end of the body is the body's fault instead.
func (d *decoder) wrongKind(field, want string) {
	if d.pos == len(d.buf) {
		d.syntax("")
		return
	}
	d.err = fmt.Errorf("%s: want %s (offset %d)", field, want, d.pos)
}

// literal consumes one of true, false, null.
func (d *decoder) literal(word string) {
	for i := 0; i < len(word); i++ {
		if d.pos >= len(d.buf) || d.buf[d.pos] != word[i] {
			d.syntax("in literal " + word)
			return
		}
		d.pos++
	}
}

// number consumes the JSON number a field holds and returns its text;
// nil once the decode has failed.
func (d *decoder) number(field string) []byte {
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		d.wrongKind(field, "a number")
		return nil
	}
	start := d.pos
	if d.pos < len(d.buf) && d.buf[d.pos] == '-' {
		d.pos++
	}
	switch {
	case d.pos < len(d.buf) && d.buf[d.pos] == '0':
		d.pos++
	case d.pos < len(d.buf) && '1' <= d.buf[d.pos] && d.buf[d.pos] <= '9':
		d.digits()
	default:
		d.syntax("in numeric literal")
		return nil
	}
	if d.pos < len(d.buf) && d.buf[d.pos] == '.' {
		d.pos++
		if !d.digits() {
			d.syntax("after decimal point in numeric literal")
			return nil
		}
	}
	if d.pos < len(d.buf) && (d.buf[d.pos] == 'e' || d.buf[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.buf) && (d.buf[d.pos] == '+' || d.buf[d.pos] == '-') {
			d.pos++
		}
		if !d.digits() {
			d.syntax("in exponent of numeric literal")
			return nil
		}
	}
	if d.pos == len(d.buf) && d.readErr != nil {
		d.err = d.readErr // the number may go on past what was read
		return nil
	}
	return d.buf[start:d.pos]
}

func (d *decoder) digits() bool {
	start := d.pos
	for d.pos < len(d.buf) && '0' <= d.buf[d.pos] && d.buf[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

func (d *decoder) badNumber(field string, lit []byte, want string) {
	d.err = fmt.Errorf("%s: number %s is not %s", field, lit, want)
}

// str consumes the JSON string at d.pos and returns its value. A plain,
// valid UTF-8 literal is returned as a slice of the body; one holding
// an escape or an invalid UTF-8 byte is decoded by json.Unmarshal, so
// escapes, surrogates and U+FFFD replacement are encoding/json's own.
func (d *decoder) str() []byte {
	buf, start, plain := d.buf, d.pos, true
	for i := start + 1; i < len(buf); {
		switch c := buf[i]; {
		case c == '"':
			d.pos = i + 1
			if plain {
				return buf[start+1 : i]
			}
			var s string
			if err := json.Unmarshal(buf[start:d.pos], &s); err != nil {
				d.err = err
				return nil
			}
			return []byte(s)
		case c == '\\':
			plain = false
			i += 2 // the escaped byte cannot end the literal
		case c < ' ':
			d.pos = i
			d.syntax("in string literal")
			return nil
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(buf[i:])
			plain = plain && !(r == utf8.RuneError && size == 1)
			i += size
		}
	}
	d.pos = len(buf)
	d.syntax("")
	return nil
}

// members walks the object at d.pos: member is called with each key and
// must consume the value.
func (d *decoder) members(member func(key []byte)) {
	d.pos++
	if d.peek() == '}' {
		d.pos++
		return
	}
	for d.err == nil {
		if d.peek() != '"' {
			d.syntax("looking for beginning of object key string")
			return
		}
		key := d.str()
		if d.err != nil {
			return
		}
		if d.peek() != ':' {
			d.syntax("after object key")
			return
		}
		d.pos++
		if member(key); d.err != nil {
			return
		}
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return
		default:
			d.syntax("after object key:value pair")
		}
	}
}

// elements walks the array at d.pos: each is called once per element
// and must consume it.
func (d *decoder) elements(each func()) {
	d.pos++
	if d.peek() == ']' {
		d.pos++
		return
	}
	for d.err == nil {
		if each(); d.err != nil {
			return
		}
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return
		default:
			d.syntax("after array element")
		}
	}
}

// fields decodes an object into a zero struct whose JSON field names
// are names: member is called with the index of each field present and
// must consume its value. A key must be one of names, exactly, and may
// appear once; anything else ends the decode. null — the object's or
// a field's — means absent: with no key repeated, that is all json's
// null rules come to on a zero struct.
func (d *decoder) fields(what string, names []string, member func(i int)) {
	switch d.peek() {
	case 'n':
		d.literal("null")
		return
	case '{':
	default:
		d.wrongKind(what, "an object")
		return
	}
	var seen uint64 // one bit per name
	d.members(func(key []byte) {
		i := 0
		for i < len(names) && names[i] != string(key) {
			i++
		}
		switch {
		case i == len(names):
			d.err = fmt.Errorf("json: unknown field %q", key) // json's words
		case seen&(1<<i) != 0:
			d.err = fmt.Errorf("repeated field %q", key)
		case d.peek() == 'n':
			seen |= 1 << i
			d.literal("null")
		default:
			seen |= 1 << i
			member(i)
		}
	})
}

// text decodes a string field.
func (d *decoder) text(dst *string, field string) {
	if d.peek() != '"' {
		d.wrongKind(field, "a string")
	} else if s := d.str(); d.err == nil {
		*dst = string(s)
	}
}

// integer decodes an int field.
func (d *decoder) integer(dst *int, field string) {
	if lit := d.number(field); lit != nil {
		n, err := strconv.ParseInt(string(lit), 10, 0)
		if err != nil {
			d.badNumber(field, lit, "an int")
			return
		}
		*dst = int(n)
	}
}

// float decodes a *float64 field into a new value.
func (d *decoder) float(dst **float64, field string) {
	if lit := d.number(field); lit != nil {
		f, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			d.badNumber(field, lit, "a float64")
			return
		}
		*dst = &f
	}
}

// flag decodes a bool field.
func (d *decoder) flag(dst *bool, field string) {
	switch d.peek() {
	case 't':
		d.literal("true")
		*dst = true
	case 'f':
		d.literal("false")
	default:
		d.wrongKind(field, "a boolean")
	}
}

// counts decodes an element multiset into a new map. As in json's, an
// element named twice keeps its last count and a null count is 0. The
// map is the request's own, never pooled: a hedged Cluster.Query may
// still read it after returning.
func (d *decoder) counts(dst *map[string]uint32, field string) {
	if d.peek() != '{' {
		d.wrongKind(field, "an object")
		return
	}
	m := make(map[string]uint32)
	*dst = m
	d.members(func(key []byte) {
		var n uint32
		if d.peek() == 'n' {
			d.literal("null")
		} else if lit := d.number(field); lit != nil {
			v, err := strconv.ParseUint(string(lit), 10, 32)
			if err != nil {
				d.badNumber(field, lit, "a uint32")
			}
			n = uint32(v)
		}
		m[string(key)] = n
	})
}

var (
	queryFields  = []string{"entity", "elements", "threshold", "topk", "debug"}
	knnFields    = []string{"entity", "elements", "k"}
	addFields    = []string{"entity", "elements"}
	removeFields = []string{"entity"}
	bulkFields   = []string{"ops"}
	opFields     = []string{"op", "entity", "elements"}
)

func (d *decoder) queryRequest(req *queryRequest) {
	d.fields("body", queryFields, func(i int) {
		switch i {
		case 0:
			d.text(&req.Entity, "entity")
		case 1:
			d.counts(&req.Elements, "elements")
		case 2:
			d.float(&req.Threshold, "threshold")
		case 3:
			d.integer(&req.TopK, "topk")
		default:
			d.flag(&req.Debug, "debug")
		}
	})
}

func (d *decoder) knnRequest(req *knnRequest) {
	d.fields("body", knnFields, func(i int) {
		switch i {
		case 0:
			d.text(&req.Entity, "entity")
		case 1:
			d.counts(&req.Elements, "elements")
		default:
			d.integer(&req.K, "k")
		}
	})
}

func (d *decoder) addRequest(req *addRequest) {
	d.fields("body", addFields, func(i int) {
		if i == 0 {
			d.text(&req.Entity, "entity")
		} else {
			d.counts(&req.Elements, "elements")
		}
	})
}

func (d *decoder) removeRequest(req *removeRequest) {
	d.fields("body", removeFields, func(int) { d.text(&req.Entity, "entity") })
}

// bulkRequest decodes a /bulk body. An empty ops array is an empty,
// non-nil slice and a null op a zero one, as in json's.
func (d *decoder) bulkRequest(req *cluster.BulkRequest) {
	d.fields("body", bulkFields, func(int) {
		if d.peek() != '[' {
			d.wrongKind("ops", "an array")
			return
		}
		req.Ops = []cluster.BulkOp{}
		d.elements(func() {
			req.Ops = append(req.Ops, cluster.BulkOp{})
			d.bulkOp(&req.Ops[len(req.Ops)-1])
		})
	})
}

func (d *decoder) bulkOp(op *cluster.BulkOp) {
	d.fields("ops", opFields, func(i int) {
		switch i {
		case 0:
			d.text(&op.Op, "op")
		case 1:
			d.text(&op.Entity, "entity")
		default:
			d.counts(&op.Elements, "elements")
		}
	})
}

// emptyRequest decodes the /snapshot body: an object with no fields, or
// null.
func (d *decoder) emptyRequest() { d.fields("body", nil, nil) }

// ---- answers ----

// appendString appends s as encoding/json quotes it, HTML-escaping on:
// <, > and & as \u003c-style escapes, U+2028 and U+2029 escaped, every
// invalid UTF-8 byte as \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloat appends f as encoding/json formats a float64: the
// shortest decimal that round-trips, in 'f' form, or 'e' form (with a
// one-digit negative exponent unpadded) below 1e-6 or from 1e21 on.
// NaN and ±Inf, which json refuses to encode, report false.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// answer is one JSON object being appended, members in the order the
// caller gives them — encoding/json's sorted key order — and sent in
// one Write.
type answer struct{ b []byte }

func newAnswer() *answer {
	a := answers.Get().(*answer)
	a.b = a.b[:0]
	return a
}

func (a *answer) key(k string) {
	if len(a.b) == 0 {
		a.b = append(a.b, '{')
	} else {
		a.b = append(a.b, ',')
	}
	a.b = append(a.b, '"')
	a.b = append(a.b, k...)
	a.b = append(a.b, '"', ':')
}

func (a *answer) int(k string, v int64) {
	a.key(k)
	a.b = strconv.AppendInt(a.b, v, 10)
}

func (a *answer) bool(k string, v bool) {
	a.key(k)
	a.b = strconv.AppendBool(a.b, v)
}

func (a *answer) string(k, v string) {
	a.key(k)
	a.b = appendString(a.b, v)
}

// send answers status with the object, closed and ended with
// json.Encoder's newline, as writeJSON does: headers, status, one
// Write. An answer cleared because json could not encode it (a NaN)
// writes the status alone, as writeJSON did. a goes back to the pool.
func (a *answer) send(w http.ResponseWriter, status int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if len(a.b) > 0 {
		a.b = append(a.b, '}', '\n')
		w.Write(a.b)
	}
	if cap(a.b) <= maxPooled {
		answers.Put(a)
	}
}

// debug appends a Debug query's trace block, keyed "debug" — first in
// json's key order: the request ID (also on the response header, and
// propagated to every node sub-request in router mode) and per-stage
// wall times.
func (a *answer) debug(rid string, decode, query, total time.Duration) {
	a.key("debug")
	a.b = append(a.b, `{"request_id":`...)
	a.b = appendString(a.b, rid)
	a.b = append(a.b, `,"decode_ns":`...)
	a.b = strconv.AppendInt(a.b, decode.Nanoseconds(), 10)
	a.b = append(a.b, `,"query_ns":`...)
	a.b = strconv.AppendInt(a.b, query.Nanoseconds(), 10)
	a.b = append(a.b, `,"total_ns":`...)
	a.b = strconv.AppendInt(a.b, total.Nanoseconds(), 10)
	a.b = append(a.b, '}')
}

// results appends the answer's list — "neighbors" with knn, else
// "matches" — always an array on the wire, never null. An answer json
// could not encode (a NaN score) is cleared, as send expects.
func (a *answer) results(res vsmartjoin.QueryResult, knn bool) {
	ok := true
	if knn {
		a.key("neighbors")
		a.b = append(a.b, '[')
		for i, n := range res.Neighbors {
			ok = ok && a.result(i, n.Entity, "distance", n.Distance)
		}
	} else {
		a.key("matches")
		a.b = append(a.b, '[')
		for i, m := range res.Matches {
			ok = ok && a.result(i, m.Entity, "similarity", m.Similarity)
		}
	}
	a.b = append(a.b, ']')
	if !ok {
		a.b = a.b[:0]
	}
}

// result appends the i-th list entry, {"entity":…,"<score>":…}; false
// if the score cannot be encoded.
func (a *answer) result(i int, entity, score string, v float64) bool {
	if i > 0 {
		a.b = append(a.b, ',')
	}
	a.b = append(a.b, `{"entity":`...)
	a.b = appendString(a.b, entity)
	a.b = append(a.b, ',', '"')
	a.b = append(a.b, score...)
	a.b = append(a.b, '"', ':')
	var ok bool
	a.b, ok = appendFloat(a.b, v)
	a.b = append(a.b, '}')
	return ok
}
