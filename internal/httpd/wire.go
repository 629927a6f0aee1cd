package httpd

// The JSON wire codec of the hot bodies: a strict scanner for every
// request body the daemons accept, and append-style encoders for the
// /query and /knn answers, the write replies and the error payload.
// Both keep encoding/json's observable behaviour: the decoder accepts
// and rejects what json.Decoder (DisallowUnknownFields) does and
// decodes the same values — with one deliberate difference: any byte
// but whitespace after the value is rejected (json.Decoder.More lets a
// stray '}' or ']' through) — and every answer is byte for byte what
// json.NewEncoder(w).Encode writes. Cold status endpoints keep
// writeJSON.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"vsmartjoin"
	"vsmartjoin/internal/cluster"
)

// maxBody caps a request body; past it the answer is 413.
const maxBody = 8 << 20

// maxPooled is the largest buffer put back in the pool: a rare large
// /bulk body should not stay resident behind it.
const maxPooled = 64 << 10

// maxDepth is encoding/json's nesting limit, kept so the same bodies
// are syntax errors.
const maxDepth = 10000

// Decoders and answers are pooled for their buffers; every value a
// decoder hands out is copied out of its buffer.
var (
	decoders = sync.Pool{New: func() any { return new(decoder) }}
	answers  = sync.Pool{New: func() any { return new(answer) }}
)

// ---- requests ----

// decoder scans one JSON request body held in buf. A syntax error (or
// the end of the body inside the value) stops it: err. A value of the
// wrong type or an unknown field is recorded in typeErr while the scan
// goes on, as json's decoder checks the whole value first — so err, if
// any, is the one reported.
type decoder struct {
	buf     []byte
	pos     int
	readErr error // what ended the body read early: the cap, or a broken connection
	err     error
	typeErr error
	depth   int
	scratch []byte // a decoded string that needed unescaping
}

// readRequest reads r's body under the size cap and decodes it with
// value, which fills the request it closes over. On failure it has
// answered — 413 when the value runs past the cap, else 400 — and
// returns false.
func readRequest(w http.ResponseWriter, r *http.Request, value func(d *decoder)) bool {
	d := decoders.Get().(*decoder)
	defer func() {
		if cap(d.buf) <= maxPooled && cap(d.scratch) <= maxPooled {
			decoders.Put(d)
		}
	}()
	buf, readErr := readBody(w, r, d.buf[:0])
	var tooBig *http.MaxBytesError
	switch err := d.decode(buf, readErr, value); {
	case err == nil:
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
	*d = decoder{buf: buf, readErr: readErr, scratch: d.scratch}
	if d.skipSpace(); d.pos == len(d.buf) {
		if readErr != nil {
			return readErr
		}
		return io.EOF
	}
	value(d)
	switch {
	case d.err != nil:
		return d.err
	case d.typeErr != nil:
		return d.typeErr
	}
	if d.skipSpace(); d.pos < len(d.buf) {
		return errTrailing
	}
	return nil
}

// readBody appends r's body to buf, stopping at the cap. The error is
// the read's, nil at a clean end.
func readBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxBody)
	if n := r.ContentLength; n > 0 && n < maxBody && int(n) >= cap(buf) {
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
	if d.err != nil {
		return
	}
	switch {
	case d.pos < len(d.buf):
		d.err = fmt.Errorf("invalid character %q %s (offset %d)", d.buf[d.pos], context, d.pos)
	case d.readErr != nil:
		d.err = d.readErr
	default:
		d.err = io.ErrUnexpectedEOF
	}
}

// mismatch records a value of the wrong JSON kind for a field and skips it.
func (d *decoder) mismatch(field, want string) {
	if d.typeErr == nil {
		d.typeErr = fmt.Errorf("%s: want %s (offset %d)", field, want, d.pos)
	}
	d.skip()
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

// number consumes a JSON number and returns its text.
func (d *decoder) number() []byte {
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

// str consumes a JSON string and returns its decoded bytes, as
// encoding/json unquotes them: escapes resolved, a lone or broken
// surrogate escape and every invalid UTF-8 byte made U+FFFD. They alias
// the body or the scratch buffer: copy before the next str.
func (d *decoder) str() []byte {
	d.pos++ // the opening quote
	start := d.pos
	for d.pos < len(d.buf) {
		switch c := d.buf[d.pos]; {
		case c == '"':
			d.pos++
			return d.buf[start : d.pos-1]
		case c == '\\':
			return d.unquote(start)
		case c < ' ':
			d.syntax("in string literal")
			return nil
		case c < utf8.RuneSelf:
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.buf[d.pos:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start)
			}
			d.pos += size
		}
	}
	d.syntax("")
	return nil
}

// unquote finishes a string from d.pos into the scratch buffer, the
// bytes from start on already known to be plain.
func (d *decoder) unquote(start int) []byte {
	b := append(d.scratch[:0], d.buf[start:d.pos]...)
	for d.pos < len(d.buf) {
		c := d.buf[d.pos]
		switch {
		case c == '"':
			d.pos++
			d.scratch = b
			return b
		case c < ' ':
			d.syntax("in string literal")
			return nil
		case c == '\\':
			if d.pos+1 >= len(d.buf) {
				d.pos++
				d.syntax("")
				return nil
			}
			d.pos++
			if i := strings.IndexByte(`"\/bfnrt`, d.buf[d.pos]); i >= 0 {
				b = append(b, "\"\\/\b\f\n\r\t"[i])
				d.pos++
				continue
			}
			if d.buf[d.pos] != 'u' {
				d.syntax("in string escape code")
				return nil
			}
			r := d.hex4()
			if r < 0 {
				return nil
			}
			if utf16.IsSurrogate(r) {
				r = d.lowSurrogate(r)
			}
			b = utf8.AppendRune(b, r)
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.buf[d.pos:])
			b = utf8.AppendRune(b, r)
			d.pos += size
		}
	}
	d.syntax("")
	return nil
}

// hex4 reads the four hex digits of a \u escape, d.pos on its 'u', and
// leaves d.pos past them; -1 on a syntax error.
func (d *decoder) hex4() rune {
	var r rune
	for i := 0; i < 4; i++ {
		d.pos++
		if d.pos >= len(d.buf) {
			d.syntax("")
			return -1
		}
		c := d.buf[d.pos]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			d.syntax("in \\u hexadecimal character escape")
			return -1
		}
		r = r<<4 | rune(c)
	}
	d.pos++
	return r
}

// lowSurrogate completes the surrogate escape r1: when a \u escape
// follows that pairs with it, it consumes that and returns the pair's
// rune; otherwise U+FFFD, leaving what follows to decode on its own.
func (d *decoder) lowSurrogate(r1 rune) rune {
	if d.pos+5 < len(d.buf) && d.buf[d.pos] == '\\' && d.buf[d.pos+1] == 'u' {
		save := d.pos
		d.pos++
		if r := utf16.DecodeRune(r1, d.hex4()); r != unicode.ReplacementChar {
			return r
		}
		d.pos, d.err = save, nil // a bad escape is reported when decoded on its own
	}
	return unicode.ReplacementChar
}

// skip consumes one JSON value of any kind, checking its syntax.
func (d *decoder) skip() {
	if d.err != nil {
		return
	}
	switch c := d.peek(); {
	case c == '{':
		d.members(func([]byte) { d.skip() })
	case c == '[':
		d.elements(d.skip)
	case c == '"':
		d.str()
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	case numeric(c):
		d.number()
	default:
		d.syntax("looking for beginning of value")
	}
}

// numeric reports whether c starts a JSON number.
func numeric(c byte) bool { return c == '-' || '0' <= c && c <= '9' }

// open enters a container at its opening byte.
func (d *decoder) open() bool {
	d.pos++
	if d.depth++; d.depth > maxDepth {
		d.err = errors.New("exceeded max depth")
		return false
	}
	return true
}

// members walks the object at d.pos: member is called with each decoded
// key (valid until the next string is read) and must consume the value.
func (d *decoder) members(member func(key []byte)) {
	if !d.open() {
		return
	}
	if d.peek() == '}' {
		d.pos++
		d.depth--
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
		member(key)
		if d.err != nil {
			return
		}
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			d.depth--
			return
		default:
			d.syntax("after object key:value pair")
		}
	}
}

// elements walks the array at d.pos: each is called once per element
// and must consume it.
func (d *decoder) elements(each func()) {
	if !d.open() {
		return
	}
	if d.peek() == ']' {
		d.pos++
		d.depth--
		return
	}
	for d.err == nil {
		each()
		if d.err != nil {
			return
		}
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			d.depth--
			return
		default:
			d.syntax("after array element")
		}
	}
}

// fields decodes an object into a struct whose JSON field names are
// names: member is called with the matched field's index and must
// consume its value. A key matches a name exactly, else under
// encoding/json's case folding; an unknown key is an error. A null
// leaves the struct as it is.
func (d *decoder) fields(what string, names []string, member func(i int)) {
	switch d.peek() {
	case 'n':
		d.literal("null")
	case '{':
		d.members(func(key []byte) {
			i := fieldIndex(key, names)
			if i < 0 {
				if d.typeErr == nil {
					d.typeErr = fmt.Errorf("json: unknown field %q", key) // json's words
				}
				d.skip()
				return
			}
			member(i)
		})
	default:
		d.mismatch(what, "an object")
	}
}

// fieldIndex returns the index of key in names, matched as
// encoding/json matches struct fields; -1 if none matches.
func fieldIndex(key []byte, names []string) int {
	for i, name := range names {
		if string(key) == name {
			return i
		}
	}
	var keyArr, nameArr [32]byte
	folded := foldName(keyArr[:0], key)
	for i, name := range names {
		if string(folded) == string(foldName(nameArr[:0], []byte(name))) {
			return i
		}
	}
	return -1
}

// foldName appends in's case-folded form: encoding/json's, so that two
// names fold equal exactly when json would match them.
func foldName(out, in []byte) []byte {
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		for { // the smallest rune of r's fold set
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		out = utf8.AppendRune(out, r)
		i += n
	}
	return out
}

// text decodes a string field; null leaves it as it is.
func (d *decoder) text(dst *string, field string) {
	switch d.peek() {
	case '"':
		if s := d.str(); d.err == nil {
			*dst = string(s)
		}
	case 'n':
		d.literal("null")
	default:
		d.mismatch(field, "a string")
	}
}

// integer decodes an int field; null leaves it as it is.
func (d *decoder) integer(dst *int, field string) {
	switch c := d.peek(); {
	case numeric(c):
		lit := d.number()
		if d.err != nil {
			return
		}
		n, err := strconv.ParseInt(string(lit), 10, 0)
		if err != nil {
			d.badNumber(field, lit, "an int")
			return
		}
		*dst = int(n)
	case c == 'n':
		d.literal("null")
	default:
		d.mismatch(field, "a number")
	}
}

// float decodes a *float64 field: a number into a new value, null to nil.
func (d *decoder) float(dst **float64, field string) {
	switch c := d.peek(); {
	case numeric(c):
		lit := d.number()
		if d.err != nil {
			return
		}
		f, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			d.badNumber(field, lit, "a float64")
			return
		}
		*dst = &f
	case c == 'n':
		d.literal("null")
		*dst = nil
	default:
		d.mismatch(field, "a number")
	}
}

// flag decodes a bool field; null leaves it as it is.
func (d *decoder) flag(dst *bool, field string) {
	switch d.peek() {
	case 't':
		d.literal("true")
		*dst = true
	case 'f':
		d.literal("false")
		*dst = false
	case 'n':
		d.literal("null")
	default:
		d.mismatch(field, "a boolean")
	}
}

// counts decodes an element multiset. An object's entries are added to
// the map (made if nil — a repeated key merges, as json reuses the
// map); null sets it to nil; a null count is 0. The map is the
// request's own, never pooled: a hedged Cluster.Query may still read
// it after returning.
func (d *decoder) counts(dst *map[string]uint32, field string) {
	switch d.peek() {
	case '{':
		if *dst == nil {
			*dst = make(map[string]uint32)
		}
		m := *dst
		d.members(func(key []byte) {
			name := string(key)
			var n uint32
			switch c := d.peek(); {
			case numeric(c):
				lit := d.number()
				if d.err != nil {
					return
				}
				v, err := strconv.ParseUint(string(lit), 10, 32)
				if err != nil {
					d.badNumber(field, lit, "a uint32")
				}
				n = uint32(v)
			case c == 'n':
				d.literal("null")
			default:
				d.mismatch(field, "a number")
			}
			m[name] = n
		})
	case 'n':
		d.literal("null")
		*dst = nil
	default:
		d.mismatch(field, "an object")
	}
}

func (d *decoder) badNumber(field string, lit []byte, want string) {
	if d.typeErr == nil {
		d.typeErr = fmt.Errorf("%s: number %s is not %s", field, lit, want)
	}
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

// bulkRequest decodes a /bulk body. The ops array decodes into the
// slice already there, as json's does for a repeated "ops" key: element
// i of a later array is decoded over element i of an earlier one, and
// an empty array leaves an empty, non-nil slice.
func (d *decoder) bulkRequest(req *cluster.BulkRequest) {
	d.fields("body", bulkFields, func(int) {
		switch d.peek() {
		case '[':
			ops, n := req.Ops, 0
			d.elements(func() {
				if n == len(ops) {
					if n == cap(ops) {
						ops = append(ops[:cap(ops)], cluster.BulkOp{})
					}
					ops = ops[:n+1]
				}
				d.bulkOp(&ops[n])
				n++
			})
			if n == 0 {
				ops = []cluster.BulkOp{}
			}
			req.Ops = ops[:n]
		case 'n':
			d.literal("null")
			req.Ops = nil
		default:
			d.mismatch("ops", "an array")
		}
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

// emptyRequest decodes the optional /snapshot body: an object with no
// fields, or null.
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
