package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxBody bounds a query request's body; a longer one answers 400.
const maxBody = 1 << 20

// readBody reads body into buf's storage, growing it as needed, and
// returns the bytes read. length is the request's ContentLength (-1 when
// unknown), which sizes a buffer too small for it. A body longer than
// maxBody is an *http.MaxBytesError.
func readBody(buf []byte, body io.Reader, length int64) ([]byte, error) {
	if want := int(min(max(length, 511), maxBody)) + 1; cap(buf) < want {
		buf = make([]byte, 0, want)
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):min(cap(buf), maxBody+1)])
		buf = buf[:len(buf)+n]
		switch {
		case len(buf) > maxBody:
			return buf, &http.MaxBytesError{Limit: maxBody}
		case err == io.EOF:
			return buf, nil
		case err != nil:
			return buf, err
		}
	}
}

// strategyNames are the strategy spellings blog.ParseStrategy knows. A
// body naming one shares its string instead of copying it.
var strategyNames = [...]string{"dfs", "bfs", "best", "best-first", "parallel"}

// errBodyEnd is a body that stops inside its JSON value.
var errBodyEnd = errors.New("unexpected end of JSON input")

// decodeRequest decodes data, the JSON body of a query request, into q.
// It is the one decoder of the query endpoints, and it accepts what
// encoding/json accepts when it decodes one value into a QueryRequest
// with DisallowUnknownFields, except that only white space may follow the
// value:
//   - a key names a field exactly or under Unicode case folding, and a
//     later duplicate overwrites an earlier one;
//   - null leaves a field as it is, and a null body leaves q;
//   - a string takes JSON's escapes, a surrogate pair joins, and a lone
//     surrogate or an invalid UTF-8 byte reads as U+FFFD;
//   - an integer field takes an integer literal in its range, so 1.5 and
//     1e3 are refused, and prune_slack takes any number in float64's.
//
// Only the goal becomes a fresh string: a known strategy name is shared,
// and any other is copied for its error message.
func decodeRequest(data []byte, q *QueryRequest) error {
	d := wireDecoder{data: data}
	d.space()
	switch {
	case d.peek() == '{':
		if err := d.object(q); err != nil {
			return err
		}
	case !d.keyword("null"):
		return d.syntax("where the request object should begin")
	}
	d.space()
	if d.pos < len(d.data) {
		return fmt.Errorf("invalid character %q after the request object", rune(d.data[d.pos]))
	}
	return nil
}

// wireDecoder reads one request body: data, at pos.
type wireDecoder struct {
	data []byte
	pos  int
}

// peek returns the byte at pos, or 0 at the end of the data.
func (d *wireDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// space skips JSON white space.
func (d *wireDecoder) space() {
	for ; d.pos < len(d.data); d.pos++ {
		if c := d.data[d.pos]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
	}
}

// keyword consumes lit if the data continues with it.
func (d *wireDecoder) keyword(lit string) bool {
	if len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return false
	}
	d.pos += len(lit)
	return true
}

// syntax is the error for the byte at pos, found where.
func (d *wireDecoder) syntax(where string) error {
	if d.pos >= len(d.data) {
		return errBodyEnd
	}
	return fmt.Errorf("invalid character %q %s", rune(d.data[d.pos]), where)
}

// object decodes the object at pos into q.
func (d *wireDecoder) object(q *QueryRequest) error {
	d.pos++
	d.space()
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntax("where a key should begin")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		d.space()
		if d.peek() != ':' {
			return d.syntax("after a key")
		}
		d.pos++
		d.space()
		if err := d.field(q, key); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.pos++
			d.space()
		case '}':
			d.pos++
			return nil
		default:
			return d.syntax("after a value")
		}
	}
}

// requestFields are QueryRequest's wire names as foldKey folds them, in
// the order of the fields.
var requestFields = [...]string{
	"GOAL", "STRATEGY", "MAX_SOLUTIONS", "MAX_EXPANSIONS", "MAX_DEPTH", "TIMEOUT_MS",
	"LEARN", "PRUNE", "PRUNE_SLACK", "AND_PARALLEL", "WORKERS", "TABLED", "TRACE",
}

// field decodes the value at pos into the field key names.
func (d *wireDecoder) field(q *QueryRequest, key []byte) (err error) {
	var buf [32]byte
	name, f := foldKey(buf[:0], key), -1
	for i, field := range requestFields {
		if string(name) == field {
			f = i
		}
	}
	switch {
	case f < 0:
		return fmt.Errorf("unknown field %q", key)
	case d.keyword("null"):
		return nil
	}
	var s []byte
	switch f {
	case 0:
		if s, err = d.text(key); err == nil {
			q.Goal = string(s)
		}
	case 1:
		if s, err = d.text(key); err == nil {
			q.Strategy = strategyName(s)
		}
	case 2:
		q.MaxSolutions, err = d.int(key)
	case 3:
		if s, err = d.number(key); err == nil {
			if q.MaxExpansions, err = strconv.ParseUint(string(s), 10, 64); err != nil {
				err = fmt.Errorf("%s: number %s is not an unsigned 64-bit integer", key, s)
			}
		}
	case 4:
		q.MaxDepth, err = d.int(key)
	case 5:
		q.TimeoutMs, err = d.int(key)
	case 6:
		q.Learn, err = d.bool(key)
	case 7:
		q.Prune, err = d.bool(key)
	case 8:
		if s, err = d.number(key); err == nil {
			if q.PruneSlack, err = strconv.ParseFloat(string(s), 64); err != nil {
				err = fmt.Errorf("%s: number %s is out of float64's range", key, s)
			}
		}
	case 9:
		q.AndParallel, err = d.bool(key)
	case 10:
		q.Workers, err = d.int(key)
	case 11:
		q.Tabled, err = d.bool(key)
	case 12:
		q.Trace, err = d.bool(key)
	}
	return err
}

// foldKey appends key, folded as encoding/json folds a key it matches
// against field names (ASCII letters upper-cased, other runes to the
// least rune of their Unicode fold orbit), to dst, which holds 32 bytes.
// A fold longer than any field name stops short of its key's end.
func foldKey(dst, key []byte) []byte {
	for i := 0; i < len(key); {
		if len(dst) > len("MAX_EXPANSIONS") {
			return dst
		}
		c := key[i]
		if c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		dst = utf8.AppendRune(dst, r)
		i += n
	}
	return dst
}

// strategyName returns s as a string, sharing a known strategy's.
func strategyName(s []byte) string {
	for _, name := range strategyNames {
		if string(s) == name {
			return name
		}
	}
	return string(s)
}

// typeError is the error for a value of the wrong type for key.
func (d *wireDecoder) typeError(key []byte, want string) error {
	if d.pos >= len(d.data) {
		return errBodyEnd
	}
	return fmt.Errorf("%s takes %s, not the value beginning %q", key, want, rune(d.data[d.pos]))
}

// bool decodes a JSON true or false.
func (d *wireDecoder) bool(key []byte) (bool, error) {
	switch {
	case d.keyword("true"):
		return true, nil
	case d.keyword("false"):
		return false, nil
	}
	return false, d.typeError(key, "true or false")
}

// int decodes an integer literal in int's range.
func (d *wireDecoder) int(key []byte) (int, error) {
	text, err := d.number(key)
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(string(text), 10, strconv.IntSize)
	if err != nil {
		return 0, fmt.Errorf("%s: number %s is not an integer in range", key, text)
	}
	return int(n), nil
}

// number reads a JSON number and returns its text.
func (d *wireDecoder) number(key []byte) ([]byte, error) {
	start := d.pos
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	case d.pos == start:
		return nil, d.typeError(key, "a number")
	default:
		return nil, d.syntax("in a number")
	}
	if d.peek() == '.' {
		d.pos++
		if !d.digits() {
			return nil, d.syntax("after a decimal point")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !d.digits() {
			return nil, d.syntax("in an exponent")
		}
	}
	return d.data[start:d.pos], nil
}

// digits skips a run of decimal digits and reports whether there was one.
func (d *wireDecoder) digits() bool {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// text decodes a JSON string, the value of key.
func (d *wireDecoder) text(key []byte) ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.typeError(key, "a string")
	}
	return d.str()
}

// str reads the JSON string at pos and returns its text: a slice of the
// data when it holds no escape and only valid UTF-8, else a decoded copy.
func (d *wireDecoder) str() ([]byte, error) {
	d.pos++
	start := d.pos
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			return d.data[start : d.pos-1], nil
		case c == '\\' || c < ' ':
			return d.unquote(start)
		case c < utf8.RuneSelf:
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start)
			}
			d.pos += size
		}
	}
	return nil, errBodyEnd
}

// unquote finishes the string whose text began at start and needs
// decoding from pos on, decoding it as encoding/json does.
func (d *wireDecoder) unquote(start int) ([]byte, error) {
	b := make([]byte, d.pos-start, d.pos-start+utf8.UTFMax*4)
	copy(b, d.data[start:d.pos])
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			return b, nil
		case c < ' ':
			return nil, d.syntax("in a string")
		case c == '\\':
			d.pos++
			switch e := d.peek(); e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r, ok := d.hex4(d.pos + 1)
				if !ok {
					return nil, errors.New("invalid \\u escape in a string")
				}
				d.pos += 4
				if utf16.IsSurrogate(r) {
					// A pair joins; a lone half reads as U+FFFD.
					pair := unicode.ReplacementChar
					if d.peekAt(d.pos+1) == '\\' && d.peekAt(d.pos+2) == 'u' {
						if r2, ok := d.hex4(d.pos + 3); ok {
							pair = utf16.DecodeRune(r, r2)
						}
					}
					if r = pair; r != unicode.ReplacementChar {
						d.pos += 6
					}
				}
				b = utf8.AppendRune(b, r)
			default:
				return nil, d.syntax("in a string escape")
			}
			d.pos++
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			b = utf8.AppendRune(b, r)
			d.pos += size
		}
	}
	return nil, errBodyEnd
}

// peekAt returns the byte at i, or 0 past the end of the data.
func (d *wireDecoder) peekAt(i int) byte {
	if i < len(d.data) {
		return d.data[i]
	}
	return 0
}

// hex4 reads the four hex digits at i as a rune.
func (d *wireDecoder) hex4(i int) (rune, bool) {
	if i+4 > len(d.data) {
		return 0, false
	}
	var r rune
	for _, c := range d.data[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}
