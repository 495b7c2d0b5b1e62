package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"blog"
)

// jsonDecode decodes body as the query endpoints did before they had
// their own decoder, through encoding/json with DisallowUnknownFields:
// the oracle decodeRequest is held to. trailing reports bytes other than
// white space after an accepted value, which encoding/json ignores and
// decodeRequest refuses.
func jsonDecode(body []byte) (q QueryRequest, trailing bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err = dec.Decode(&q); err != nil {
		return q, false, err
	}
	return q, len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0, nil
}

// checkDecode holds decodeRequest to encoding/json on body: it refuses
// what encoding/json refuses and what has trailing bytes, and decodes
// everything else to the same QueryRequest.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	want, trailing, jerr := jsonDecode(body)
	var got QueryRequest
	err := decodeRequest(body, &got)
	switch {
	case jerr != nil || trailing:
		if err == nil {
			t.Fatalf("%q: accepted as %+v; encoding/json: %v, trailing bytes %v", body, got, jerr, trailing)
		}
	case err != nil:
		t.Fatalf("%q: refused (%v); encoding/json decodes %+v", body, err, want)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%q: decoded %+v; encoding/json decodes %+v", body, got, want)
	}
}

// decodeCases are bodies at the edges of the language encoding/json
// accepts for a QueryRequest: every field and type, case folding, escapes,
// duplicates, null, numbers out of range or not integral, and bodies cut
// short, wrongly typed or followed by more bytes.
var decodeCases = []string{
	`{"goal":"gf(p0,G)"}`,
	`{"goal":"gf(p0,G)","strategy":"dfs","max_solutions":3,"max_expansions":18446744073709551615,"max_depth":-1,"timeout_ms":0,"learn":true,"prune":false,"prune_slack":-0.5e-3,"and_parallel":true,"workers":2,"tabled":true,"trace":false}`,
	" \t\r\n{ \"goal\" : \"a\" , \"strategy\" : \"best-first\" } \n",
	`{"GOAL":"a","Strategy":"BFS","WORKERS":1}`,
	"{\"worKers\":1,\"ſtrategy\":\"x\"}", // Kelvin sign and long s fold to k and s
	`{"goal":"é😀\ud800x\udc00\/\b\f\n\r\t\\\""}`,
	"{\"goal\":\"\xff\xfe caf\xc3\xa9 \xed\xa0\x80\"}",
	`{"goal":"a","goal":"b","workers":3,"workers":null,"goal":null}`,
	`null`, ` null `, `{}`, `{"goal":null}`,
	`{"workers":1.5}`, `{"workers":1e3}`, `{"workers":-0}`, `{"max_expansions":-0}`, `{"max_expansions":-1}`,
	`{"workers":9223372036854775808}`, `{"workers":-9223372036854775808}`, `{"prune_slack":1e400}`, `{"prune_slack":1e-400}`,
	`{"workers":01}`, `{"workers":1.}`, `{"workers":.5}`, `{"workers":+1}`, `{"workers":-}`, `{"prune_slack":1E+2}`,
	`{"learn":1}`, `{"learn":"true"}`, `{"goal":1}`, `{"goal":true}`, `{"workers":"1"}`, `{"trace":nul}`, `{"trace":truex}`,
	`{"goal":["a"]}`, `{"goal":{"a":1}}`, `{"bogus":1}`, `{"":null}`, `{"goal":"a",}`, `{"goal" "a"}`, `{,}`,
	`{"goal":"a"} x`, `{"goal":"a"}{"goal":"b("}`, `{"goal":"a"}}`, `[]`, `"goal"`, `1`, `true`, ``, ` `, `{`, `{"goal":"a`,
	`{"goal":"\u12"}`, `{"goal":"\x"}`, `{"goal":"\'"}`, "{\"goal\":\"a\tb\"}", "{\"goal\":\"a\x00\"}", `{"goal":"\ud800A"}`,
	`{"goal":"\ud800\udZZZ"}`, `{"goal":"\udc00\ud800"}`, "\xef\xbb\xbf{}", `{"strategy":"dfs"}`,
}

// FuzzQueryBody holds the query endpoints' decoder to encoding/json over
// arbitrary bodies: both accept the same bodies, but for the trailing
// bytes only decodeRequest refuses, and decode them to equal requests.
// A plain go test runs it over decodeCases.
func FuzzQueryBody(f *testing.F) {
	for _, c := range decodeCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

// TestRequestFieldsAreTheWireFields: the decoder knows exactly
// QueryRequest's JSON fields, in order, and its strategy names are the
// ones blog.ParseStrategy reads.
func TestRequestFieldsAreTheWireFields(t *testing.T) {
	typ := reflect.TypeFor[QueryRequest]()
	if typ.NumField() != len(requestFields) {
		t.Fatalf("QueryRequest has %d fields, the decoder knows %d", typ.NumField(), len(requestFields))
	}
	for i := range typ.NumField() {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		if got := string(foldKey(nil, []byte(name))); got != requestFields[i] {
			t.Errorf("field %d is %q on the wire, the decoder reads %q", i, name, requestFields[i])
		}
	}
	for _, name := range strategyNames {
		if _, err := blog.ParseStrategy(name); err != nil {
			t.Errorf("strategy %q: %v", name, err)
		}
	}
}

// TestReadBody: a body is read whole into the buffer, a reused buffer
// large enough is kept, and one byte past maxBody is refused.
func TestReadBody(t *testing.T) {
	body := []byte(`{"goal":"gf(p0,G)"}`)
	buf := make([]byte, 0, 1024)
	got, err := readBody(buf, iotest.OneByteReader(bytes.NewReader(body)), -1)
	if err != nil || !bytes.Equal(got, body) || &got[:1][0] != &buf[:1][0] {
		t.Errorf("read %q, %v; want the body in the given buffer", got, err)
	}
	for _, n := range []int{maxBody, maxBody + 1} {
		_, err := readBody(nil, bytes.NewReader(make([]byte, n)), int64(n))
		if tooLarge := err != nil && strings.Contains(err.Error(), "too large"); tooLarge != (n > maxBody) {
			t.Errorf("%d bytes: %v", n, err)
		}
	}
}
