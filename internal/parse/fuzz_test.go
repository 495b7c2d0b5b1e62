package parse

import (
	"math"
	"strings"
	"testing"

	"blog/internal/term"
)

// FuzzSource checks the parser never panics and that whatever it accepts
// round-trips: every parsed clause renders to text that reparses to the
// same rendered form.
func FuzzSource(f *testing.F) {
	seeds := []string{
		"p(a).",
		"gf(X,Z) :- f(X,Y), f(Y,Z).",
		"?- gf(sam,G).",
		"p([a,b|T], 42, 'quoted atom').",
		"x :- a, b, c.",
		"n(-7).",
		"q(X) :- X is 1 + 2 * 3, X =\\= 0.",
		"% comment\np(a). /* block */",
		"l([]). l([H|T]) :- l(T).",
		"u(T) :- T =.. [f, 1].",
		"w :- \\+(p(a)).",
		"p(a",
		":-:-",
		"'unterminated",
		"p(a)) .",
		"\x00\xff",
		strings.Repeat("(", 100),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Source(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		for _, c := range prog.Clauses {
			rendered := renderClause(c)
			prog2, err := Source(rendered)
			if err != nil {
				t.Fatalf("accepted clause %q does not reparse: %v", rendered, err)
			}
			if len(prog2.Clauses) != 1 {
				t.Fatalf("clause %q reparsed to %d clauses", rendered, len(prog2.Clauses))
			}
			if got := renderClause(prog2.Clauses[0]); got != rendered {
				t.Fatalf("round trip drift: %q -> %q", rendered, got)
			}
		}
	})
}

func renderClause(c Clause) string {
	var text string
	if len(c.Body) == 0 {
		text = c.Head.String()
	} else {
		parts := make([]string, len(c.Body))
		for i, g := range c.Body {
			parts[i] = g.String()
		}
		text = c.Head.String() + " :- " + strings.Join(parts, ", ")
	}
	if term.EndsSymbolic(text) {
		return text + " ."
	}
	return text + "."
}

// FuzzQuery checks query parsing never panics and accepted queries
// reparse.
func FuzzQuery(f *testing.F) {
	for _, s := range []string{"p(X)", "?- a, b.", "X = f(Y), Y \\= 3", "[H|T] = [1,2]"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		goals, err := Query(src)
		if err != nil {
			return
		}
		for _, g := range goals {
			if _, err := OneTerm(g.String()); err != nil {
				// Variables with generated names (_G42) still parse; any
				// failure here is a printer/parser mismatch.
				t.Fatalf("accepted goal %q does not reparse: %v", g.String(), err)
			}
		}
		_ = goals
	})
}

// FuzzOneTermPrinterTotal checks the printer itself is total over parsed
// terms (no panics formatting unusual atoms).
func FuzzOneTermPrinterTotal(f *testing.F) {
	f.Add("f('a b', 'don''t', [x|Y])")
	f.Fuzz(func(t *testing.T, src string) {
		tm, err := OneTerm(src)
		if err != nil {
			return
		}
		_ = tm.String()
		_ = term.VarsUnder(nil, tm, nil)
	})
}

// textAtoms are the names FuzzTermText builds atoms and functors from:
// plain, quoted (spaces, quotes, backslashes, control characters,
// non-ASCII, characters the lexer reads as punctuation), symbolic
// (including the symbol runs the lexer reads as something other than an
// atom: ".", ":-", "?-" and a comment opener), and the solo atoms [], !
// and {}.
var textAtoms = []string{
	"a", "sam", "fooBar_9", "is", "mod", "", "Upper", "_x", "1a", "hello world", "don't", "back\\slash",
	"two\nlines", "tab\there", "héllo", "\"", "'", "[]", "!", "{}", ",", ";", "|", "(", ")", "[", "]", "%",
	".", ":-", "?-", "+", "-", "*", "//", "=..", "\\+", "/*", "*/", "<=>", "@", "=", "\\=", "-->",
}

// textInts are the integers at the edges of the 64-bit range, which the
// top argument bytes of an integer decision select.
var textInts = []int64{math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1}

// textTerm builds a variable-free term from data, one byte per decision,
// and returns the bytes it did not use.
func textTerm(data []byte, depth int) (term.Term, []byte) {
	if len(data) < 2 {
		return term.EmptyList, nil
	}
	op, arg, data := data[0], int(data[1]), data[2:]
	if depth <= 0 {
		op %= 3
	}
	switch op % 6 {
	case 0, 1:
		return term.NewAtom(textAtoms[arg%len(textAtoms)]), data
	case 2:
		if arg >= 256-len(textInts) {
			return term.Int(textInts[arg-(256-len(textInts))]), data
		}
		return term.Int(int64(int8(arg)) * int64(arg+1) * 1_000_003), data
	case 3:
		args := make([]term.Term, 1+arg%3)
		for i := range args {
			args[i], data = textTerm(data, depth-1)
		}
		return term.NewCompound(textAtoms[arg/3%len(textAtoms)], args...), data
	default: // a list, proper (op 4) or partial (op 5)
		items := make([]term.Term, 1+arg%3)
		for i := range items {
			items[i], data = textTerm(data, depth-1)
		}
		var tail term.Term = term.EmptyList
		if op%6 == 5 {
			tail, data = textTerm(data, depth-1)
		}
		for i := len(items) - 1; i >= 0; i-- {
			tail = term.Cons(items[i], tail)
		}
		return tail, data
	}
}

// FuzzTermText checks that term text reads back: every variable-free term
// renders to text that OneTerm parses to an equal term, which renders to
// the same text.
func FuzzTermText(f *testing.F) {
	f.Add([]byte{3, 17 * 3, 0, 0})                     // '[]'(a)
	f.Add([]byte{3, 18 * 3, 2, 200})                   // '!'(-11256033768)
	f.Add([]byte{5, 0, 0, 19, 0, 28})                  // ['{}'|'.']
	f.Add([]byte{3, 29*3 + 2, 0, 1, 0, 2, 4, 0, 0, 3}) // ':-'(sam,fooBar_9,[is])
	f.Add([]byte{4, 2, 2, 255, 2, 128, 3, 32 * 3, 0, 33})
	f.Add([]byte{2, 252})               // 9223372036854775807
	f.Add([]byte{2, 253})               // -9223372036854775808
	f.Add([]byte{3, 32 * 3, 2, 253})    // -(-9223372036854775808)
	f.Add([]byte{5, 0, 2, 253, 2, 252}) // [-9223372036854775808|9223372036854775807]
	f.Fuzz(func(t *testing.T, data []byte) {
		tm, _ := textTerm(data, 4)
		text := tm.String()
		back, err := OneTerm(text)
		if err != nil {
			t.Fatalf("%s does not read back: %v", text, err)
		}
		if !term.EqualUnder(nil, back, tm) {
			t.Fatalf("%s reads back as a different term, %s", text, back)
		}
		if again := back.String(); again != text {
			t.Fatalf("%s renders back as %s", text, again)
		}
	})
}
