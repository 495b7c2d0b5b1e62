package parse

import (
	"blog/internal/term"
)

// Clause is a parsed Horn clause. Facts have an empty Body. Queries are
// represented by ParsedQuery instead.
type Clause struct {
	Head term.Term
	Body []term.Term
	Line int
}

// TabledDecl is one predicate named by a `:- table name/arity` directive.
// Min, when nonzero, is the 1-based argument position declared as the cost
// slot by the `min(N)` answer-subsumption form: the table keeps only the
// least-cost answer per binding of the remaining arguments.
type TabledDecl struct {
	Name  string
	Arity int
	Min   int
	Line  int
}

// Program is the result of parsing a source text: its clauses in order,
// any directive queries (`?- goal, ... .`) embedded in the text, and the
// predicates declared tabled (`:- table name/arity, ... .`).
type Program struct {
	Clauses []Clause
	Queries [][]term.Term
	Tabled  []TabledDecl
}

// maxNesting caps how deep parentheses, brackets and argument lists nest
// in one text, the limit encoding/json applies to the body that carries a
// query to blogd. Deeper text is a syntax error, not a stack overflow in
// the recursive descent below.
const maxNesting = 10_000

// parser is a single-token-lookahead recursive descent parser.
type parser struct {
	lx    *lexer
	tok   token
	vars  map[string]*term.Var // variable scope of the current clause
	depth int                  // open parentheses, brackets and argument lists
}

// nest opens one nesting level; the caller closes it with p.depth--.
func (p *parser) nest() error {
	if p.depth++; p.depth > maxNesting {
		return p.lx.errorf(p.tok.line, p.tok.col, "terms nest deeper than %d levels", maxNesting)
	}
	return nil
}

// Source parses a complete program text.
func Source(src string) (*Program, error) {
	p := &parser{lx: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	prog := &Program{}
	for p.tok.kind != tokEOF {
		p.vars = make(map[string]*term.Var)
		if p.tok.kind == tokQuery {
			if err := p.advance(); err != nil {
				return nil, err
			}
			goals, err := p.body()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("."); err != nil {
				return nil, err
			}
			prog.Queries = append(prog.Queries, goals)
			continue
		}
		if p.tok.kind == tokNeck {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.directive(prog); err != nil {
				return nil, err
			}
			continue
		}
		line := p.tok.line
		head, err := p.goal()
		if err != nil {
			return nil, err
		}
		if _, ok := term.Indicator(head); !ok {
			return nil, p.lx.errorf(line, 1, "clause head must be callable, got %s", head)
		}
		var body []term.Term
		if p.tok.kind == tokNeck {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if body, err = p.body(); err != nil {
				return nil, err
			}
		}
		if err := p.expectPunct("."); err != nil {
			return nil, err
		}
		prog.Clauses = append(prog.Clauses, Clause{Head: head, Body: body, Line: line})
	}
	return prog, nil
}

// Query parses a single query: a comma-separated goal list with an optional
// leading `?-` and optional trailing `.`.
func Query(src string) ([]term.Term, error) {
	p := &parser{lx: newLexer(src), vars: make(map[string]*term.Var)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.kind == tokQuery {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	goals, err := p.body()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokPunct && p.tok.text == "." {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != tokEOF {
		return nil, p.lx.errorf(p.tok.line, p.tok.col, "unexpected %s after query", p.tok)
	}
	return goals, nil
}

// OneTerm parses a single term (no trailing period allowed).
func OneTerm(src string) (term.Term, error) {
	p := &parser{lx: newLexer(src), vars: make(map[string]*term.Var)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	t, err := p.goal()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.lx.errorf(p.tok.line, p.tok.col, "unexpected %s after term", p.tok)
	}
	return t, nil
}

// directive parses the body of a leading `:- ...` directive. Only
// `table name/arity[ min(N)], ... .` is recognized; anything else is an
// error so a typo does not silently load as nothing.
func (p *parser) directive(prog *Program) error {
	if p.tok.kind != tokAtom || p.tok.text != "table" {
		return p.lx.errorf(p.tok.line, p.tok.col,
			"unsupported directive %s (only `:- table name/arity.` is recognized)", p.tok)
	}
	if err := p.advance(); err != nil {
		return err
	}
	for {
		line := p.tok.line
		if p.tok.kind != tokAtom || p.tok.text == "/" {
			return p.lx.errorf(p.tok.line, p.tok.col, "expected predicate name in table directive, found %s", p.tok)
		}
		name := p.tok.text
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind != tokAtom || p.tok.text != "/" {
			return p.lx.errorf(p.tok.line, p.tok.col, "expected / after predicate name %q, found %s", name, p.tok)
		}
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind != tokInt || p.tok.val < 0 {
			return p.lx.errorf(p.tok.line, p.tok.col, "expected non-negative arity after %s/, found %s", name, p.tok)
		}
		arity := int(p.tok.val)
		if err := p.advance(); err != nil {
			return err
		}
		min, err := p.tableMode(name)
		if err != nil {
			return err
		}
		prog.Tabled = append(prog.Tabled, TabledDecl{Name: name, Arity: arity, Min: min, Line: line})
		if p.tok.kind == tokPunct && p.tok.text == "," {
			if err := p.advance(); err != nil {
				return err
			}
			continue
		}
		return p.expectPunct(".")
	}
}

// tableMode parses the optional answer-subsumption mode after a
// `name/arity` in a table directive. `min(N)` declares argument N (1-based)
// as the cost slot; absence returns 0 (plain variant tabling).
func (p *parser) tableMode(name string) (int, error) {
	if p.tok.kind != tokAtom || p.tok.text != "min" {
		return 0, nil
	}
	if err := p.advance(); err != nil {
		return 0, err
	}
	if err := p.expectPunct("("); err != nil {
		return 0, err
	}
	if p.tok.kind != tokInt || p.tok.val < 1 {
		return 0, p.lx.errorf(p.tok.line, p.tok.col, "expected positive argument position in min(...) after %s, found %s", name, p.tok)
	}
	min := int(p.tok.val)
	if err := p.advance(); err != nil {
		return 0, err
	}
	return min, p.expectPunct(")")
}

func (p *parser) advance() error {
	tok, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = tok
	return nil
}

func (p *parser) expectPunct(s string) error {
	if p.tok.kind != tokPunct || p.tok.text != s {
		return p.lx.errorf(p.tok.line, p.tok.col, "expected %q, found %s", s, p.tok)
	}
	return p.advance()
}

// body parses a comma-separated conjunction of goals.
func (p *parser) body() ([]term.Term, error) {
	var goals []term.Term
	for {
		g, err := p.goal()
		if err != nil {
			return nil, err
		}
		goals = append(goals, g)
		if p.tok.kind == tokPunct && p.tok.text == "," {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		return goals, nil
	}
}

// Operator precedence, Prolog-style (lower binds tighter).
// goal     := expr500 ( CMPOP expr500 )?      comparison / =,is level (700)
// expr500  := expr400 ( (+|-) expr400 )*      additive
// expr400  := primary ( (*|//|mod) primary )* multiplicative
var comparisonOps = map[string]bool{
	"=": true, "\\=": true, "==": true, "\\==": true, "is": true,
	"=:=": true, "=\\=": true, "<": true, ">": true, "=<": true, ">=": true,
	"@<": true, "@>": true, "@=<": true, "@>=": true, "=..": true,
}

func (p *parser) goal() (term.Term, error) {
	left, err := p.expr500()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokAtom && comparisonOps[p.tok.text] {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.expr500()
		if err != nil {
			return nil, err
		}
		return term.NewCompound(op, left, right), nil
	}
	return left, nil
}

func (p *parser) expr500() (term.Term, error) {
	left, err := p.expr400()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokAtom && (p.tok.text == "+" || p.tok.text == "-") {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.expr400()
		if err != nil {
			return nil, err
		}
		left = term.NewCompound(op, left, right)
	}
	return left, nil
}

func (p *parser) expr400() (term.Term, error) {
	left, err := p.primary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokAtom && (p.tok.text == "*" || p.tok.text == "//" || p.tok.text == "mod") {
		op := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.primary()
		if err != nil {
			return nil, err
		}
		left = term.NewCompound(op, left, right)
	}
	return left, nil
}

func (p *parser) primary() (term.Term, error) {
	switch p.tok.kind {
	case tokInt:
		v := term.Int(p.tok.val)
		return v, p.advance()

	case tokVar:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if name == "_" {
			return term.NewVar("_"), nil // each _ is a distinct variable
		}
		if v, ok := p.vars[name]; ok {
			return v, nil
		}
		v := term.NewVar(name)
		p.vars[name] = v
		return v, nil

	case tokAtom:
		name := p.tok.text
		line, col := p.tok.line, p.tok.col
		if err := p.advance(); err != nil {
			return nil, err
		}
		// Functor application only when `(` immediately follows; we do not
		// track adjacency, which is fine for this grammar.
		if p.tok.kind == tokPunct && p.tok.text == "(" {
			if err := p.nest(); err != nil {
				return nil, err
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			var args []term.Term
			for {
				a, err := p.goal()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.tok.kind == tokPunct && p.tok.text == "," {
					if err := p.advance(); err != nil {
						return nil, err
					}
					continue
				}
				break
			}
			p.depth--
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			if len(args) == 0 {
				return nil, p.lx.errorf(line, col, "empty argument list for %s", name)
			}
			return term.NewCompound(name, args...), nil
		}
		return term.NewAtom(name), nil

	case tokPunct:
		switch p.tok.text {
		case "(":
			if err := p.nest(); err != nil {
				return nil, err
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			t, err := p.goal()
			if err != nil {
				return nil, err
			}
			p.depth--
			return t, p.expectPunct(")")
		case "[":
			return p.list()
		case "!":
			return term.NewAtom("!"), p.advance()
		}
	}
	return nil, p.lx.errorf(p.tok.line, p.tok.col, "unexpected %s", p.tok)
}

func (p *parser) list() (term.Term, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	if err := p.advance(); err != nil { // consume [
		return nil, err
	}
	if p.tok.kind == tokPunct && p.tok.text == "]" {
		p.depth--
		return term.EmptyList, p.advance()
	}
	var items []term.Term
	for {
		it, err := p.goal()
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		if p.tok.kind == tokPunct && p.tok.text == "," {
			if err := p.advance(); err != nil {
				return nil, err
			}
			continue
		}
		break
	}
	tail := term.Term(term.EmptyList)
	if p.tok.kind == tokPunct && p.tok.text == "|" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		t, err := p.goal()
		if err != nil {
			return nil, err
		}
		tail = t
	}
	p.depth--
	if err := p.expectPunct("]"); err != nil {
		return nil, err
	}
	l := tail
	for i := len(items) - 1; i >= 0; i-- {
		l = term.Cons(items[i], l)
	}
	return l, nil
}
