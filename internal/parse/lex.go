// Package parse implements a lexer and parser for the Prolog subset used by
// the B-LOG paper: facts, Horn rules, and queries over atoms, integers,
// variables, compound terms and lists, with `%` line comments and `/* */`
// block comments. The paper's figure 1 program parses verbatim.
package parse

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokenKind uint8

const (
	tokEOF   tokenKind = iota
	tokAtom            // lowercase identifier, quoted atom, or symbolic atom
	tokVar             // uppercase/underscore identifier
	tokInt             // integer literal
	tokPunct           // ( ) [ ] , | .
	tokNeck            // :-
	tokQuery           // ?-
)

type token struct {
	kind tokenKind
	text string
	val  int64
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lexer turns source text into tokens. It is deliberately simple: the
// grammar in the paper needs no operator-precedence machinery beyond
// recognizing `:-`, `?-` and the comma.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

// Error is a parse error with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

func (l *lexer) errorf(line, col int, format string, args ...any) error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peekByte() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) skipSpaceAndComments() error {
	for {
		c, ok := l.peekByte()
		if !ok {
			return nil
		}
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '%':
			for {
				c, ok := l.peekByte()
				if !ok || c == '\n' {
					break
				}
				_ = c
				l.advance()
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			startLine, startCol := l.line, l.col
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.src[l.pos] == '*' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errorf(startLine, startCol, "unterminated block comment")
			}
		default:
			return nil
		}
	}
}

const symbolChars = "+-*/\\^<>=~:.?@#&"

func isSymbolChar(c byte) bool { return strings.IndexByte(symbolChars, c) >= 0 }

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}

// integer lexes the digits at the current position as an integer
// literal whose text began at start (at a leading '-', or at the first
// digit). A literal outside the 64-bit range is a syntax error, not a
// wrapped value.
func (l *lexer) integer(start, line, col int) (token, error) {
	for {
		c, ok := l.peekByte()
		if !ok || c < '0' || c > '9' {
			break
		}
		l.advance()
	}
	text := l.src[start:l.pos]
	v, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return token{}, l.errorf(line, col, "integer %s is outside the 64-bit range", text)
	}
	return token{kind: tokInt, text: text, val: v, line: line, col: col}, nil
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	line, col := l.line, l.col
	c, ok := l.peekByte()
	if !ok {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	switch {
	case c >= '0' && c <= '9':
		return l.integer(l.pos, line, col)

	case c >= 'a' && c <= 'z':
		start := l.pos
		for {
			c, ok := l.peekByte()
			if !ok || !isAlnum(c) {
				break
			}
			l.advance()
		}
		return token{kind: tokAtom, text: l.src[start:l.pos], line: line, col: col}, nil

	case c >= 'A' && c <= 'Z' || c == '_':
		start := l.pos
		for {
			c, ok := l.peekByte()
			if !ok || !isAlnum(c) {
				break
			}
			l.advance()
		}
		return token{kind: tokVar, text: l.src[start:l.pos], line: line, col: col}, nil

	case c == '\'':
		return l.quoted(line, col)

	case c == '(' || c == ')' || c == '[' || c == ']' || c == ',' || c == '|' || c == '!':
		l.advance()
		return token{kind: tokPunct, text: l.src[l.pos-1 : l.pos], line: line, col: col}, nil

	case isSymbolChar(c):
		start := l.pos
		for {
			c, ok := l.peekByte()
			if !ok || !isSymbolChar(c) {
				break
			}
			l.advance()
		}
		text := l.src[start:l.pos]
		switch text {
		case ":-":
			return token{kind: tokNeck, text: text, line: line, col: col}, nil
		case "?-":
			return token{kind: tokQuery, text: text, line: line, col: col}, nil
		case ".":
			return token{kind: tokPunct, text: text, line: line, col: col}, nil
		case "-":
			// Negative integer literal: `-` immediately followed by digits.
			if d, ok := l.peekByte(); ok && d >= '0' && d <= '9' {
				return l.integer(start, line, col)
			}
			return token{kind: tokAtom, text: text, line: line, col: col}, nil
		default:
			return token{kind: tokAtom, text: text, line: line, col: col}, nil
		}

	default:
		r := rune(c)
		if unicode.IsPrint(r) {
			return token{}, l.errorf(line, col, "unexpected character %q", r)
		}
		return token{}, l.errorf(line, col, "unexpected byte 0x%02x", c)
	}
}

// quoted lexes the quoted atom opening at the current position. Its text
// is a slice of the source unless it holds an escape or a doubled quote.
func (l *lexer) quoted(line, col int) (token, error) {
	l.advance()
	start := l.pos
	for l.pos < len(l.src) && l.src[l.pos] != '\'' && l.src[l.pos] != '\\' {
		l.advance()
	}
	if l.pos < len(l.src) && l.src[l.pos] == '\'' && (l.pos+1 == len(l.src) || l.src[l.pos+1] != '\'') {
		l.advance()
		return token{kind: tokAtom, text: l.src[start : l.pos-1], line: line, col: col}, nil
	}
	var b strings.Builder
	b.WriteString(l.src[start:l.pos])
	for {
		c, ok := l.peekByte()
		if !ok {
			return token{}, l.errorf(line, col, "unterminated quoted atom")
		}
		l.advance()
		if c == '\\' {
			e, ok := l.peekByte()
			if !ok {
				return token{}, l.errorf(line, col, "unterminated escape in quoted atom")
			}
			l.advance()
			switch e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '\\', '\'':
				b.WriteByte(e)
			default:
				return token{}, l.errorf(line, col, "unknown escape \\%c in quoted atom", e)
			}
			continue
		}
		if c == '\'' {
			// Doubled quote is an escaped quote.
			if nc, ok := l.peekByte(); ok && nc == '\'' {
				l.advance()
				b.WriteByte('\'')
				continue
			}
			return token{kind: tokAtom, text: b.String(), line: line, col: col}, nil
		}
		b.WriteByte(c)
	}
}
