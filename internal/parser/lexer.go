// Package parser implements a lexer and recursive-descent parser for the
// concrete Datalog syntax used throughout the repository:
//
//	G(x, z) :- A(x, y), G(y, z).      % a rule
//	A(1, 2).                          % a fact (ground atom)
//	G(x, z) -> A(x, w).               % a tgd (Section VIII)
//	P(x) :- A(x), !B(x).              % stratified negation (extension)
//
// Identifiers beginning with an upper-case letter are predicate symbols;
// identifiers beginning with a lower-case letter are variables ('_' is the
// anonymous variable — fresh at every occurrence); integers and
// quoted strings are constants (quoted strings are interned through a
// SymbolTable, honouring the paper's "constants are integers" convention
// internally). Integers lie strictly between -2^40 and 2^40. Comments run
// from '%' or "//" to end of line.
//
// The lexer reads the source in place: identifier and integer tokens are
// substrings of it, and positions count lines and runes. Each distinct
// identifier is interned once per parse — copied out of the source the first
// time it is seen — so no predicate or variable name of a result points into
// the source, and a parsed program, or a relation keyed by one of its
// predicates, does not keep a whole request body alive. The Body, NegBody,
// Lhs, Rhs and Args slices of a result are carved, capped, from two arenas
// that grow by append: an append to a carved slice reallocates it.
package parser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/ast"
)

type tokenKind int

const (
	tokEOF     tokenKind = iota
	tokIdent             // predicate or variable name
	tokInt               // integer literal
	tokString            // quoted symbolic constant
	tokLParen            // (
	tokRParen            // )
	tokComma             // ,
	tokPeriod            // .
	tokImplies           // :-
	tokArrow             // ->
	tokBang              // !
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokInt:
		return "integer"
	case tokString:
		return "string"
	case tokLParen:
		return "'('"
	case tokRParen:
		return "')'"
	case tokComma:
		return "','"
	case tokPeriod:
		return "'.'"
	case tokImplies:
		return "':-'"
	case tokArrow:
		return "'->'"
	case tokBang:
		return "'!'"
	}
	return "unknown token"
}

type token struct {
	kind tokenKind
	text string
	pos  ast.Pos
}

// lexer reads src by byte offset; line and col count lines and runes, so
// a position is the same whatever the width of the runes before it.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
	// idents interns identifiers: a predicate or variable name is cloned
	// out of src the first time it is seen, so nothing the parse returns
	// keeps src alive.
	idents map[string]string
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errorf(pos ast.Pos, format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", pos.Line, pos.Col, fmt.Sprintf(format, args...))
}

// runeAt decodes the rune at byte offset i (0 past the end) and its width.
func (l *lexer) runeAt(i int) (rune, int) {
	if i >= len(l.src) {
		return 0, 0
	}
	if c := l.src[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[i:])
}

func (l *lexer) peek() rune {
	r, _ := l.runeAt(l.pos)
	return r
}

// peek2 is the rune after the next one.
func (l *lexer) peek2() rune {
	_, n := l.runeAt(l.pos)
	r, _ := l.runeAt(l.pos + n)
	return r
}

func (l *lexer) advance() rune {
	r, n := l.runeAt(l.pos)
	l.pos += n
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

// intern returns the interned copy of the identifier s.
func (l *lexer) intern(s string) string {
	if t, ok := l.idents[s]; ok {
		return t
	}
	if l.idents == nil {
		l.idents = make(map[string]string)
	}
	t := strings.Clone(s)
	l.idents[t] = t
	return t
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		r := l.peek()
		switch {
		case unicode.IsSpace(r):
			l.advance()
		case r == '%':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case r == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	pos, start := ast.Pos{Line: l.line, Col: l.col}, l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: pos}, nil
	}
	r := l.peek()
	switch {
	case r == '(':
		l.advance()
		return token{kind: tokLParen, text: "(", pos: pos}, nil
	case r == ')':
		l.advance()
		return token{kind: tokRParen, text: ")", pos: pos}, nil
	case r == ',':
		l.advance()
		return token{kind: tokComma, text: ",", pos: pos}, nil
	case r == '.':
		l.advance()
		return token{kind: tokPeriod, text: ".", pos: pos}, nil
	case r == '!':
		l.advance()
		return token{kind: tokBang, text: "!", pos: pos}, nil
	case r == ':':
		l.advance()
		if l.peek() != '-' {
			return token{}, l.errorf(pos, "expected ':-' but found ':%c'", l.peek())
		}
		l.advance()
		return token{kind: tokImplies, text: ":-", pos: pos}, nil
	case r == '-':
		l.advance()
		if l.peek() == '>' {
			l.advance()
			return token{kind: tokArrow, text: "->", pos: pos}, nil
		}
		// Negative integer literal.
		if !unicode.IsDigit(l.peek()) {
			return token{}, l.errorf(pos, "expected '->' or digit after '-'")
		}
		l.lexDigits()
		return token{kind: tokInt, text: l.src[start:l.pos], pos: pos}, nil
	case unicode.IsDigit(r):
		l.lexDigits()
		return token{kind: tokInt, text: l.src[start:l.pos], pos: pos}, nil
	case r == '"' || r == '\'':
		quote := r
		l.advance()
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, l.errorf(pos, "unterminated string literal")
			}
			c := l.advance()
			if c == quote {
				break
			}
			if c == '\n' {
				return token{}, l.errorf(pos, "newline in string literal")
			}
			sb.WriteRune(c)
		}
		return token{kind: tokString, text: sb.String(), pos: pos}, nil
	case unicode.IsLetter(r) || r == '_':
		for l.pos < len(l.src) {
			c := l.peek()
			if !unicode.IsLetter(c) && !unicode.IsDigit(c) && c != '_' && c != '\'' {
				break
			}
			l.advance()
		}
		return token{kind: tokIdent, text: l.intern(l.src[start:l.pos]), pos: pos}, nil
	default:
		return token{}, l.errorf(pos, "unexpected character %q", r)
	}
}

// lexDigits advances past a run of digits.
func (l *lexer) lexDigits() {
	for l.pos < len(l.src) && unicode.IsDigit(l.peek()) {
		l.advance()
	}
}
