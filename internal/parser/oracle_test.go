package parser

// This file keeps the rune-at-a-time lexer and the append-grown arenas the
// byte-level lexer replaced, verbatim but for their identifiers (every name
// gains an o/oracle prefix, Result is shared and the Must* wrappers are
// left out). TestParseMatchesOracle, FuzzParse and FuzzParseAtom hold the
// package's parser to it result for result and error for error.

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/ast"
)

type oTokenKind int

const (
	otokEOF     oTokenKind = iota
	otokIdent              // predicate or variable name
	otokInt                // integer literal
	otokString             // quoted symbolic constant
	otokLParen             // (
	otokRParen             // )
	otokComma              // ,
	otokPeriod             // .
	otokImplies            // :-
	otokArrow              // ->
	otokBang               // !
)

func (k oTokenKind) String() string {
	switch k {
	case otokEOF:
		return "end of input"
	case otokIdent:
		return "identifier"
	case otokInt:
		return "integer"
	case otokString:
		return "string"
	case otokLParen:
		return "'('"
	case otokRParen:
		return "')'"
	case otokComma:
		return "','"
	case otokPeriod:
		return "'.'"
	case otokImplies:
		return "':-'"
	case otokArrow:
		return "'->'"
	case otokBang:
		return "'!'"
	}
	return "unknown token"
}

type oToken struct {
	kind oTokenKind
	text string
	pos  ast.Pos
}

// oLexer reads src by byte offset; line and col count lines and runes, so
// a position is the same whatever the width of the runes before it.
type oLexer struct {
	src  string
	pos  int
	line int
	col  int
	// idents interns identifiers: a predicate or variable name is cloned
	// out of src the first time it is seen, so nothing the parse returns
	// keeps src alive.
	idents map[string]string
}

func newOLexer(src string) *oLexer {
	return &oLexer{src: src, line: 1, col: 1}
}

func (l *oLexer) errorf(pos ast.Pos, format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", pos.Line, pos.Col, fmt.Sprintf(format, args...))
}

// runeAt decodes the rune at byte offset i (0 past the end) and its width.
func (l *oLexer) runeAt(i int) (rune, int) {
	if i >= len(l.src) {
		return 0, 0
	}
	if c := l.src[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[i:])
}

func (l *oLexer) peek() rune {
	r, _ := l.runeAt(l.pos)
	return r
}

// peek2 is the rune after the next one.
func (l *oLexer) peek2() rune {
	_, n := l.runeAt(l.pos)
	r, _ := l.runeAt(l.pos + n)
	return r
}

func (l *oLexer) advance() rune {
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
func (l *oLexer) intern(s string) string {
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

func (l *oLexer) skipSpaceAndComments() {
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
func (l *oLexer) next() (oToken, error) {
	l.skipSpaceAndComments()
	pos, start := ast.Pos{Line: l.line, Col: l.col}, l.pos
	if l.pos >= len(l.src) {
		return oToken{kind: otokEOF, pos: pos}, nil
	}
	r := l.peek()
	switch {
	case r == '(':
		l.advance()
		return oToken{kind: otokLParen, text: "(", pos: pos}, nil
	case r == ')':
		l.advance()
		return oToken{kind: otokRParen, text: ")", pos: pos}, nil
	case r == ',':
		l.advance()
		return oToken{kind: otokComma, text: ",", pos: pos}, nil
	case r == '.':
		l.advance()
		return oToken{kind: otokPeriod, text: ".", pos: pos}, nil
	case r == '!':
		l.advance()
		return oToken{kind: otokBang, text: "!", pos: pos}, nil
	case r == ':':
		l.advance()
		if l.peek() != '-' {
			return oToken{}, l.errorf(pos, "expected ':-' but found ':%c'", l.peek())
		}
		l.advance()
		return oToken{kind: otokImplies, text: ":-", pos: pos}, nil
	case r == '-':
		l.advance()
		if l.peek() == '>' {
			l.advance()
			return oToken{kind: otokArrow, text: "->", pos: pos}, nil
		}
		// Negative integer literal.
		if !unicode.IsDigit(l.peek()) {
			return oToken{}, l.errorf(pos, "expected '->' or digit after '-'")
		}
		l.lexDigits()
		return oToken{kind: otokInt, text: l.src[start:l.pos], pos: pos}, nil
	case unicode.IsDigit(r):
		l.lexDigits()
		return oToken{kind: otokInt, text: l.src[start:l.pos], pos: pos}, nil
	case r == '"' || r == '\'':
		quote := r
		l.advance()
		var sb strings.Builder
		for {
			if l.pos >= len(l.src) {
				return oToken{}, l.errorf(pos, "unterminated string literal")
			}
			c := l.advance()
			if c == quote {
				break
			}
			if c == '\n' {
				return oToken{}, l.errorf(pos, "newline in string literal")
			}
			sb.WriteRune(c)
		}
		return oToken{kind: otokString, text: sb.String(), pos: pos}, nil
	case unicode.IsLetter(r) || r == '_':
		for l.pos < len(l.src) {
			c := l.peek()
			if !unicode.IsLetter(c) && !unicode.IsDigit(c) && c != '_' && c != '\'' {
				break
			}
			l.advance()
		}
		return oToken{kind: otokIdent, text: l.intern(l.src[start:l.pos]), pos: pos}, nil
	default:
		return oToken{}, l.errorf(pos, "unexpected character %q", r)
	}
}

// lexDigits advances past a run of digits.
func (l *oLexer) lexDigits() {
	for l.pos < len(l.src) && unicode.IsDigit(l.peek()) {
		l.advance()
	}
}

type oParser struct {
	lex  *oLexer
	tok  oToken
	syms *ast.SymbolTable
	// anon numbers the anonymous variables ('_'), each occurrence fresh.
	anon int
	// atoms and terms are the arenas the Body, NegBody, Lhs, Rhs and Args
	// slices of the result are carved from (oCarve); they grow by append, and
	// a piece carved before a growth keeps the old backing array. neg holds
	// a rule's negated atoms until its positive body is complete.
	atoms, neg []ast.Atom
	terms      []ast.Term
}

// oCarve returns what was appended to an arena since mark, nil if nothing,
// capped so that an append to it reallocates instead of overwriting what
// the arena hands out next.
func oCarve[T any](arena []T, mark int) []T {
	if len(arena) == mark {
		return nil
	}
	return arena[mark:len(arena):len(arena)]
}

// oracleParse parses a full source text of rules, facts and tgds, validating the
// resulting program. A fresh symbol table is allocated for quoted constants.
func oracleParse(src string) (*Result, error) {
	return oracleParseWithSymbols(src, ast.NewSymbolTable())
}

// oracleParseWithSymbols is oracleParse but interning quoted constants into the supplied
// table, so that several sources can share a constant space.
func oracleParseWithSymbols(src string, syms *ast.SymbolTable) (*Result, error) {
	res, err := oracleParseSource(src, syms)
	if err != nil {
		return nil, err
	}
	if err := res.Program.Validate(); err != nil {
		return nil, err
	}
	for _, t := range res.TGDs {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// oracleParseLoose is oracleParse without the final well-formedness validation: the
// result may contain rules that are unsafe, not range-restricted, or
// arity-inconsistent. It is the entry point of the static analyzer
// (internal/analysis), which re-reports those violations as positioned
// diagnostics instead of a single error; everything else should use oracleParse.
func oracleParseLoose(src string) (*Result, error) {
	return oracleParseSource(src, ast.NewSymbolTable())
}

func oracleParseSource(src string, syms *ast.SymbolTable) (*Result, error) {
	p := &oParser{lex: newOLexer(src), syms: syms}
	if err := p.advance(); err != nil {
		return nil, err
	}
	res := &Result{Program: ast.NewProgram(), Symbols: syms}
	if n := strings.Count(src, ":-"); n > 0 {
		res.Program.Rules = make([]ast.Rule, 0, n)
	}
	for p.tok.kind != otokEOF {
		if err := p.statement(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// oracleParseProgram parses a source containing only rules and returns the
// program. Facts and tgds in the source are rejected.
func oracleParseProgram(src string) (*ast.Program, error) {
	res, err := oracleParse(src)
	if err != nil {
		return nil, err
	}
	if len(res.Facts) > 0 {
		return nil, fmt.Errorf("parser: unexpected fact %s in program source", res.Facts[0])
	}
	if len(res.TGDs) > 0 {
		return nil, fmt.Errorf("parser: unexpected tgd %s in program source", res.TGDs[0])
	}
	return res.Program, nil
}

// oracleParseTGD parses a single tgd.
func oracleParseTGD(src string) (ast.TGD, error) {
	res, err := oracleParse(src)
	if err != nil {
		return ast.TGD{}, err
	}
	if len(res.TGDs) != 1 || len(res.Program.Rules) > 0 || len(res.Facts) > 0 {
		return ast.TGD{}, fmt.Errorf("parser: expected exactly one tgd")
	}
	return res.TGDs[0], nil
}

// oracleParseAtom parses a single atom (no trailing period required). Quoted
// constants are interned into a fresh table; when the atom must share a
// constant space with an already-parsed source (e.g. a CLI query against a
// file's facts), use oracleParseAtomWithSymbols.
func oracleParseAtom(src string) (ast.Atom, error) {
	return oracleParseAtomWithSymbols(src, ast.NewSymbolTable())
}

// oracleParseAtomWithSymbols parses a single atom, interning quoted constants
// into syms so they identify with constants from other sources parsed with
// the same table.
func oracleParseAtomWithSymbols(src string, syms *ast.SymbolTable) (ast.Atom, error) {
	p := &oParser{lex: newOLexer(src), syms: syms}
	if err := p.advance(); err != nil {
		return ast.Atom{}, err
	}
	a, err := p.atom()
	if err != nil {
		return ast.Atom{}, err
	}
	if p.tok.kind == otokPeriod {
		if err := p.advance(); err != nil {
			return ast.Atom{}, err
		}
	}
	if p.tok.kind != otokEOF {
		return ast.Atom{}, p.unexpected("end of atom")
	}
	return a, nil
}

func (p *oParser) advance() error {
	tok, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = tok
	return nil
}

func (p *oParser) expect(kind oTokenKind) (oToken, error) {
	if p.tok.kind != kind {
		return oToken{}, p.unexpected(kind.String())
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return oToken{}, err
	}
	return t, nil
}

func (p *oParser) unexpected(want string) error {
	got := p.tok.kind.String()
	if p.tok.text != "" {
		got = fmt.Sprintf("%s %q", got, p.tok.text)
	}
	return fmt.Errorf("%s: expected %s, found %s", p.tok.pos, want, got)
}

// statement parses one of: fact, rule, tgd.
func (p *oParser) statement(res *Result) error {
	termMark := len(p.terms)
	first, err := p.atom()
	if err != nil {
		return err
	}
	switch p.tok.kind {
	case otokPeriod:
		// A fact or a bodiless rule; ground atoms become facts.
		if err := p.advance(); err != nil {
			return err
		}
		if !first.IsGround() {
			return fmt.Errorf("%s: fact %s has variables; a rule needs a body", first.Pos, first)
		}
		res.Facts = append(res.Facts, first.MustGround(nil))
		res.FactPos = append(res.FactPos, first.Pos)
		// The ground atom owns a copy of the arguments: give their terms
		// back to the arena, so a batch of facts reuses one atom's worth.
		p.terms = p.terms[:termMark]
		return nil

	case otokImplies:
		if err := p.advance(); err != nil {
			return err
		}
		rule := ast.Rule{Head: first, Pos: first.Pos}
		mark := len(p.atoms)
		p.neg = p.neg[:0]
		for {
			neg := false
			if p.tok.kind == otokBang {
				neg = true
				if err := p.advance(); err != nil {
					return err
				}
			}
			a, err := p.atom()
			if err != nil {
				return err
			}
			if neg {
				p.neg = append(p.neg, a)
			} else {
				p.atoms = append(p.atoms, a)
			}
			if p.tok.kind == otokComma {
				if err := p.advance(); err != nil {
					return err
				}
				continue
			}
			break
		}
		if _, err := p.expect(otokPeriod); err != nil {
			return err
		}
		rule.Body = oCarve(p.atoms, mark)
		mark = len(p.atoms)
		p.atoms = append(p.atoms, p.neg...)
		rule.NegBody = oCarve(p.atoms, mark)
		res.Program.Rules = append(res.Program.Rules, rule)
		return nil

	case otokComma, otokArrow:
		// A tgd: LHS conjunction -> RHS conjunction.
		mark := len(p.atoms)
		p.atoms = append(p.atoms, first)
		for p.tok.kind == otokComma {
			if err := p.advance(); err != nil {
				return err
			}
			a, err := p.atom()
			if err != nil {
				return err
			}
			p.atoms = append(p.atoms, a)
		}
		if _, err := p.expect(otokArrow); err != nil {
			return err
		}
		lhs := oCarve(p.atoms, mark)
		mark = len(p.atoms)
		for {
			a, err := p.atom()
			if err != nil {
				return err
			}
			p.atoms = append(p.atoms, a)
			if p.tok.kind == otokComma {
				if err := p.advance(); err != nil {
					return err
				}
				continue
			}
			break
		}
		if _, err := p.expect(otokPeriod); err != nil {
			return err
		}
		res.TGDs = append(res.TGDs, ast.TGD{Lhs: lhs, Rhs: oCarve(p.atoms, mark)})
		return nil

	default:
		return p.unexpected("'.', ':-', ',' or '->'")
	}
}

// atom parses Pred(t1, ..., tn).
func (p *oParser) atom() (ast.Atom, error) {
	name, err := p.expect(otokIdent)
	if err != nil {
		return ast.Atom{}, err
	}
	if !oIsPredicateName(name.text) {
		return ast.Atom{}, fmt.Errorf("%s: predicate name %q must begin with an upper-case letter", name.pos, name.text)
	}
	if _, err := p.expect(otokLParen); err != nil {
		return ast.Atom{}, err
	}
	mark := len(p.terms)
	for {
		t, err := p.term()
		if err != nil {
			return ast.Atom{}, err
		}
		p.terms = append(p.terms, t)
		if p.tok.kind == otokComma {
			if err := p.advance(); err != nil {
				return ast.Atom{}, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(otokRParen); err != nil {
		return ast.Atom{}, err
	}
	return ast.Atom{Pred: name.text, Args: oCarve(p.terms, mark), Pos: name.pos}, nil
}

func (p *oParser) term() (ast.Term, error) {
	switch p.tok.kind {
	case otokIdent:
		text := p.tok.text
		if oIsPredicateName(text) {
			return ast.Term{}, fmt.Errorf("%s: %q begins with an upper-case letter; variables are lower-case and constants are integers or quoted", p.tok.pos, text)
		}
		if err := p.advance(); err != nil {
			return ast.Term{}, err
		}
		if text == "_" {
			// Anonymous variable: every occurrence is a fresh variable, so
			// G(x, _) matches any second argument without joining.
			p.anon++
			return ast.Var("_" + strconv.Itoa(p.anon)), nil
		}
		return ast.Var(text), nil
	case otokInt:
		n, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return ast.Term{}, fmt.Errorf("%s: bad integer %q: %v", p.tok.pos, p.tok.text, err)
		}
		if !ast.IsInt(ast.Const(n)) {
			// ast.Int panics outside the plain-integer range.
			return ast.Term{}, fmt.Errorf("%s: integer %s out of range: a constant lies strictly between -2^40 and 2^40", p.tok.pos, p.tok.text)
		}
		if err := p.advance(); err != nil {
			return ast.Term{}, err
		}
		return ast.IntTerm(n), nil
	case otokString:
		c := p.syms.Intern(p.tok.text)
		if err := p.advance(); err != nil {
			return ast.Term{}, err
		}
		return ast.Con(c), nil
	default:
		return ast.Term{}, p.unexpected("term (variable, integer, or quoted constant)")
	}
}

func oIsPredicateName(s string) bool {
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsUpper(r)
}
