package parser

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/ast"
)

// Result is the outcome of parsing a source text: the rules, the ground
// facts (atoms stated without a body, forming an input DB), the tgds, and
// the symbol table interning any quoted constants.
type Result struct {
	Program *ast.Program
	Facts   []ast.GroundAtom
	// FactPos[i] is the source position of Facts[i]; GroundAtom stays a
	// position-free value type because it is the evaluator's hot currency.
	FactPos []ast.Pos
	TGDs    []ast.TGD
	Symbols *ast.SymbolTable
}

type parser struct {
	lex  lexer
	tok  token
	syms *ast.SymbolTable
	// anon numbers the anonymous variables ('_'), each occurrence fresh.
	anon int
	// invalid records a rule that is not well-formed or gives a predicate
	// another arity than an earlier rule atom did: Program.Validate rejects it.
	invalid bool
	// atoms and terms are the arenas the Body, NegBody, Lhs, Rhs and Args
	// slices of the result are carved from (carve), sized once in parse.
	// neg holds a rule's negated atoms until its positive body is complete.
	atoms, neg []ast.Atom
	terms      []ast.Term
	// consts is the current chunk of the arena the facts' ground arguments
	// are carved from (groundArgs).
	consts []ast.Const
}

// factChunk bounds the constants of one chunk of the facts' arena, so that a
// fact a caller keeps pins at most that much of the parse: 2 KiB.
const factChunk = 256

// groundArgs copies a ground atom's arguments into the facts' arena and
// returns them carved, capped, so that an append to one fact's arguments
// reallocates instead of overwriting the next fact's. Chunks start small
// and double up to factChunk constants, so a source of a few facts
// reserves little.
func (p *parser) groundArgs(args []ast.Term) []ast.Const {
	if cap(p.consts)-len(p.consts) < len(args) {
		p.consts = make([]ast.Const, 0, max(len(args), min(2*cap(p.consts), factChunk), 8))
	}
	mark := len(p.consts)
	for _, t := range args {
		p.consts = append(p.consts, t.Val)
	}
	return p.consts[mark:len(p.consts):len(p.consts)]
}

// carve returns what was appended to an arena since mark, nil if nothing,
// capped so that an append to it reallocates instead of overwriting what
// the arena hands out next.
func carve[T any](arena []T, mark int) []T {
	if len(arena) == mark {
		return nil
	}
	return arena[mark:len(arena):len(arena)]
}

// Parse parses a full source text of rules, facts and tgds, validating the
// resulting program. A fresh symbol table is allocated for quoted constants.
func Parse(src string) (*Result, error) {
	return ParseWithSymbols(src, ast.NewSymbolTable())
}

// ParseWithSymbols is Parse but interning quoted constants into the supplied
// table, so that several sources can share a constant space.
func ParseWithSymbols(src string, syms *ast.SymbolTable) (*Result, error) {
	res, err := parse(src, syms, true)
	if err != nil {
		return nil, err
	}
	for _, t := range res.TGDs {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ParseLoose is Parse without the final well-formedness validation: the
// result may contain rules that are unsafe, not range-restricted, or
// arity-inconsistent. It is the entry point of the static analyzer
// (internal/analysis), which re-reports those violations as positioned
// diagnostics instead of a single error; everything else should use Parse.
func ParseLoose(src string) (*Result, error) {
	return parse(src, ast.NewSymbolTable(), false)
}

// parse reads src in one pass. With validate set it returns the error of
// Program.Validate if the parse saw a rule that Validate rejects.
func parse(src string, syms *ast.SymbolTable, validate bool) (*Result, error) {
	p := parser{syms: syms}
	p.lex.init(src)
	if err := p.advance(); err != nil {
		return nil, err
	}
	res := &Result{Program: ast.NewProgram(), Symbols: syms}
	if n := strings.Count(src, ":"); n > 0 {
		res.Program.Rules = make([]ast.Rule, 0, n)
	}
	// With n rules and m tgds the arenas keep every atom but the heads, and
	// two terms per rule or tgd more than it has commas. At most 64 atoms and
	// 128 terms are reserved, so facts beside a rule keep nothing.
	if n, m := cap(res.Program.Rules), strings.Count(src, ">"); n+m > 0 {
		p.atoms = make([]ast.Atom, 0, min(max(strings.Count(src, "(")-n, 0), 64))
		p.terms = make([]ast.Term, 0, min(strings.Count(src, ",")+2*(n+m), 128))
	}
	for p.tok.kind != tokEOF {
		if err := p.statement(res); err != nil {
			return nil, err
		}
	}
	if validate && p.invalid {
		if err := res.Program.Validate(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ParseProgram parses a source containing only rules and returns the
// program. Facts and tgds in the source are rejected.
func ParseProgram(src string) (*ast.Program, error) {
	res, err := Parse(src)
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

// MustParseProgram is ParseProgram but panics on error.
func MustParseProgram(src string) *ast.Program {
	p, err := ParseProgram(src)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseTGD parses a single tgd.
func ParseTGD(src string) (ast.TGD, error) {
	res, err := Parse(src)
	if err != nil {
		return ast.TGD{}, err
	}
	if len(res.TGDs) != 1 || len(res.Program.Rules) > 0 || len(res.Facts) > 0 {
		return ast.TGD{}, fmt.Errorf("parser: expected exactly one tgd")
	}
	return res.TGDs[0], nil
}

// MustParseTGD is ParseTGD but panics on error.
func MustParseTGD(src string) ast.TGD {
	t, err := ParseTGD(src)
	if err != nil {
		panic(err)
	}
	return t
}

// ParseAtom parses a single atom (no trailing period required). Quoted
// constants are interned into a fresh table; when the atom must share a
// constant space with an already-parsed source (e.g. a CLI query against a
// file's facts), use ParseAtomWithSymbols.
func ParseAtom(src string) (ast.Atom, error) {
	return ParseAtomWithSymbols(src, ast.NewSymbolTable())
}

// ParseAtomWithSymbols parses a single atom, interning quoted constants
// into syms so they identify with constants from other sources parsed with
// the same table.
func ParseAtomWithSymbols(src string, syms *ast.SymbolTable) (ast.Atom, error) {
	p := parser{syms: syms}
	p.lex.init(src)
	if err := p.advance(); err != nil {
		return ast.Atom{}, err
	}
	a, err := p.atom()
	if err != nil {
		return ast.Atom{}, err
	}
	if p.tok.kind != tokEOF && p.tok.kind != tokPeriod {
		return ast.Atom{}, p.unexpected("end of atom")
	}
	return a, nil
}

// MustParseAtom is ParseAtom but panics on error.
func MustParseAtom(src string) ast.Atom {
	a, err := ParseAtom(src)
	if err != nil {
		panic(err)
	}
	return a
}

func (p *parser) advance() error {
	return p.lex.next(&p.tok)
}

func (p *parser) expect(kind tokenKind) (token, error) {
	if p.tok.kind != kind {
		return token{}, p.unexpected(kind.String())
	}
	t := p.tok
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return t, nil
}

func (p *parser) unexpected(want string) error {
	got := p.tok.kind.String()
	text := p.lex.src[p.tok.start:p.tok.end]
	if p.tok.kind == tokString {
		text = p.lex.str
	}
	if text != "" {
		got = fmt.Sprintf("%s %q", got, text)
	}
	return fmt.Errorf("%s: expected %s, found %s", p.tok.pos, want, got)
}

// statement parses one of: fact, rule, tgd.
func (p *parser) statement(res *Result) error {
	termMark := len(p.terms)
	first, err := p.atom()
	if err != nil {
		return err
	}
	switch p.tok.kind {
	case tokPeriod:
		// A fact or a bodiless rule; ground atoms become facts.
		if err := p.advance(); err != nil {
			return err
		}
		if !first.IsGround() {
			return fmt.Errorf("%s: fact %s has variables; a rule needs a body", first.Pos, first)
		}
		res.Facts = append(res.Facts, ast.GroundAtom{Pred: first.Pred, Args: p.groundArgs(first.Args)})
		res.FactPos = append(res.FactPos, first.Pos)
		// The ground atom owns a copy of the arguments: give their terms
		// back to the arena, so a batch of facts reuses one atom's worth.
		p.terms = p.terms[:termMark]
		return nil

	case tokImplies:
		if err := p.advance(); err != nil {
			return err
		}
		rule := ast.Rule{Head: first, Pos: first.Pos}
		mark := len(p.atoms)
		p.neg = p.neg[:0]
		for {
			neg := false
			if p.tok.kind == tokBang {
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
			if p.tok.kind == tokComma {
				if err := p.advance(); err != nil {
					return err
				}
				continue
			}
			break
		}
		if _, err := p.expect(tokPeriod); err != nil {
			return err
		}
		rule.Body = carve(p.atoms, mark)
		mark = len(p.atoms)
		p.atoms = append(p.atoms, p.neg...)
		rule.NegBody = carve(p.atoms, mark)
		if !p.invalid {
			ok := rule.WellFormed()
			for _, atoms := range rule.Atoms() {
				for _, a := range atoms {
					ok = ok && p.lex.arityAgrees(a)
				}
			}
			p.invalid = !ok
		}
		res.Program.Rules = append(res.Program.Rules, rule)
		return nil

	case tokComma, tokArrow:
		// A tgd: LHS conjunction -> RHS conjunction.
		mark := len(p.atoms)
		p.atoms = append(p.atoms, first)
		for p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return err
			}
			a, err := p.atom()
			if err != nil {
				return err
			}
			p.atoms = append(p.atoms, a)
		}
		if _, err := p.expect(tokArrow); err != nil {
			return err
		}
		lhs := carve(p.atoms, mark)
		mark = len(p.atoms)
		for {
			a, err := p.atom()
			if err != nil {
				return err
			}
			p.atoms = append(p.atoms, a)
			if p.tok.kind == tokComma {
				if err := p.advance(); err != nil {
					return err
				}
				continue
			}
			break
		}
		if _, err := p.expect(tokPeriod); err != nil {
			return err
		}
		res.TGDs = append(res.TGDs, ast.TGD{Lhs: lhs, Rhs: carve(p.atoms, mark)})
		return nil

	default:
		return p.unexpected("'.', ':-', ',' or '->'")
	}
}

// atom parses Pred(t1, ..., tn).
func (p *parser) atom() (ast.Atom, error) {
	pred := p.lex.tab[p.tok.id].name // before a new name can regrow the table
	name, err := p.expect(tokIdent)
	if err != nil {
		return ast.Atom{}, err
	}
	if !isPredicateName(pred) {
		return ast.Atom{}, fmt.Errorf("%s: predicate name %q must begin with an upper-case letter", name.pos, pred)
	}
	if _, err := p.expect(tokLParen); err != nil {
		return ast.Atom{}, err
	}
	mark := len(p.terms)
	for {
		t, err := p.term()
		if err != nil {
			return ast.Atom{}, err
		}
		p.terms = append(p.terms, t)
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return ast.Atom{}, err
			}
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen); err != nil {
		return ast.Atom{}, err
	}
	return ast.Atom{Pred: pred, Args: carve(p.terms, mark), Pos: name.pos}, nil
}

func (p *parser) term() (ast.Term, error) {
	switch p.tok.kind {
	case tokIdent:
		text := p.lex.tab[p.tok.id].name
		if isPredicateName(text) {
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
	case tokInt:
		text := p.lex.src[p.tok.start:p.tok.end]
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return ast.Term{}, fmt.Errorf("%s: bad integer %q: %v", p.tok.pos, text, err)
		}
		if !ast.IsInt(ast.Const(n)) {
			// ast.Int panics outside the plain-integer range.
			return ast.Term{}, fmt.Errorf("%s: integer %s out of range: a constant lies strictly between -2^40 and 2^40", p.tok.pos, text)
		}
		if err := p.advance(); err != nil {
			return ast.Term{}, err
		}
		return ast.IntTerm(n), nil
	case tokString:
		c := p.syms.Intern(p.lex.str)
		if err := p.advance(); err != nil {
			return ast.Term{}, err
		}
		return ast.Con(c), nil
	default:
		return ast.Term{}, p.unexpected("term (variable, integer, or quoted constant)")
	}
}

func isPredicateName(s string) bool {
	if s != "" && s[0] < utf8.RuneSelf {
		return 'A' <= s[0] && s[0] <= 'Z'
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsUpper(r)
}
