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
// The lexer reads the source once, a byte at a time, decoding a rune only at
// a byte above 0x7F, so positions still count lines and runes. Each distinct
// identifier is hashed as it is read and interned once per parse in an
// open-addressed table that also records each predicate's arity in the
// rules, so the parse finds what Program.Validate rejects. A name is copied
// into a small block, so a result does not keep a request body alive. The
// Body, NegBody, Lhs, Rhs and Args slices of a result are carved, capped,
// from two arenas sized once: an append to a carved slice reallocates it.
package parser

import (
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

var kindNames = [...]string{
	tokEOF: "end of input", tokIdent: "identifier", tokInt: "integer", tokString: "string",
	tokLParen: "'('", tokRParen: "')'", tokComma: "','", tokPeriod: "'.'",
	tokImplies: "':-'", tokArrow: "'->'", tokBang: "'!'",
}

func (k tokenKind) String() string { return kindNames[k] }

// token is a token's kind, position and bytes src[start:end]. It holds no
// pointer, so storing one is a plain move: an identifier's name is
// tab[id].name until the next identifier is read, a quoted constant's str.
type token struct {
	kind           tokenKind
	pos            ast.Pos
	start, end, id int
}

// lexer reads src by byte offset; line and col count lines and runes.
type lexer struct {
	src            string
	pos, line, col int
	str            string
	// tab is the intern table, probed linearly and at most half full (n
	// slots). A new name is copied into names, a fresh block once it is
	// full, of 16 bytes or what is left of src if less (a longer name gets
	// its own), so a result keeps little beyond its own names.
	tab   []ident
	n     int
	names strings.Builder
}

// ident is an interned name, its FNV-1a hash, and one more than the arity
// of the first rule atom of that predicate (0: none yet).
type ident struct {
	name  string
	hash  uint32
	arity int32
}

const fnvOffset, fnvPrime = 2166136261, 16777619

// punct is the kind of each one-byte token; identBytes and digitBytes mark
// the ASCII bytes that continue an identifier and an integer.
var (
	punct                  = [256]tokenKind{'(': tokLParen, ')': tokRParen, ',': tokComma, '.': tokPeriod, '!': tokBang}
	identBytes, digitBytes = bytesOf("_'0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"), bytesOf("0123456789")
)

func bytesOf(s string) (t [256]bool) {
	for i := range len(s) {
		t[s[i]] = true
	}
	return t
}

// init sizes the intern table from len(src), a slot per 16 bytes, between
// 8 and 64: a batch of facts, whose few names recur, reserves no more.
func (l *lexer) init(src string) {
	slots := 8
	for slots < min(len(src)/16, 64) {
		slots *= 2
	}
	*l = lexer{src: src, line: 1, col: 1, tab: make([]ident, slots)}
}

// peek decodes the rune at the current offset (0 past the end).
func (l *lexer) peek() rune {
	if r, n := utf8.DecodeRuneInString(l.src[l.pos:]); n > 0 {
		return r
	}
	return 0
}

// intern returns the slot of the name s of hash h, copying s out of the
// source if it is new.
func (l *lexer) intern(s string, h uint32) int {
	i := l.slot(s, h)
	if l.tab[i].name != "" {
		return i
	}
	if l.n++; 2*l.n > len(l.tab) {
		old := l.tab
		l.tab = make([]ident, 2*len(old))
		for _, e := range old {
			if e.name != "" {
				l.tab[l.slot(e.name, e.hash)] = e
			}
		}
		i = l.slot(s, h)
	}
	if l.names.Len()+len(s) > l.names.Cap() {
		l.names = strings.Builder{}
		l.names.Grow(min(max(16, len(s)), len(l.src)-l.pos+len(s)))
	}
	l.names.WriteString(s)
	all := l.names.String()
	l.tab[i] = ident{name: all[len(all)-len(s):], hash: h}
	return i
}

// slot is the slot of the name s of hash h, or the empty one it would take.
func (l *lexer) slot(s string, h uint32) int {
	mask := uint32(len(l.tab) - 1)
	i := h & mask
	for l.tab[i].name != "" && (l.tab[i].hash != h || l.tab[i].name != s) {
		i = (i + 1) & mask
	}
	return int(i)
}

// arityAgrees records a's arity as its predicate's if no rule atom of the
// predicate came before, and reports whether it agrees with the recorded
// one: Program.Validate's arity check, made as the rules are read.
func (l *lexer) arityAgrees(a ast.Atom) bool {
	h := uint32(fnvOffset)
	for i := range len(a.Pred) {
		h = (h ^ uint32(a.Pred[i])) * fnvPrime
	}
	e := &l.tab[l.intern(a.Pred, h)]
	if e.arity == 0 {
		e.arity = int32(len(a.Args)) + 1
	}
	return int(e.arity) == len(a.Args)+1
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		switch c := l.src[l.pos]; {
		case c == '\n':
			l.pos, l.line, l.col = l.pos+1, l.line+1, 1
		case '\t' <= c && c <= '\r' || c == ' ':
			l.pos, l.col = l.pos+1, l.col+1
		case c == '%' || c == '/' && strings.HasPrefix(l.src[l.pos:], "//"):
			n := strings.IndexByte(l.src[l.pos:], '\n')
			if n < 0 {
				n = len(l.src) - l.pos
			}
			l.col += utf8.RuneCountInString(l.src[l.pos : l.pos+n])
			l.pos += n
		case c >= utf8.RuneSelf && unicode.IsSpace(l.peek()):
			_, n := utf8.DecodeRuneInString(l.src[l.pos:])
			l.pos, l.col = l.pos+n, l.col+1
		default:
			return
		}
	}
}

// next reads the next token into t.
func (l *lexer) next(t *token) error {
	l.skipSpaceAndComments()
	*t = token{pos: ast.Pos{Line: l.line, Col: l.col}, start: l.pos, end: l.pos}
	if l.pos >= len(l.src) {
		return nil
	}
	switch c := l.src[l.pos]; {
	case punct[c] != tokEOF:
		t.kind = punct[c]
		l.pos++
	case c == ':':
		if l.pos++; l.peek() != '-' {
			return errorf(t.pos, "expected ':-' but found ':%c'", l.peek())
		}
		t.kind, l.pos = tokImplies, l.pos+1
	case c == '-' && strings.HasPrefix(l.src[l.pos:], "->"):
		t.kind, l.pos = tokArrow, l.pos+2
	case c == '-':
		// Negative integer literal.
		if l.pos++; !unicode.IsDigit(l.peek()) {
			return errorf(t.pos, "expected '->' or digit after '-'")
		}
		t.kind = tokInt
		l.lexWord(&digitBytes, unicode.IsDigit)
	case c == '"' || c == '\'':
		// A quoted constant, decoded into str, a malformed byte as U+FFFD.
		var sb strings.Builder
		for l.pos++; ; {
			r, n := utf8.DecodeRuneInString(l.src[l.pos:])
			if n == 0 {
				return errorf(t.pos, "unterminated string literal")
			} else if r == '\n' {
				return errorf(t.pos, "newline in string literal")
			} else if l.pos, l.col = l.pos+n, l.col-(n-1); r == rune(c) {
				break
			}
			sb.WriteRune(r)
		}
		t.kind, l.str = tokString, sb.String()
	case c == '_' || 'a' <= c|0x20 && c|0x20 <= 'z' || c >= utf8.RuneSelf && unicode.IsLetter(l.peek()):
		h := l.lexWord(&identBytes, isIdentRune)
		t.kind, t.id = tokIdent, l.intern(l.src[t.start:l.pos], h)
	case '0' <= c && c <= '9' || c >= utf8.RuneSelf && unicode.IsDigit(l.peek()):
		t.kind = tokInt
		l.lexWord(&digitBytes, unicode.IsDigit)
	default:
		return errorf(t.pos, "unexpected character %q", l.peek())
	}
	l.col += l.pos - t.start
	t.end = l.pos
	return nil
}

func isIdentRune(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) }

// lexWord advances past the ASCII bytes in marks and the wider runes that
// accepts takes, hashing them, and takes each wide rune's bytes beyond its
// first off col in advance.
func (l *lexer) lexWord(in *[256]bool, accepts func(rune) bool) uint32 {
	src, i, h := l.src, l.pos, uint32(fnvOffset)
	for i < len(src) {
		if c := src[i]; in[c] {
			h = (h ^ uint32(c)) * fnvPrime
			i++
			continue
		} else if c < utf8.RuneSelf {
			break
		}
		r, n := utf8.DecodeRuneInString(src[i:])
		if !accepts(r) {
			break
		}
		for _, b := range []byte(src[i : i+n]) {
			h = (h ^ uint32(b)) * fnvPrime
		}
		i, l.col = i+n, l.col-(n-1)
	}
	l.pos = i
	return h
}
