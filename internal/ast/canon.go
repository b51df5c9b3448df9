package ast

import (
	"slices"
	"strconv"
	"strings"
)

// Canonical forms give programs a content address: two programs share a
// canonical string exactly when they are identical up to per-rule variable
// renaming. The plan cache (internal/eval) keys prepared evaluation plans by
// a hash of this string, so syntactically distinct but alpha-equivalent
// subprograms — which the Fig. 1/2 minimization loops generate in bulk while
// probing candidate deletions — resolve to the same plan.
//
// Rule order and body-atom order are deliberately NOT canonicalized: rule
// order determines the prepared schedule's tie-breaking, and body order is
// where the static join orders start from (ties in the greedy order go to the
// earlier atom) and so decides the order facts are emitted in. Two programs
// that differ only in ordering get distinct (but equally valid) plans, each
// byte-identical to its own one-shot evaluation.

// AppendCanonical appends r's canonical form to dst and returns the
// extended buffer: variables renamed to v0, v1, … in order of first
// occurrence (head, then body, then negated body). The rendering is
// injective on rules-up-to-renaming: predicates cannot contain the
// separator characters, every atom is parenthesized, and constants render
// through their numeric identity. A key built into a reused buffer costs no
// allocation: variables are numbered by a scan of a stack-backed slice.
func (r Rule) AppendCanonical(dst []byte) []byte {
	var stack [16]string
	names := stack[:0]
	dst, names = appendCanonicalAtom(dst, names, r.Head)
	dst = append(dst, ":-"...)
	for i, a := range r.Body {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst, names = appendCanonicalAtom(dst, names, a)
	}
	for _, a := range r.NegBody {
		dst = append(dst, ",!"...)
		dst, names = appendCanonicalAtom(dst, names, a)
	}
	return dst
}

// appendCanonicalAtom appends a's canonical form, numbering each variable by
// its index in names and appending the variables it sees first.
func appendCanonicalAtom(dst []byte, names []string, a Atom) ([]byte, []string) {
	dst = append(dst, a.Pred...)
	dst = append(dst, '(')
	for i, t := range a.Args {
		if i > 0 {
			dst = append(dst, ',')
		}
		if t.IsVar {
			id := slices.Index(names, t.Name)
			if id < 0 {
				id = len(names)
				names = append(names, t.Name)
			}
			dst = append(dst, 'v')
			dst = strconv.AppendInt(dst, int64(id), 10)
		} else {
			dst = append(dst, '#')
			dst = strconv.AppendInt(dst, int64(t.Val), 10)
		}
	}
	return append(dst, ')'), names
}

// CanonicalString renders the rule in canonical form — variables normalized
// to v0, v1, … by first occurrence. Rules equal up to variable renaming, and
// only those, share the string. The containment layer keys content-addressed
// verdicts by it: r ⊑ᵘ P is invariant under renaming r's variables.
func (r Rule) CanonicalString() string {
	var buf [128]byte
	return string(r.AppendCanonical(buf[:0]))
}

// CanonicalString renders the program in canonical form: one rule per line,
// each rule's variables normalized by first occurrence. Programs equal up to
// per-rule variable renaming — and only those — share the string.
func (p *Program) CanonicalString() string {
	var sb strings.Builder
	sb.Grow(64 * len(p.Rules))
	var tmp [128]byte
	for _, r := range p.Rules {
		sb.Write(r.AppendCanonical(tmp[:0]))
		sb.WriteByte('\n')
	}
	return sb.String()
}
