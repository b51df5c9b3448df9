package ast

import (
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

// canonicalRule renders r with variables renamed to v0, v1, … in order of
// first occurrence (head, then body, then negated body). The rendering is
// injective on rules-up-to-renaming: predicates cannot contain the
// separator characters, every atom is parenthesized, and constants render
// through their numeric identity.
func canonicalRule(sb *strings.Builder, r Rule) {
	names := make(map[string]int)
	writeAtom := func(a Atom) {
		sb.WriteString(a.Pred)
		sb.WriteByte('(')
		for i, t := range a.Args {
			if i > 0 {
				sb.WriteByte(',')
			}
			if t.IsVar {
				id, ok := names[t.Name]
				if !ok {
					id = len(names)
					names[t.Name] = id
				}
				sb.WriteByte('v')
				sb.WriteString(strconv.Itoa(id))
			} else {
				sb.WriteByte('#')
				sb.WriteString(strconv.FormatInt(int64(t.Val), 10))
			}
		}
		sb.WriteByte(')')
	}
	writeAtom(r.Head)
	sb.WriteString(":-")
	for i, a := range r.Body {
		if i > 0 {
			sb.WriteByte(',')
		}
		writeAtom(a)
	}
	for _, a := range r.NegBody {
		sb.WriteString(",!")
		writeAtom(a)
	}
}

// CanonicalString renders the rule in canonical form — variables normalized
// to v0, v1, … by first occurrence. Rules equal up to variable renaming, and
// only those, share the string. The containment layer keys content-addressed
// verdicts by it: r ⊑ᵘ P is invariant under renaming r's variables.
func (r Rule) CanonicalString() string {
	var sb strings.Builder
	canonicalRule(&sb, r)
	return sb.String()
}

// CanonicalString renders the program in canonical form: one rule per line,
// each rule's variables normalized by first occurrence. Programs equal up to
// per-rule variable renaming — and only those — share the string.
func (p *Program) CanonicalString() string {
	var sb strings.Builder
	sb.Grow(64 * len(p.Rules))
	for _, r := range p.Rules {
		canonicalRule(&sb, r)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CanonicalHash returns a 64-bit FNV-1a hash of the canonical string — the
// program's content address. Hash equality does not by itself guarantee
// canonical equality; consumers that cannot tolerate a collision (the plan
// cache) must compare CanonicalString on hash hits.
func (p *Program) CanonicalHash() uint64 {
	return HashString(p.CanonicalString())
}

// HashString is 64-bit FNV-1a, shared by the plan cache so its option
// fingerprints hash identically to program content.
func HashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}
