package parser

import (
	"fmt"
	"testing"

	"repro/internal/ast"
)

// FuzzParse checks the parser's robustness (no panics on arbitrary input),
// that it agrees with the oracle (diffOracle) on every input, that every
// input that parses has its positions in source order, and the printer
// round-trip on every input that parses. With `go test`
// only the seed corpus runs; `go test -fuzz=FuzzParse` explores further.
func FuzzParse(f *testing.F) {
	for _, seed := range parseSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if diff := diffOracle(src); diff != "" {
			t.Fatal(diff)
		}
		res, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := checkPositionOrder(res); err != nil {
			t.Fatalf("%v\ninput: %q", err, src)
		}
		// Anything accepted must round-trip through the printer.
		printed := res.Program.String()
		for _, fact := range res.Facts {
			printed += fact.String() + ".\n"
		}
		for _, tgd := range res.TGDs {
			printed += tgd.String() + "\n"
		}
		if _, err := Parse(printed); err != nil {
			t.Fatalf("printed form does not reparse: %v\ninput: %q\nprinted: %q", err, src, printed)
		}
	})
}

// checkPositionOrder reports a position of res that is unknown or out of
// source order: rules, facts and tgds each in order, and within a rule or
// tgd its atoms (a rule's positive and negated atoms each after its head).
func checkPositionOrder(res *Result) error {
	inOrder := func(what string, ps []ast.Pos) error {
		for i, p := range ps {
			if !p.IsValid() || i > 0 && p.Before(ps[i-1]) {
				return fmt.Errorf("%s: positions %v out of source order", what, ps)
			}
		}
		return nil
	}
	atomPos := func(atoms ...[]ast.Atom) []ast.Pos {
		var ps []ast.Pos
		for _, as := range atoms {
			for _, a := range as {
				ps = append(ps, a.Pos)
			}
		}
		return ps
	}
	var rules, tgds []ast.Pos
	for _, r := range res.Program.Rules {
		rules = append(rules, r.Pos)
		if r.Pos != r.Head.Pos {
			return fmt.Errorf("rule %s at %s, its head at %s", r, r.Pos, r.Head.Pos)
		}
		head := []ast.Atom{r.Head}
		if err := inOrder(r.String(), atomPos(head, r.Body)); err != nil {
			return err
		}
		if err := inOrder(r.String(), atomPos(head, r.NegBody)); err != nil {
			return err
		}
	}
	for _, tgd := range res.TGDs {
		tgds = append(tgds, tgd.Lhs[0].Pos)
		if err := inOrder(tgd.String(), atomPos(tgd.Lhs, tgd.Rhs)); err != nil {
			return err
		}
	}
	for what, ps := range map[string][]ast.Pos{"rules": rules, "facts": res.FactPos, "tgds": tgds} {
		if err := inOrder(what, ps); err != nil {
			return err
		}
	}
	return nil
}
