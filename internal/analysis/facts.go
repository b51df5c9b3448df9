package analysis

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/depgraph"
	"repro/internal/parser"
)

// Context carries the program under analysis plus shared computed facts.
// Passes pull facts through the lazy accessors (Graph, Sites, Preds), so a
// filtered pass list pays only for what it uses, and each fact is computed
// once per run however many passes consume it.
type Context struct {
	Program *ast.Program
	Facts   []ast.GroundAtom
	FactPos []ast.Pos
	TGDs    []ast.TGD
	Symbols *ast.SymbolTable

	sites   []Site
	graph   *depgraph.Graph
	preds   map[string]*PredUse
	order   []string
	term    depgraph.Classification
	termSet bool
}

// Termination returns the chase-termination classification of the source's
// rules and tgds (see depgraph.ClassifyTGDs), computed once per context.
func (c *Context) Termination() depgraph.Classification {
	if !c.termSet {
		var rules []ast.Rule
		if c.Program != nil {
			rules = c.Program.Rules
		}
		c.term = depgraph.ClassifyTGDs(rules, c.TGDs)
		c.termSet = true
	}
	return c.term
}

// NewContext builds a Context from a parse result (use parser.ParseLoose so
// the analyzer sees ill-formed programs instead of a parse-stage rejection).
func NewContext(res *parser.Result) *Context {
	return &Context{
		Program: res.Program,
		Facts:   res.Facts,
		FactPos: res.FactPos,
		TGDs:    res.TGDs,
		Symbols: res.Symbols,
	}
}

// SiteKind says where an atom occurrence sits.
type SiteKind int

const (
	SiteFact SiteKind = iota
	SiteHead
	SiteBody
	SiteNeg
	SiteTGDLhs
	SiteTGDRhs
)

// Site is one atom occurrence: its kind, the index of its statement within
// that kind (rule, tgd or fact index), the atom, and a resolved position
// (the atom's own, falling back to the enclosing rule's).
type Site struct {
	Kind  SiteKind
	Index int
	Atom  ast.Atom
	Pos   ast.Pos
}

// Sites returns every atom occurrence of the source in position order
// (facts, rule heads, bodies, negated bodies, tgd sides), computed once.
// Position order matters: "first occurrence" diagnostics should point at
// whatever the reader meets first, even though facts, rules and tgds are
// stored in separate slices.
func (c *Context) Sites() []Site {
	if c.sites != nil {
		return c.sites
	}
	var sites []Site
	for i, g := range c.Facts {
		a := g.Atom()
		if i < len(c.FactPos) {
			a.Pos = c.FactPos[i]
		}
		sites = append(sites, Site{Kind: SiteFact, Index: i, Atom: a, Pos: a.Pos})
	}
	pos := func(a ast.Atom, r ast.Rule) ast.Pos {
		if a.Pos.IsValid() {
			return a.Pos
		}
		return r.Pos
	}
	for i, r := range c.Program.Rules {
		sites = append(sites, Site{Kind: SiteHead, Index: i, Atom: r.Head, Pos: pos(r.Head, r)})
		for _, a := range r.Body {
			sites = append(sites, Site{Kind: SiteBody, Index: i, Atom: a, Pos: pos(a, r)})
		}
		for _, a := range r.NegBody {
			sites = append(sites, Site{Kind: SiteNeg, Index: i, Atom: a, Pos: pos(a, r)})
		}
	}
	for i, t := range c.TGDs {
		for _, a := range t.Lhs {
			sites = append(sites, Site{Kind: SiteTGDLhs, Index: i, Atom: a, Pos: a.Pos})
		}
		for _, a := range t.Rhs {
			sites = append(sites, Site{Kind: SiteTGDRhs, Index: i, Atom: a, Pos: a.Pos})
		}
	}
	sort.SliceStable(sites, func(i, j int) bool { return sites[i].Pos.Before(sites[j].Pos) })
	c.sites = sites
	return sites
}

// Graph returns the dependence graph of the program, built once.
func (c *Context) Graph() *depgraph.Graph {
	if c.graph == nil {
		c.graph = depgraph.Build(c.Program)
	}
	return c.graph
}

// PredUse aggregates how one predicate is used across the source.
type PredUse struct {
	// HeadRules indexes the rules with this head predicate.
	HeadRules []int
	// BodyUses / NegUses / TGDUses count occurrences in positive rule
	// bodies, negated rule bodies, and either side of a tgd.
	BodyUses int
	NegUses  int
	TGDUses  int
	// FactCount counts source facts; FirstFactPos locates the first.
	FirstFactPos ast.Pos
	FactCount    int
}

// Preds returns per-predicate usage, computed once from Sites.
func (c *Context) Preds() map[string]*PredUse {
	if c.preds != nil {
		return c.preds
	}
	c.preds = make(map[string]*PredUse)
	for _, s := range c.Sites() {
		u, ok := c.preds[s.Atom.Pred]
		if !ok {
			u = &PredUse{}
			c.preds[s.Atom.Pred] = u
			c.order = append(c.order, s.Atom.Pred)
		}
		switch s.Kind {
		case SiteFact:
			if u.FactCount == 0 {
				u.FirstFactPos = s.Pos
			}
			u.FactCount++
		case SiteHead:
			u.HeadRules = append(u.HeadRules, s.Index)
		case SiteBody:
			u.BodyUses++
		case SiteNeg:
			u.NegUses++
		case SiteTGDLhs, SiteTGDRhs:
			u.TGDUses++
		}
	}
	return c.preds
}

// PredNames returns the predicates in first-occurrence order (the iteration
// order passes use, keeping diagnostics deterministic).
func (c *Context) PredNames() []string {
	c.Preds()
	return c.order
}

// rulePos resolves the reporting position of rule i (its head atom's, or
// the rule's own).
func (c *Context) rulePos(i int) ast.Pos {
	r := c.Program.Rules[i]
	if r.Head.Pos.IsValid() {
		return r.Head.Pos
	}
	return r.Pos
}

// atomPos resolves an atom's reporting position with the enclosing rule as
// fallback.
func atomPos(a ast.Atom, r ast.Rule) ast.Pos {
	if a.Pos.IsValid() {
		return a.Pos
	}
	return r.Pos
}

// format renders an atom through the source's symbol table when available.
func (c *Context) format(a ast.Atom) string { return a.Format(c.Symbols) }
