package analysis

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/workload"
)

// analyze parses loosely and runs all passes.
func analyze(t *testing.T, src string) []Diagnostic {
	t.Helper()
	res, err := parser.ParseLoose(src)
	if err != nil {
		t.Fatalf("ParseLoose: %v", err)
	}
	return Analyze(res)
}

// want asserts exactly one diagnostic with the code exists and returns it.
func want(t *testing.T, ds []Diagnostic, code string) Diagnostic {
	t.Helper()
	var found []Diagnostic
	for _, d := range ds {
		if d.Code == code {
			found = append(found, d)
		}
	}
	if len(found) != 1 {
		t.Fatalf("want exactly one %s, got %d in %v", code, len(found), ds)
	}
	return found[0]
}

func wantNone(t *testing.T, ds []Diagnostic, code string) {
	t.Helper()
	for _, d := range ds {
		if d.Code == code {
			t.Fatalf("unexpected %s: %s", code, d)
		}
	}
}

func TestSafetyPass(t *testing.T) {
	ds := analyze(t, "P(x, z) :- E(x, y).\n")
	d := want(t, ds, CodeUnboundHead)
	if d.Severity != Error || d.Pos != (ast.Pos{Line: 1, Col: 1}) {
		t.Fatalf("bad diagnostic: %+v", d)
	}
	if !strings.Contains(d.Message, "z") {
		t.Fatalf("message does not name the variable: %s", d.Message)
	}

	ds = analyze(t, "Q(x) :- E(x, y), !R(x, w).\n")
	d = want(t, ds, CodeUnsafeNegation)
	if d.Pos != (ast.Pos{Line: 1, Col: 19}) {
		t.Fatalf("negated-atom position = %v, want 1:19", d.Pos)
	}

	wantNone(t, analyze(t, "P(x) :- E(x, y), !R(x, y).\n"), CodeUnsafeNegation)
}

func TestStratifyPass(t *testing.T) {
	ds := analyze(t, "P(x) :- E(x), !Q(x).\nQ(x) :- E(x), P(x).\n")
	d := want(t, ds, CodeNotStratifiable)
	if d.Severity != Error || d.Pos != (ast.Pos{Line: 1, Col: 16}) {
		t.Fatalf("bad diagnostic: %+v", d)
	}
	if !strings.Contains(d.Message, "Q → P → Q") {
		t.Fatalf("missing witness cycle: %s", d.Message)
	}
	if len(d.Related) == 0 {
		t.Fatalf("no related positions for the cycle edges")
	}

	// Stratifiable negation is clean.
	wantNone(t, analyze(t, "P(x) :- E(x), !Q(x).\nQ(x) :- F(x).\n"), CodeNotStratifiable)
}

func TestArityPass(t *testing.T) {
	ds := analyze(t, "E(1, 2).\nE(1, 2, 3).\nP(x) :- E(x, y).\n")
	d := want(t, ds, CodeArity)
	if d.Severity != Error || d.Pos != (ast.Pos{Line: 2, Col: 1}) {
		t.Fatalf("bad diagnostic: %+v", d)
	}
	if len(d.Related) != 1 || d.Related[0].Pos != (ast.Pos{Line: 1, Col: 1}) {
		t.Fatalf("related should point at the first occurrence: %+v", d.Related)
	}
}

func TestConstTypePass(t *testing.T) {
	ds := analyze(t, "Name(\"ann\").\nName(7).\nP(x) :- Name(x).\n")
	d := want(t, ds, CodeConstType)
	if d.Severity != Warning || d.Pos != (ast.Pos{Line: 2, Col: 1}) {
		t.Fatalf("bad diagnostic: %+v", d)
	}
	// Consistent columns are clean, including multiple symbolics.
	wantNone(t, analyze(t, "Name(\"ann\").\nName(\"bob\").\nP(x) :- Name(x).\n"), CodeConstType)
}

func TestReachabilityPass(t *testing.T) {
	src := "P(x) :- Q(x).\nQ(x) :- P(x).\nOrphan(1, 2).\nR(x) :- E(x).\n"
	ds := analyze(t, src)
	var underivable []string
	for _, d := range ds {
		if d.Code == CodeUnderivable {
			underivable = append(underivable, d.Message[:1])
		}
	}
	if len(underivable) != 2 {
		t.Fatalf("want P and Q underivable, got %v in %v", underivable, ds)
	}
	found := 0
	for _, d := range ds {
		if d.Code == CodeUnusedPred {
			found++
			switch {
			case strings.Contains(d.Message, "Orphan"):
				if d.Severity != Warning || d.Pos != (ast.Pos{Line: 3, Col: 1}) {
					t.Fatalf("bad orphan diagnostic: %+v", d)
				}
			case strings.Contains(d.Message, "R "):
				if d.Severity != Info {
					t.Fatalf("head-only predicate should be info: %+v", d)
				}
			}
		}
	}
	if found < 2 {
		t.Fatalf("missing unused-predicate findings in %v", ds)
	}

	// A base case makes the component derivable.
	wantNone(t, analyze(t, "P(x) :- Q(x).\nQ(x) :- P(x).\nQ(x) :- E(x).\nS(x) :- P(x).\n"), CodeUnderivable)
	// Facts for a derived predicate seed it.
	wantNone(t, analyze(t, "P(1).\nP(x) :- P(x).\nS(x) :- P(x).\n"), CodeUnderivable)
}

func TestSingletonPass(t *testing.T) {
	ds := analyze(t, "Q(x) :- E(x, y).\n")
	d := want(t, ds, CodeSingletonVar)
	if d.Severity != Warning || d.Pos != (ast.Pos{Line: 1, Col: 9}) {
		t.Fatalf("bad diagnostic: %+v", d)
	}
	// The anonymous variable is exempt.
	wantNone(t, analyze(t, "Q(x) :- E(x, _).\n"), CodeSingletonVar)
	// A head-only variable is DL0001, not a singleton.
	wantNone(t, analyze(t, "Q(x, z) :- E(x, x).\n"), CodeSingletonVar)
}

func TestProductPass(t *testing.T) {
	ds := analyze(t, "P(x, z) :- E(x, y), F(z, w), G(w, u).\n")
	d := want(t, ds, CodeCartesianProduct)
	if d.Severity != Warning || d.Pos != (ast.Pos{Line: 1, Col: 21}) {
		t.Fatalf("bad diagnostic: %+v", d)
	}
	// Transitive sharing connects; ground guards don't count as groups.
	wantNone(t, analyze(t, "P(x, z) :- E(x, y), F(y, z).\n"), CodeCartesianProduct)
	wantNone(t, analyze(t, "P(x, x) :- E(x, x), F(1, 2).\n"), CodeCartesianProduct)
}

func TestSubsumptionPass(t *testing.T) {
	src := "G(x, z) :- A(x, z).\nG(u, w) :- A(u, w).\nG(x, z) :- A(x, z), A(z, z).\n"
	ds := analyze(t, src)
	dup := want(t, ds, CodeDuplicateRule)
	if dup.Pos != (ast.Pos{Line: 2, Col: 1}) {
		t.Fatalf("duplicate flagged at %v, want line 2", dup.Pos)
	}
	sub := want(t, ds, CodeSubsumedRule)
	if sub.Pos != (ast.Pos{Line: 3, Col: 1}) {
		t.Fatalf("subsumed flagged at %v, want line 3", sub.Pos)
	}
	if len(sub.Related) != 1 || sub.Related[0].Pos != (ast.Pos{Line: 1, Col: 1}) {
		t.Fatalf("subsumed should relate to rule 1: %+v", sub.Related)
	}

	// TC's two rules do not subsume each other.
	wantNone(t, analyze(t, "G(x, z) :- A(x, z).\nG(x, z) :- G(x, y), G(y, z).\n"), CodeSubsumedRule)
}

func TestTGDPass(t *testing.T) {
	// Example 11's tgd anchors cleanly: no finding.
	clean := "G(x, z) :- A(x, z).\nG(x, z) :- A(x, y), G(y, z), A(y, w).\nG(x, z) -> A(x, w).\n"
	wantNone(t, analyze(t, clean), CodeTGDCandidate)

	// Anchors, but the matched existential occurs in the head (prop 3) —
	// and prop 1 fails too (LHS is not the head predicate).
	bad := "H(x, z) :- G(x, y), G(y, z).\nG(x, y) -> G(y, z).\n"
	d := want(t, analyze(t, bad), CodeTGDCandidate)
	if d.Severity != Warning {
		t.Fatalf("violating tgd should warn: %+v", d)
	}
	if !strings.Contains(d.Message, "property 1") || !strings.Contains(d.Message, "property 3") {
		t.Fatalf("message should cite properties 1 and 3: %s", d.Message)
	}

	// Matches no rule at all: info.
	none := "G(x, z) :- A(x, z).\nB(x, y) -> C(y, z).\n"
	d = want(t, analyze(t, none), CodeTGDCandidate)
	if d.Severity != Info {
		t.Fatalf("unanchored tgd should be info: %+v", d)
	}
}

func TestDiagnosticsSortedAndStable(t *testing.T) {
	src := "P(x, z) :- E(x, y).\nQ(x) :- E(x, y), !R(x, w).\n"
	first := analyze(t, src)
	second := analyze(t, src)
	if len(first) != len(second) {
		t.Fatalf("unstable diagnostic count: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].String() != second[i].String() {
			t.Fatalf("unstable output at %d: %s vs %s", i, first[i], second[i])
		}
		if i > 0 && first[i].Pos.Before(first[i-1].Pos) {
			t.Fatalf("diagnostics out of order: %s before %s", first[i-1], first[i])
		}
	}
}

func TestAnalyzeProgramWithoutPositions(t *testing.T) {
	p := ast.NewProgram(
		ast.NewRule(ast.NewAtom("P", ast.Var("x"), ast.Var("z")),
			ast.NewAtom("E", ast.Var("x"), ast.Var("y"))),
	)
	ds := Run(&Context{Program: p}, Passes())
	d := want(t, ds, CodeUnboundHead)
	if d.Pos.IsValid() {
		t.Fatalf("programmatic rule should have unknown position, got %v", d.Pos)
	}
	if !HasErrors(ds) {
		t.Fatal("HasErrors should see the range-restriction error")
	}
}

func TestCleanProgramHasNoFindings(t *testing.T) {
	src := "Anc(x, y) :- Par(x, y).\nAnc(x, z) :- Par(x, y), Anc(y, z).\nPar(1, 2).\nPar(2, 3).\nOut(x) :- Anc(1, x).\n"
	for _, d := range analyze(t, src) {
		if d.Severity != Info {
			t.Fatalf("clean program produced %s", d)
		}
	}
}

func TestPassesMetadata(t *testing.T) {
	ps := Passes()
	if len(ps) < 8 {
		t.Fatalf("want at least 8 passes, got %d", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if p.Name == "" || p.Doc == "" || p.Run == nil || seen[p.Name] {
			t.Fatalf("bad pass metadata: %+v", p)
		}
		seen[p.Name] = true
	}
}

// naiveSubsumption is the pre-bucketing reference: the all-pairs sweep with
// flag-once semantics, kept here as the oracle for the head-indexed pass.
func naiveSubsumption(c *Context) []Diagnostic {
	rules := c.Program.Rules
	canon := make([]string, len(rules))
	for i, r := range rules {
		canon[i] = r.CanonicalString()
	}
	flagged := make(map[int]bool)
	var out []Diagnostic
	flag := func(victim, by int, dup bool) {
		if flagged[victim] {
			return
		}
		flagged[victim] = true
		code, msg, rel := CodeSubsumedRule,
			"rule is θ-subsumed by rule %d; deleting it preserves uniform equivalence", "subsuming rule here"
		if dup {
			code, msg, rel = CodeDuplicateRule,
				"rule duplicates rule %d (identical up to variable renaming)", "first occurrence here"
		}
		out = append(out, Diagnostic{
			Code: code, Severity: Warning, Pos: c.rulePos(victim),
			Message: fmt.Sprintf(msg, by+1),
			Related: []RelatedPos{{Pos: c.rulePos(by), Message: rel}},
		})
	}
	for i := range rules {
		for j := i + 1; j < len(rules); j++ {
			switch {
			case canon[i] == canon[j]:
				flag(j, i, true)
			case ast.SubsumesRule(rules[i], rules[j]):
				flag(j, i, false)
			case ast.SubsumesRule(rules[j], rules[i]):
				flag(i, j, false)
			}
		}
	}
	return out
}

// TestSubsumptionBucketingEquivalence checks the head-predicate index
// changes nothing observable: on random programs with injected duplicate and
// subsumed rules the bucketed pass reports exactly the reference's findings.
func TestSubsumptionBucketingEquivalence(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := workload.RandomProgram(rng, 1+rng.Intn(5))
		p = workload.InjectRedundantRules(p, rng.Intn(4), rng)
		// Shuffle so victims and subsumers interleave across head buckets.
		rng.Shuffle(len(p.Rules), func(i, j int) { p.Rules[i], p.Rules[j] = p.Rules[j], p.Rules[i] })
		c := &Context{Program: p}
		got := runSubsumption(c)
		want := naiveSubsumption(c)
		SortDiagnostics(got)
		SortDiagnostics(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: bucketed pass differs from all-pairs reference\ngot:  %v\nwant: %v\nprogram:\n%s",
				seed, got, want, p)
		}
	}
}

// TestSubsumptionBucketScaling pins the index's scaling property: a program
// whose rules all have distinct head predicates yields only singleton
// buckets, so the pass performs zero SubsumesRule calls — where the all-pairs
// sweep would do ~n²/2 — and large `datalog vet` runs stay effectively
// linear in this pass.
func TestSubsumptionBucketScaling(t *testing.T) {
	const n = 5000
	p := ast.NewProgram()
	for i := 0; i < n; i++ {
		p.Rules = append(p.Rules,
			parser.MustParseProgram(fmt.Sprintf("P%d(x, y) :- E(x, y), F(y, x).\n", i)).Rules...)
	}
	for _, b := range subsumptionBuckets(p.Rules) {
		if len(b) != 1 {
			t.Fatalf("distinct-head program produced a bucket of size %d", len(b))
		}
	}
	start := time.Now()
	if ds := runSubsumption(&Context{Program: p}); len(ds) != 0 {
		t.Fatalf("distinct-head program produced findings: %v", ds[:1])
	}
	// Generous bound: the bucketed pass is a few ms here; the quadratic scan
	// was tens of seconds.
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("subsumption pass took %v on %d distinct-head rules", d, n)
	}

	// Arity splits buckets too: same predicate name, different arity (the
	// rules are concatenated from two programs; a single source would be
	// rejected by arity validation before this pass could see it).
	mixed := append(
		parser.MustParseProgram("Q(x) :- E(x, x).\n").Rules,
		parser.MustParseProgram("Q(x, y) :- E(x, y).\n").Rules...)
	if got := len(subsumptionBuckets(mixed)); got != 2 {
		t.Fatalf("arity-distinct heads share a bucket: %d buckets, want 2", got)
	}
}
