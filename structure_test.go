package repro

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The structure guards: each keeps one implementation of a procedure or layer
// by keeping its deleted rivals deleted. A rule checks parsed source, so a
// comment can neither trip nor satisfy it. It must reject each of its plants
// (in-memory files, "path: code" a line) and accept each with its code
// commented out, so it cannot go blind unnoticed.
var guards = []struct {
	name, why string
	rules     []rule
}{
	{"one-join", "the join kernel is the only join that ships: nothing shipped links internal/oracle, internal/db exports no matcher, and eval, chase and preserve join through no ast.Binding", []rule{
		{linked("internal/oracle", in("cmd", "examples", "internal/core", "internal/service", "internal/harness")), []string{`internal/explain/planted.go: import _ "repro/internal/oracle/topdown"`}},
		{forbid(names, `^import "repro/internal/oracle`, in("internal", "cmd", "examples").but("internal/oracle")), []string{`cmd/datalog/planted.go: import _ "repro/internal/oracle/cq"`}},
		{forbid(decls, `^(\w+\.)?(Match\w*|Satisfiable|OrderForJoin\w*)\(`, in("internal/db")), []string{"internal/db/planted.go: func MatchAtom() {}", "internal/db/planted.go: func (r *Relation) MatchAny() {}"}},
		{forbid(decls, `.`, in("internal/db/match.go", "internal/topdown")), []string{"internal/db/match.go: func f() {}", "internal/topdown/planted.go: func f() {}"}},
		{forbid(names, `^ast\.Binding|MustGround`, in("internal/eval")), []string{"internal/eval/planted.go: var _ ast.Binding"}},
		{forbid(names, `MatchGround|^Unify$`, in("internal/chase", "internal/preserve")), []string{"internal/preserve/planted.go: var _ = b.Unify(a)"}},
	}},
	{"ctx-arg", "a context is an argument, never stored but in roundEnv and fixpointSink; the deleted evaluation switches stay deleted; internal/eval starts no goroutine and sets no GOMAXPROCS: concurrency is Run's callers'", []rule{
		{forbid(decls, `^[\w.]+ context\.Context$`, in("internal"), "eval.roundEnv.ctx", "eval.fixpointSink.ctx"), []string{"internal/eval/stream.go: type planted struct{ ctx context.Context }", "internal/service/planted.go: var ctx context.Context"}},
		{forbid(names, `SetContext|^(Strategy|NoReorder|NoSCCOrder|ForceDRed|Shards|ShardView|EnsureShardView|runSharded|shardSink|partitionCols|HashTuple)$`, in("internal", "cmd", "examples")), []string{"internal/eval/planted.go: type Options struct{ Shards int }", "internal/chase/planted.go: func (c *Checker) SetContext() {}"}},
		{forbid(code|names, `^go |^runtime\.GOMAXPROCS$`, in("internal/eval")), []string{"internal/eval/rounds.go: func f() { go func() {}() }", "internal/eval/rounds.go: func f() { go env.runRound(nil) }", "internal/eval/planted.go: var _ = runtime.GOMAXPROCS(1)"}},
	}},
	{"no-batch-compact", "when to compact is internal/db's decision: internal/eval and internal/service call no Compact", []rule{
		{forbid(callees, `\.Compact$`, in("internal/eval", "internal/service")), []string{"internal/service/planted.go: func f() { rel.Compact() }"}},
	}},
	{"delta-first", "a delta variant is led by its delta atom: no swapped plan or second merge key in internal/eval, and no probe or lookup in stream.go skips ids below a lower bound", []rule{
		{forbid(names, `^(swapped|lowerSwapped|atomsShareVar|tagInner|k2)$`, in("internal/eval")), []string{"internal/eval/planted.go: var k2 uint64"}},
		{forbid(code, `\btid\)? < st\.lo`, in("internal/eval/stream.go")), []string{"internal/eval/stream.go: var _ = int(tid) < st.lo[pos]"}},
	}},
	{"request-path", "requests enter through verb, evaluations through verbEval's memo miss and database versions leave by mutate's slide of the retention window: one call site each, no lock or ResponseWriter in a verb, nothing parsed or rendered under the entry lock, no per-request plan and no retention knob", []rule{
		{once(code|callees, in("internal/service"), `requests\.Add$`, `DisallowUnknownFields$`, `MaxBytesReader$`, `EvalWith$`, `^delete\(t\.versions,`), []string{"internal/service/planted.go: func f() { pv.session.EvalWith(ctx, db, 0) }", "internal/service/planted.go: func f() { delete(t.versions, 0) }"}},
		{forbid(callees, `\.mu\.`, in("internal/service/handlers.go")), []string{"internal/service/handlers.go: func f() { e.mu.Lock() }"}},
		{forbid(decls, `(^|\.)(verb[A-Z]\w*\(.*ResponseWriter|handle[A-Z]\w*\()`, in("internal/service")), []string{"internal/service/planted.go: func (s *Server) verbX(w http.ResponseWriter) {}"}},
		{forbid(names, `^(parse|format|render)\w*Locked$`, in("internal/service")), []string{"internal/service/planted.go: func (e *programEntry) renderLocked() {}"}},
		{forbid(names, `^(EvalRequestOptions|maxRequestShards)$`, in().withTests()), []string{"internal/service/planted_test.go: const maxRequestShards = 4"}},
		{forbid(names, `^retainDBVersions$`, in().but("internal/service/service.go")), []string{"cmd/datalog/planted.go: var _ = service.retainDBVersions"}},
	}},
	{"one-unfold", "an unfolding or a preservation session is only ever built fresh: internal/unfold patches nothing and a preserve.Session has no Derive", []rule{
		{forbid(names, `^(Patch|PatchDelete|Patchable|ErrUnpatchable|cloneFor\w*|expandFrontier|edgeSeen)$`, in("internal/unfold")), []string{"internal/unfold/planted.go: func (u *Unfolding) Patch() {}"}},
		{forbid(decls, `^\w+\.Derive\(`, in("internal/preserve")), []string{"internal/preserve/planted.go: func (s *Session) Derive() {}"}},
	}},
	{"one-preservation", "Sections IX–XI are decided once each: internal/preserve calls checkTGD once, from the one loop over its keyed depth cache; equivopt.Properties alone decides Section XI's properties for the optimizer and datalog vet; and the unfolding cap is internal/unfold's constant, no caller's parameter", []rule{
		{once(callees, in("internal/preserve"), `^checkTGD$`), []string{"internal/preserve/planted.go: func (s *Session) f() { checkTGD(ctx, e.prep, s.idb, nil, tau, chase.Budget{}, e.opts, s.Tally()) }"}},
		{forbid(decls, `^(\w+\.)?(prelimEntry|partialEntry|prelimOptions|combOpts|checkProperties|tgdProblems)\(`, in("internal")), []string{"internal/preserve/planted.go: func (s *Session) prelimEntry(depth int) (*depthEntry, error) { return nil, nil }", "internal/analysis/planted.go: func tgdProblems(t ast.TGD, r ast.Rule, lhsIdx, rhsIdx []int) []string { return nil }"}},
		{forbid(decls, `^(ToDepth|Partial)\([^)]*,[^)]*,`, in("internal/unfold")), []string{"internal/unfold/planted.go: func ToDepth(p *ast.Program, k, maxRules int) (Result, error) { return Result{}, nil }", "internal/unfold/planted.go: func Partial(p *ast.Program, k int, maxRules int) (Result, error) { return Result{}, nil }"}},
	}},
	{"no-ablation-arm", "paths that lost their own benchmark stay deleted: internal/cq, supplementary magic, an exported Checker.Disable switch and minimize's noFastPath", []rule{
		{forbid(decls, `.`, in("internal/cq").withTests()), []string{"internal/cq/planted.go: func Contains() {}"}},
		{forbid(names, `Supplementary|sup@`, in("internal/magic")), []string{"internal/magic/planted.go: func RewriteSupplementary() {}", `internal/magic/planted.go: const prefix = "sup@"`}},
		{forbid(decls, `^Checker\.Disable`, in("internal/chase")), []string{"internal/chase/planted.go: func (c *Checker) DisableSyntactic() {}"}},
		{forbid(names, `noFastPath`, in("internal/minimize").withTests()), []string{"internal/minimize/planted_test.go: var noFastPath bool"}},
	}},
	{"no-transfer", "every stored verdict was computed on its own program: internal/eval records no rule provenance and internal/chase transfers no verdict", []rule{
		{forbid(names, `^(RuleSet|WithoutShifted|prov|ruleIdxs)$`, in("internal/eval")), []string{"internal/eval/planted.go: func (p *Prepared) f(prov []int) {}"}},
		{forbid(names, `^(putAbsent|isWeakening|subMultiset|reachableFrom)$|\.entries$`, in("internal/chase")), []string{"internal/chase/planted.go: func putAbsent() {}", "internal/chase/planted.go: var _ = s.tables.entries()"}},
	}},
	{"one-plan", "each minimization phase runs on one prepared plan: no Derive method in internal/chase or internal/eval, and no chase.Delta", []rule{
		{forbid(decls, `^\w+\.Derive\(`, in("internal/chase", "internal/eval")), []string{"internal/eval/planted.go: func (p *Prepared) Derive() {}"}},
		{forbid(names, `^chase\.Delta$`, in()), []string{"cmd/datalog/planted.go: var _ chase.Delta"}},
		{forbid(decls, `^Delta `, in("internal/chase")), []string{"internal/chase/planted.go: type Delta struct{}"}},
	}},
	{"one-maintenance", "every unit is maintained by DRed: no derivation counting and no count column in the store", []rule{
		{forbid(names, `^(countCol|BumpCount|CountOf|TupleCount|EnableCounts|countingUnit|forceDRed)$`, in("internal")), []string{"internal/db/planted.go: func (r *Relation) BumpCount() {}"}},
	}},
	{"one-graph", "every graph question runs on the one kernel of internal/depgraph: one Tarjan and one in-component path search, no second rule grouping or strata schedule in internal/eval, no cone walk in internal/chase", []rule{
		{forbid(names, `(?i)strongconnect|lowlink|onstack|tarjan`, in("internal", "cmd", "examples").but("internal/depgraph")), []string{"internal/eval/planted.go: var onStack []bool"}},
		{once(code, in("internal/depgraph"), `^lowlink := `, `^strongconnect = \(func`, `^queue := `), []string{"internal/depgraph/planted.go: func f() { lowlink := 0 }"}},
		{forbid(names, `^(sccRuleGroups|scheduleGroups)$`, in("internal")), []string{"internal/eval/planted.go: func sccRuleGroups() {}"}},
		{forbid(callees, `^depgraph\.Strata$`, in("internal/eval")), []string{"internal/eval/planted.go: var _, _ = depgraph.Strata(p)"}},
		{forbid(names, `^(outsideCone|byHead|stack)$`, in("internal/chase")), []string{"internal/chase/planted.go: var stack []int // a stack of pending triggers"}},
	}},
	{"one-magic", "magic.Rewrite adorns the query's stratum with its negated literals in place: no strip-and-reattach fork, and internal/magic strips no NegBody", []rule{
		{forbid(names, `AnswerStratified|sourceRuleIndex|^unadorn$`, in("internal")), []string{"internal/magic/planted.go: func unadorn() {}"}},
		{forbid(code, `\bNegBody = nil$`, in("internal/magic")), []string{"internal/magic/planted.go: func f() { r.NegBody = nil }"}},
	}},
	{"one-cache", "every plan lookup goes through eval.DefaultPlanCache and a program version owns the session it opened: no session registry or options, no struct holding a PlanCache, no eval.NewLineage argument", []rule{
		{forbid(names, `^(SessionOptions|sessionResolve|NewService|core\.Service|core\.NewPlanCache)$`, in("internal", "cmd")), []string{"cmd/datalog/planted.go: var _ core.SessionOptions", "cmd/datalog/planted.go: var _ core.Service", "cmd/datalog/planted.go: var _ = core.NewPlanCache(8)"}},
		{forbid(code|decls, `^\w*\.(PlanCache .*|\w* \*?(eval\.)?PlanCache)$|NewLineage\([^)]`, in("internal", "cmd")), []string{"internal/service/planted.go: type s struct{ cache *eval.PlanCache }", "internal/eval/planted.go: type s struct{ plans *PlanCache }", "internal/core/planted.go: type s struct{ PlanCache int }", "internal/core/planted.go: var _ = eval.NewLineage(nil)"}},
	}},
	{"one-minimize", "minimize.Program takes stratified programs and the checker owns the negation encoding: no encode → minimize → decode fork, no minimize.Options.Valid, no neg@ outside internal/chase", []rule{
		{forbid(names, `^(StratifiedProgram|MinimizeStratified|EncodeNegation|EncodeRuleNegation|DecodeRuleNegation|decodeNegation|mustDecodeRule)$`, in("internal", "cmd", "examples")), []string{"internal/minimize/planted.go: func MinimizeStratified() {}"}},
		{forbid(decls, `^\w*\.Valid `, in("internal/minimize")), []string{"internal/minimize/planted.go: type Options struct{ Valid func() bool }"}},
		{forbid(names, `neg@`, in("internal", "cmd", "examples").but("internal/chase")), []string{`internal/minimize/planted.go: const prefix = "neg@"`}},
	}},
	{"one-verdict", "Checker.Contains alone decides whether a containment miss is No or Unknown, and Verdict.And alone combines two verdicts: no shipped function outside internal/chase takes a negation switch to choose a containment entry, the deleted entries StratifiedUniformlyContains and UniformlyContainsRule stay deleted, and no shipped code keeps a sawUnknown-style flag or spells a conjunction of verdicts by hand", []rule{
		{forbid(decls, `^(\w+\.)?\w+\(.*\b(neg|negation|negated|stratified) bool\b`, in("internal", "cmd", "examples").but("internal/chase")), []string{"cmd/datalog/planted.go: func containment(a, b *ast.Program, negation bool) (chase.Verdict, int, error) { if negation { return chase.UniformlyContains(a, b) }; return chase.No, 0, nil }"}},
		{forbid(names, `^(chase\.)?(StratifiedUniformlyContains|UniformlyContainsRule)$`, in().withTests()), []string{"internal/chase/planted.go: func StratifiedUniformlyContains() {}", "cmd/datalog/planted_test.go: var _ = chase.UniformlyContainsRule"}},
		{forbid(code, `(?i)^\w*unknown\w* :?= (true|false)$|== (chase\.)?No \|\| \w+ == (chase\.)?No$|== (chase\.)?Yes && \w+ == (chase\.)?Yes$`, in()), []string{"internal/preserve/planted.go: func f(vs []chase.Verdict) chase.Verdict { sawUnknown := false; for _, v := range vs { if v == chase.Unknown { sawUnknown = true } }; if sawUnknown { return chase.Unknown }; return chase.Yes }", "cmd/datalog/planted.go: func equivalence(v12, v21 chase.Verdict) chase.Verdict { switch { case v12 == chase.No || v21 == chase.No: return chase.No; case v12 == chase.Yes && v21 == chase.Yes: return chase.Yes }; return chase.Unknown }"}},
	}},
	{"one-clock", "a time cell is an Op, timed by go test -bench and read from BENCH_eval.json: internal/harness and cmd/experiments import no time and have no timed( stopwatch", []rule{
		{forbid(names, `^import "time"$`, in("internal/harness", "cmd/experiments")), []string{`cmd/experiments/planted.go: import "time"`}},
		{forbid(callees|decls, `^timed($|\()`, in("internal/harness", "cmd/experiments").withTests()), []string{"internal/harness/planted_test.go: var _ = timed(f)"}},
	}},
	{"no-empty-options", "a setting nothing can change is no parameter: no empty …Options struct below the facade but core.EvalOptions and core.MaintainOptions, which bench/ constructs and nothing else names, and no eval.Options or eval.MaintainOptions", []rule{
		{forbid(decls, `^(\w*\.)?\w*Options struct\{\}$`, in("internal", "cmd"), "core.EvalOptions", "core.MaintainOptions"), []string{"internal/eval/planted.go: type RunOptions struct{}", "internal/core/planted.go: type ExplainOptions struct{}"}},
		{forbid(names, `^core\.(Eval|Maintain)Options$`, in().withTests().but("bench", "internal/core")), []string{"examples/incremental/planted.go: var _ core.MaintainOptions"}},
		{forbid(names, `^eval\.(Maintain)?Options$`, in().withTests()), []string{"cmd/datalog/planted_test.go: var _ eval.MaintainOptions"}},
		{forbid(decls, `^(Maintain)?Options `, in("internal/eval").withTests()), []string{"internal/eval/planted.go: type Options struct{ Goal string }"}},
	}},
	{"one-facade", "internal/core keeps what composes packages and what bench/ pins: every exported function whose body is one call into another package, every type alias and every constant set to another package's is named by bench/ and by no other file outside internal/core; bench/, examples/, cmd/, internal/service or a root test calls each exported function as core.Name( and each exported method T.M as x.M( in a directory that names core.T or a function whose signature names T", []rule{
		{facade(in("internal/core"), in("bench", "examples", "cmd", "internal/service", ".").withTests()), []string{"internal/core/planted.go: func Unused() {}\nexamples/quickstart/planted.go: // see core.Unused() for history", "internal/core/planted.go: func (s *Session) Unused() {}", "internal/core/planted.go: func (s *Session) Program() *Program { return s.prog }"}},
		{pinned(in("internal/core"), in("bench").withTests(), in().withTests().but("bench", "internal/core")), []string{"internal/core/planted.go: type Rule = ast.Rule", "cmd/datalog/planted.go: var _ = core.MinimizeProgram"}},
	}},
	{"one-chase", "the [P, T] chase and Fig. 3 run one loop, chase.TGDs.Chase: shipped code has one call of the tgd round and one null generator, both in internal/chase, and the deleted loops chaseFull and runCombination stay deleted", []rule{
		{once(callees, in("internal/chase"), `\.applyRound$`, `NewNullGen$`), []string{"internal/chase/planted.go: func f() { ts.applyRound(ctx, d, g, st) }", "internal/chase/planted.go: var g = ast.NewNullGen(0)"}},
		{forbid(callees, `(?i)\.applyRound$|NewNullGen$`, in().but("internal/chase", "internal/ast")), []string{"internal/preserve/planted.go: func f() { ts.ApplyRound(ctx, d, g, st) }", "internal/preserve/planted.go: var g = ast.NewNullGen(0)"}},
		{forbid(decls, `^(\w+\.)?(chaseFull|runCombination)\(`, in()), []string{"internal/preserve/planted.go: func runCombination() {}", "internal/chase/planted.go: func (c *Checker) chaseFull() {}"}},
	}},
	{"doc-names", "every backticked pkg.Name in README.md, TUTORIAL.md and DESIGN.md names a declaration of the module", []rule{
		{resolves("README.md", "TUTORIAL.md", "DESIGN.md"), []string{"TUTORIAL.md: `eval.Incremental` maintains a view"}},
	}},
	{"no-test-only-export", "below the facade a package exports only what shipped code or another package's tests use: each exported function under internal/ is referred to, and each exported method T.M called as x.M( in a file that can hold a T, by non-test code or by a test file of another directory", []rule{
		{used(in("internal")), []string{"internal/depgraph/planted.go: func Unused() {}\ninternal/depgraph/planted_test.go: var _ = Unused", "internal/explain/planted.go: func (p *Prover) Unused() int { return 0 }", "internal/explain/planted.go: func (p *Prover) Program() *ast.Program { return nil }"}},
	}},
}

type rule struct {
	check  func(tree) []string
	plants []string
}

func TestStructure(t *testing.T) {
	tr := tree{}
	err := fs.WalkDir(os.DirFS("."), ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && p != "." && (d.Name() == "testdata" || d.Name()[0] == '.') {
			return cmp.Or(err, fs.SkipDir)
		}
		if strings.HasSuffix(p, ".go") && p != "structure_test.go" || p == "README.md" || p == "TUTORIAL.md" || p == "DESIGN.md" { // this file's plants would trip its own rules
			data, err := os.ReadFile(p)
			if err == nil {
				tr[p], err = parseFile(p, string(data))
			}
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A test of another package is a user: shared test support stays exported.
	if bad := used(in("internal"))(planted(t, tr, "internal/ast/planted.go: func Helper() {}\ninternal/eval/planted_test.go: var _ = ast.Helper", false)); len(bad) > 0 {
		t.Errorf("no-test-only-export rejects a function another package's test uses: %q", bad)
	}
	// A method promoted through an embedded field is called on the outer type.
	if bad := used(in("internal"))(planted(t, tr, "internal/eval/planted.go: func (l Lineage) Promoted() int { return 0 }\ninternal/minimize/planted.go: func f(c *chase.Checker) int { return c.Promoted() }", false)); len(bad) > 0 {
		t.Errorf("no-test-only-export rejects a method called through an embedding type: %q", bad)
	}
	for _, g := range guards {
		t.Run(g.name, func(t *testing.T) {
			for _, r := range g.rules {
				for _, bad := range r.check(tr) {
					t.Errorf("%s: %s", bad, g.why)
				}
				for _, p := range r.plants {
					for _, commented := range []bool{false, true} {
						if bad := r.check(planted(t, tr, p, commented)); (len(bad) > 0) == commented {
							t.Errorf("plant %q, commented out %v: %q: %s", p, commented, bad, g.why)
						}
					}
				}
			}
		})
	}
}

// planted returns tr with the files of plant p added or replaced; commented,
// each file's code is a comment, and a Markdown file loses its code spans.
func planted(t *testing.T, tr tree, p string, commented bool) tree {
	out := maps.Clone(tr)
	for _, line := range strings.Split(p, "\n") {
		name, src, _ := strings.Cut(line, ": ")
		if commented {
			src = "// " + strings.ReplaceAll(src, "`", "")
		}
		if path.Ext(name) == ".go" {
			src = "package " + path.Base(path.Dir(name)) + "\n" + src
		}
		f, err := parseFile(name, src)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = f
	}
	return out
}

// tree holds the module's files by slash path from its root.
type tree map[string]*file

// file is what the rules read of a file: a document's text, or a Go file's
// package name and items. Go files are parsed without comments.
type file struct {
	pkg, text string
	items     map[kind][]string
	imports   map[string]bool // the package names its imports bind
}

// A kind is a set of the item lists of a Go file.
type kind int

const (
	names    kind = 1 << iota // identifiers, rendered selectors, literals and `import "path"`
	code                      // rendered calls, comparisons, assignments and go statements
	callees                   // the rendered function of each call
	decls                     // "F(params) results", "T.M(params) results", "T <type>", "T.field <type>", "T. <embedded>", "V <type>", "V = <value>" and "V"
	refs                      // rendered selectors and the identifiers that do not declare a function, type, value or field
	forwards                  // the functions whose body is one call into an imported package, the type aliases and the constants set to an imported package's
)

func parseFile(name, src string) (*file, error) {
	if !strings.HasSuffix(name, ".go") {
		return &file{text: src}, nil
	}
	af, err := parser.ParseFile(token.NewFileSet(), name, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	f := &file{pkg: af.Name.Name, items: map[kind][]string{}, imports: map[string]bool{}}
	add := func(k kind, s string) { f.items[k] = append(f.items[k], s) }
	str, owner, declaring := types.ExprString, map[*ast.StructType]string{}, map[*ast.Ident]bool{}
	for _, im := range af.Imports {
		f.imports[cmp.Or(im.Name, ast.NewIdent(path.Base(strings.Trim(im.Path.Value, `"`)))).Name] = true
	}
	intoImport := func(e ast.Expr) bool { // e is a selector rooted at an imported package
		for sel, ok := e.(*ast.SelectorExpr); ok; sel, ok = e.(*ast.SelectorExpr) {
			e = sel.X
		}
		id, ok := e.(*ast.Ident)
		return ok && f.imports[id.Name]
	}
	ast.Inspect(af, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			add(names, n.Name)
			if !declaring[n] {
				add(refs, n.Name)
			}
		case *ast.SelectorExpr:
			add(names, str(n))
			add(refs, str(n))
			declaring[n.Sel] = true
		case *ast.BasicLit:
			add(names, n.Value)
		case *ast.ImportSpec:
			add(names, "import "+n.Path.Value)
		case *ast.CallExpr:
			add(code, str(n))
			add(callees, str(n.Fun))
		case *ast.BinaryExpr:
			add(code, str(n))
		case *ast.GoStmt:
			add(code, "go "+str(n.Call))
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				add(code, str(lhs)+" "+n.Tok.String()+" "+str(n.Rhs[min(i, len(n.Rhs)-1)]))
			}
		case *ast.FuncDecl:
			declaring[n.Name] = true
			name := n.Name.Name
			if n.Recv == nil && n.Body != nil && len(n.Body.List) == 1 {
				var one ast.Expr
				switch st := n.Body.List[0].(type) {
				case *ast.ReturnStmt:
					one = cmp.Or(st.Results...)
				case *ast.ExprStmt:
					one = st.X
				}
				if call, ok := one.(*ast.CallExpr); ok && intoImport(call.Fun) {
					add(forwards, name)
				}
			}
			if n.Recv != nil {
				recv, _, _ := strings.Cut(strings.TrimPrefix(str(n.Recv.List[0].Type), "*"), "[")
				name = recv + "." + name
			}
			add(decls, name+strings.TrimPrefix(str(n.Type), "func"))
		case *ast.TypeSpec:
			declaring[n.Name] = true
			add(decls, n.Name.Name+" "+str(n.Type))
			if n.Assign.IsValid() {
				add(forwards, n.Name.Name)
			}
			if st, ok := n.Type.(*ast.StructType); ok {
				owner[st] = n.Name.Name
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && n.Tok == token.CONST {
					for i, v := range vs.Values {
						if _, sel := v.(*ast.SelectorExpr); sel && intoImport(v) {
							add(forwards, vs.Names[i].Name)
						}
					}
				}
			}
		case *ast.ValueSpec:
			for _, id := range n.Names { // "V <type>", or "V = <value>" / "V" when the type is left to the value
				declaring[id] = true
				switch i := slices.Index(n.Names, id); {
				case n.Type == nil && i < len(n.Values):
					add(decls, id.Name+" = "+str(n.Values[i]))
				default:
					add(decls, strings.TrimSuffix(id.Name+" "+str(cmp.Or[ast.Expr](n.Type, &ast.Ident{})), " "))
				}
			}
		case *ast.StructType:
			for _, fld := range n.Fields.List {
				ids := fld.Names
				if len(ids) == 0 {
					ids = []*ast.Ident{{}}
				}
				for _, id := range ids {
					declaring[id] = true
					add(decls, owner[n]+"."+id.Name+" "+str(fld.Type))
				}
			}
		}
		return true
	})
	return f, nil
}

// declName is the name a decls item declares: "F", "T.M", "T" or "T.field".
func declName(item string) string {
	return item[:strings.IndexAny(item+" ", " (")]
}

// A scope selects files by slash path.
type scope func(p string) bool

// in selects the non-test Go files under each of dirs (every one when there
// are none; "." holds the root directory's own files).
func in(dirs ...string) scope {
	return func(p string) bool {
		return strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") && (len(dirs) == 0 || under(p, dirs))
	}
}

// withTests selects the test file x_test.go where s selects x.go.
func (s scope) withTests() scope {
	return func(p string) bool { return s(strings.TrimSuffix(p, "_test.go") + ".go") }
}

func (s scope) but(dirs ...string) scope {
	return func(p string) bool { return s(p) && !under(p, dirs) }
}

func under(p string, dirs []string) bool {
	return slices.ContainsFunc(dirs, func(d string) bool {
		return p == d || strings.HasPrefix(p, d+"/") || d == "." && !strings.Contains(p, "/")
	})
}

// forbid rejects each item of the kinds k in the files of s that re
// matches, unless allow holds its declared name as "pkg.name".
func forbid(k kind, re string, s scope, allow ...string) func(tree) []string {
	r := regexp.MustCompile(re)
	return func(tr tree) (bad []string) {
		for p, f := range tr {
			for ki, items := range f.items {
				if k&ki == 0 || !s(p) {
					continue
				}
				for _, it := range items {
					if r.MatchString(it) && !slices.Contains(allow, f.pkg+"."+declName(it)) {
						bad = append(bad, p+": "+it)
					}
				}
			}
		}
		return bad
	}
}

// once rejects the files of s unless each of res matches exactly one of
// their items of the kinds k.
func once(k kind, s scope, res ...string) func(tree) []string {
	return func(tr tree) (bad []string) {
		for _, re := range res {
			if hits := forbid(k, re, s)(tr); len(hits) != 1 {
				bad = append(bad, fmt.Sprintf("%d matches of %s, want 1: %q", len(hits), re, hits))
			}
		}
		return bad
	}
}

// linked rejects each package under dir that a non-test file of s imports,
// directly or through other module packages.
func linked(dir string, s scope) func(tree) []string {
	return func(tr tree) (bad []string) {
		reach := map[string]bool{}
		for grew := true; grew; {
			grew = false
			for p, f := range tr {
				for _, n := range f.items[names] {
					imp, ok := strings.CutPrefix(n, `import "repro/`)
					if dep := strings.TrimSuffix(imp, `"`); ok && in()(p) && (s(p) || reach[path.Dir(p)]) && !reach[dep] {
						reach[dep], grew = true, true
						if under(dep, []string{dir}) {
							bad = append(bad, dep)
						}
					}
				}
			}
		}
		return bad
	}
}

// facade rejects each exported function F of s that no file of callers calls
// as core.F(, and each exported method T.M that no file of callers calls as
// x.M(, x no imported package, in a directory that names core.T or a function
// of s whose signature names T.
func facade(s, callers scope) func(tree) []string {
	return func(tr tree) (bad []string) {
		fns := forbid(decls, `^(\w+\.)?[A-Z]\w*\(`, s)(tr)
		for _, hit := range fns {
			name := declName(hit[strings.Index(hit, ": ")+2:])
			recv, method, ok := strings.Cut(name, ".")
			if !ok {
				if len(forbid(callees, `^core\.`+name+`$`, callers)(tr)) == 0 {
					bad = append(bad, hit)
				}
				continue
			}
			holders, mentions := []string{recv}, regexp.MustCompile(`\b`+recv+`\b`)
			for _, fn := range fns {
				if d := fn[strings.Index(fn, ": ")+2:]; !strings.Contains(declName(d), ".") && mentions.MatchString(d) {
					holders = append(holders, declName(d))
				}
			}
			dirs := map[string]bool{}
			for _, h := range forbid(names, `^core\.(`+strings.Join(holders, "|")+`)$`, callers)(tr) {
				dirs[path.Dir(h[:strings.Index(h, ": ")])] = true
			}
			if !slices.ContainsFunc(forbid(callees, `\.`+method+`$`, callers)(tr), func(c string) bool {
				p, fun, _ := strings.Cut(c, ": ")
				return dirs[path.Dir(p)] && !tr[p].imports[strings.TrimSuffix(fun, "."+method)]
			}) {
				bad = append(bad, hit)
			}
		}
		return bad
	}
}

// pinned rejects each exported forwards item of s that no file of users
// names as pkg.Name, or that a file of others names so.
func pinned(s, users, others scope) func(tree) []string {
	return func(tr tree) (bad []string) {
		named := map[string][2]bool{} // "pkg.Name" → named by users, by others
		for p, f := range tr {
			for _, n := range f.items[names] {
				if u, o := users(p), others(p); u || o {
					was := named[n]
					named[n] = [2]bool{was[0] || u, was[1] || o}
				}
			}
		}
		for p, f := range tr {
			for _, n := range f.items[forwards] {
				if by := named[f.pkg+"."+n]; s(p) && token.IsExported(n) && (!by[0] || by[1]) {
					bad = append(bad, fmt.Sprintf("%s: %s.%s: named by users %v, by others %v", p, f.pkg, n, by[0], by[1]))
				}
			}
		}
		return bad
	}
}

// used rejects each exported function and method of the files of s that
// neither non-test code nor a test file of another directory refers to: a
// function F of package x as F in its own directory or as x.F, a method T.M
// as a call x.M(, x no imported package, in a file that holds a T (held).
// Methods that satisfy a standard-library interface are exempt.
func used(s scope) func(tree) []string {
	return func(tr tree) (bad []string) {
		type user struct {
			file, dir string
			test      bool
		}
		users := map[string][]user{} // "dir F" or "x.F" → each file referring to it, ".M" → each file calling it
		for p, f := range tr {
			u := user{p, path.Dir(p), !in()(p)}
			for _, r := range f.items[refs] {
				if !strings.Contains(r, ".") {
					r = u.dir + " " + r
				}
				users[r] = append(users[r], u)
			}
			for _, c := range f.items[callees] {
				if i := strings.LastIndex(c, "."); i > 0 && !f.imports[c[:i]] {
					users[c[i:]] = append(users[c[i:]], u)
				}
			}
		}
		holds := held(tr)
		for p, f := range tr {
			for _, d := range f.items[decls] {
				name := declName(d)
				fn, keys, typ := name, []string{f.pkg + "." + name, path.Dir(p) + " " + name}, ""
				if recv, method, ok := strings.Cut(name, "."); ok {
					fn, keys, typ = method, []string{"." + method}, f.pkg+"."+recv
				}
				if !s(p) || !strings.HasPrefix(d, name+"(") || !token.IsExported(fn) || fn != name && stdMethods[fn] {
					continue
				}
				if !slices.ContainsFunc(keys, func(k string) bool {
					return slices.ContainsFunc(users[k], func(u user) bool {
						return (!u.test || u.dir != path.Dir(p)) && (typ == "" || holds[u.file][typ])
					})
				}) {
					bad = append(bad, p+": "+d)
				}
			}
		}
		return bad
	}
}

// held returns, per Go file, the types "pkg.T" whose values its code can
// reach: every type and variable of its package (its test files' included),
// every name it refers to —
// as pkg.T, or bare for its own package's — and then, to a fixed point,
// every type named in the declaration of a function or variable it holds, or
// of a method or field it selects on a type it holds, and every type
// embedded in one it holds. A struct's or interface's own fields are reached
// only by selection.
func held(tr tree) map[string]map[string]bool {
	mentions := map[string][]string{} // "pkg.F", "pkg.V", "pkg.T.M", "pkg.T.f" → the names its declaration mentions; "pkg.T" → the types T embeds
	members := map[string][]string{}  // ".M" → each "pkg.T" with a method or field M
	scope := map[string][]string{}    // "dir pkg" → the package's types and variables
	ident := regexp.MustCompile(`\b[A-Za-z_]\w*(\.[A-Za-z_]\w*)?`)
	for p, f := range tr {
		for _, d := range f.items[decls] {
			name := declName(d)
			sig := strings.TrimPrefix(d, name)
			if recv, member, ok := strings.Cut(name, "."); ok && member != "" {
				members["."+member] = append(members["."+member], f.pkg+"."+recv)
			} else if !ok && strings.HasPrefix(sig, " ") {
				scope[path.Dir(p)+" "+f.pkg] = append(scope[path.Dir(p)+" "+f.pkg], f.pkg+"."+name)
			}
			if strings.HasPrefix(sig, " struct{") || strings.HasPrefix(sig, " interface{") {
				continue
			}
			key := f.pkg + "." + strings.TrimSuffix(name, ".") // "T." embeds: its mentions are T's
			for _, id := range ident.FindAllString(sig, -1) {
				if !strings.Contains(id, ".") {
					id = f.pkg + "." + id
				}
				mentions[key] = append(mentions[key], id)
			}
		}
	}
	out := map[string]map[string]bool{}
	for p, f := range tr {
		if f.pkg == "" {
			continue
		}
		holds, grew := map[string]bool{}, true
		hold := func(keys ...string) {
			for _, k := range keys {
				if !holds[k] {
					holds[k], grew = true, true
				}
			}
		}
		hold(scope[path.Dir(p)+" "+f.pkg]...)
		var selected []string
		for _, r := range f.items[refs] {
			if i := strings.LastIndex(r, "."); i >= 0 {
				hold(r)
				selected = append(selected, r[i:])
			} else {
				hold(f.pkg + "." + r)
			}
		}
		for grew {
			grew = false
			for t := range holds {
				hold(mentions[t]...)
			}
			for _, m := range selected {
				for _, t := range members[m] {
					if holds[t] {
						hold(mentions[t+m]...)
					}
				}
			}
		}
		out[p] = holds
	}
	return out
}

// stdMethods are the method names through which the standard library calls
// a type of the module.
var stdMethods = map[string]bool{"String": true, "Error": true, "Unwrap": true, "Len": true, "Less": true, "Swap": true}

// resolves rejects each backticked pkg.Name or pkg.Type.Member in docs that
// names no declaration, or promoted field or method, of a non-test file of a
// module package so named. A qualifier that is the last element of a
// standard-library import path, such as context, is skipped.
func resolves(docs ...string) func(tree) []string {
	span := regexp.MustCompile("`[^`]+`")
	ref := regexp.MustCompile(`\b([a-z][a-z0-9]*)\.[A-Z]\w*(\.[A-Z]\w*)?`)
	return func(tr tree) (bad []string) {
		declared, std := map[string]bool{}, map[string]bool{}
		embeds := map[string][]string{} // pkg.T → pkg.E for each type E embedded in T
		for p, f := range tr {
			for _, d := range f.items[decls] {
				if !in()(p) {
					continue
				}
				declared[f.pkg+"."+declName(d)] = true
				if owner, typ, ok := strings.Cut(d, ". "); ok {
					embeds[f.pkg+"."+owner] = append(embeds[f.pkg+"."+owner], f.pkg+"."+strings.TrimPrefix(typ, "*"))
				}
			}
			for _, n := range f.items[names] {
				if imp, ok := strings.CutPrefix(n, `import "`); ok && !strings.HasPrefix(imp, "repro/") {
					std[path.Base(strings.TrimSuffix(imp, `"`))] = true
				}
			}
		}
		for _, doc := range docs {
			for i, line := range strings.Split(tr[doc].text, "\n") {
				for _, s := range span.FindAllString(line, -1) {
					for _, m := range ref.FindAllStringSubmatch(s, -1) {
						if !std[m[1]] && !known(declared, embeds, m[0]) {
							bad = append(bad, fmt.Sprintf("%s:%d: %s", doc, i+1, m[0]))
						}
					}
				}
			}
		}
		return bad
	}
}

// known reports whether name is declared, or is a member promoted from a
// type embedded in its owner.
func known(declared map[string]bool, embeds map[string][]string, name string) bool {
	if declared[name] {
		return true
	}
	i := strings.LastIndex(name, ".")
	for _, e := range embeds[name[:i]] {
		if known(declared, embeds, e+name[i:]) {
			return true
		}
	}
	return false
}
