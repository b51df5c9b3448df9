GO ?= go

# Benchmarks tracked in BENCH_eval.json: the experiment tables' families
# (EXPERIMENTS.md reads its time cells from their rows) and the eval/chase
# hot-path families. Each runs five times; benchjson folds the samples into
# a median and quartiles per row.
BENCH_PATTERN ?= BenchmarkE2_|BenchmarkE3_|BenchmarkE4_|BenchmarkE5_|BenchmarkE6_|BenchmarkE7_|BenchmarkE8_|BenchmarkE9_|BenchmarkE12_|BenchmarkE14_|BenchmarkEngines|BenchmarkEvalShapes|BenchmarkAblation_TerminationFastPath|BenchmarkMaintain_DRed|BenchmarkSmallTenantEvalVsApply
BENCHTIME ?= 0.3s

# staticcheck pin for lint-ci; bump deliberately, not implicitly.
STATICCHECK_VERSION ?= 2025.1

.PHONY: all build vet datalog-vet test fuzz-short race race-service race-ivm serve-smoke bench bench-all experiments examples guard-one-join guard-ctx-arg guard-no-batch-compact guard-delta-first guard-request-path guard-one-unfold guard-no-ablation-arm guard-no-transfer guard-one-plan guard-one-maintenance guard-one-graph guard-one-magic guard-one-cache guard-one-minimize guard-one-clock guard-no-empty-options guard-one-facade lint lint-ci clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# datalog-vet runs the repository's own static analyzer over the shipped
# example programs; any error-severity finding fails the build. The seeded
# defect corpus under testdata/vet/ is exercised separately by the golden
# tests in cmd/datalog.
datalog-vet:
	$(GO) run ./cmd/datalog vet testdata/*.dl

test:
	$(GO) test ./...

# fuzz-short runs each fuzz target of the two layers every program passes
# through first for a few seconds: the parser (no panic, positions in source
# order, print/parse round trip) and the canonical rendering (the address of
# the plan cache and the verdict store; held byte for byte to a map-based
# reference renderer), and the 2Q cache both memos are built on (random
# lookups and stores replayed against a slice-based reference 2Q).
fuzz-short:
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/parser
	$(GO) test -run='^$$' -fuzz='^FuzzCanonicalRule$$' -fuzztime=10s ./internal/ast
	$(GO) test -run='^$$' -fuzz='^FuzzCache$$' -fuzztime=10s ./internal/twoq

race:
	$(GO) test -race ./...

# race-service race-checks the multi-tenant service stack: the session
# facade, the HTTP layer, the copy-on-freeze snapshots they evaluate, the
# retention window that frees them (TestVersionRetentionBound: 10,000 batches
# under pinned readers) and the self-locking symbol table every parse and
# render of a program name shares.
race-service:
	$(GO) test -race ./internal/ast ./internal/core ./internal/service ./internal/db

# race-ivm race-checks the incremental view maintenance stack: the DRed
# maintenance engine, its randomized oracle grid, the stamp invariant its
# support check rests on in recursive strata and the stamp-free check of
# non-recursive ones, the support-check order memo two views share
# (TestMaintainSharedOrderMemo), the scratch sets' Reset, the store's version
# chains (dead bitmaps, shared bases, flatten: the seeded differential scripts
# of versions_test.go, with goroutines probing frozen versions while the
# lineage writes), the two seal passes (the radix canonical order and the
# rank-renumbering flatten), the facade's View.Apply diffs
# (TestSessionMaterializeApply) and the subscription fan-out in the service
# layer.
race-ivm:
	$(GO) test -race -run 'TestMaintain|TestDRedOverdeletionIsLocal|TestMaintainedStampsCertify|TestNonRecursiveSupport|TestDeltaNet|TestReset|TestVersions|TestMutationCost|TestReadPaths|TestMaxGenerated|TestCompact|TestRemove|TestFreeze|TestSession|TestSubscri|TestFactsEnvelope|TestSortedIDs|TestFlatten' ./internal/eval ./internal/db ./internal/core ./internal/service

# serve-smoke boots `datalog serve` on an ephemeral port with a preloaded
# program and drives a register/facts/eval/statz round-trip over HTTP.
serve-smoke:
	$(GO) test ./cmd/datalog -run 'TestServeCommand' -count=1 -v

# bench runs the benchmark families of BENCH_PATTERN and records ns/op
# (median and quartiles), B/op and allocs/op per benchmark in
# BENCH_eval.json, so the perf trajectory is tracked from PR to PR and
# EXPERIMENTS.md's time cells have one source. The termination ablation sets
# an unexported switch, so it lives in internal/chase.
bench:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem -benchtime=$(BENCHTIME) -count=5 -timeout=60m . ./internal/chase | tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_eval.json

bench-all:
	$(GO) test -bench=. -benchmem .

experiments:
	$(GO) run ./cmd/experiments -run all

# guard-one-join keeps the operator pipeline (internal/eval/stream.go) the
# only join that ships. The binding-map matcher and the tabled engine live in
# internal/oracle as references for tests: nothing the binaries, the examples,
# the facade, the server or the harness link may depend on it, no non-test
# file outside it may import it, and internal/db exports no matcher for a
# second join to grow back on. Inside the packages that once joined through
# ast.Binding maps, a Binding may only report a result the kernel found:
# internal/eval never names one, and the tgd (violation checks included) and
# preservation code never matches into one (MatchGround / Unify).
ONE_JOIN_ROOTS = ./cmd/... ./examples/... ./internal/core ./internal/service ./internal/harness
guard-one-join:
	@if $(GO) list -deps $(ONE_JOIN_ROOTS) | grep '^repro/internal/oracle'; then \
		echo "internal/oracle is linked into shipped code (make guard-one-join): only _test.go files may import it" >&2; exit 1; \
	fi
	@if grep -rl '"repro/internal/oracle' --include='*.go' internal cmd examples | grep -v '_test\.go$$' | grep -v '^internal/oracle/'; then \
		echo "a non-test file imports internal/oracle (make guard-one-join)" >&2; exit 1; \
	fi
	@if test -e internal/db/match.go || test -e internal/topdown || \
		grep -nE '^func (Match[A-Za-z]*|Satisfiable|OrderForJoin[A-Za-z]*)\(' internal/db/*.go | grep -v '_test\.go:'; then \
		echo "internal/db exports a matcher again (make guard-one-join): joins run on eval.Conj, references live in internal/oracle" >&2; exit 1; \
	fi
	@if grep -nE 'ast\.Binding|MustGround' internal/eval/*.go | grep -v '_test\.go:'; then \
		echo "internal/eval: binding-map join outside tests (make guard-one-join)" >&2; exit 1; \
	fi
	@if grep -nE 'MatchGround|\.Unify\(' internal/chase/*.go internal/preserve/*.go | grep -v '_test\.go:'; then \
		echo "a join through an ast.Binding outside tests (make guard-one-join): lower the conjunction with eval.LowerConj" >&2; exit 1; \
	fi

# guard-ctx-arg keeps configuration from growing back. A context is only ever
# an argument: no SetContext, and no struct field of type context.Context in a
# non-test file under internal/ other than the per-call roundEnv (rounds.go)
# and the sink inside streamState (stream.go). The reference arms deleted
# from the evaluation and maintenance options and the sharded round executor
# stay deleted: none of their names may come back as an identifier in
# non-test code. And the evaluator stays single-threaded per Run — concurrency belongs
# to its callers — so no non-test internal/eval file starts a goroutine or
# sets GOMAXPROCS.
guard-ctx-arg:
	@if grep -rnE 'SetContext|^[[:space:]]*([A-Za-z_][A-Za-z0-9_, ]*[[:space:]]+)?context\.Context[[:space:]]*(//.*)?$$' --include='*.go' internal \
		| grep -vE '_test\.go:|^internal/eval/(rounds|stream)\.go:'; then \
		echo "internal/: a stored context (make guard-ctx-arg): pass ctx as the first argument" >&2; exit 1; \
	fi
	@if grep -rnwE 'Strategy|NoReorder|NoSCCOrder|ForceDRed|Shards|ShardView|EnsureShardView|runSharded|shardSink|partitionCols|HashTuple' --include='*.go' internal cmd examples | grep -v '_test\.go:'; then \
		echo "a deleted evaluation switch is back (make guard-ctx-arg)" >&2; exit 1; \
	fi
	@if grep -nE '(^|[^A-Za-z0-9_.])go[[:space:]]+(func\b|[A-Za-z_][A-Za-z0-9_.]*\()|runtime\.GOMAXPROCS' internal/eval/*.go | grep -v '_test\.go:'; then \
		echo "internal/eval starts a goroutine or sets GOMAXPROCS (make guard-ctx-arg): the evaluator is single-threaded per Run, concurrency is its callers'" >&2; exit 1; \
	fi

# guard-no-batch-compact keeps compaction the store's decision: Freeze
# flattens a relation when its tail and dead tuples outgrow their share
# (internal/db/delete.go), and readers skip dead tuples, so nothing above the
# store has a reason to ask — a Compact() call per batch is how a mutation
# came to cost O(relation).
guard-no-batch-compact:
	@if grep -rnE '\.Compact\(\)' --include='*.go' internal/eval internal/service | grep -v '_test\.go:'; then \
		echo "a Compact() call outside the store (make guard-no-batch-compact): when to compact is internal/db's decision" >&2; exit 1; \
	fi

# guard-delta-first keeps one way to run a delta. Every delta variant — of a
# fixpoint or of an insert loop — runs a plan led by its delta atom
# (roundEnv.deltaVariants in internal/eval/prepare.go), so a second copy of
# the idea (swapped plans, a two-part merge key) stays deleted and the join's
# inner loop never skips up to a lower bound.
guard-delta-first:
	@if grep -nwE 'swapped|lowerSwapped|atomsShareVar|tagInner|k2' internal/eval/*.go | grep -v '_test\.go:'; then \
		echo "internal/eval: a swapped plan or a second merge key is back (make guard-delta-first): a delta variant is led by its delta atom" >&2; exit 1; \
	fi
	@if grep -nE 'tid\) *< *st\.lo' internal/eval/stream.go; then \
		echo "internal/eval/stream.go: a probe or lookup skips ids below a lower bound (make guard-delta-first): only a led plan's position-0 scan has one" >&2; exit 1; \
	fi

# guard-request-path keeps each request-path decision in one place. Every
# request is counted and its body bounded and decoded by the one wrapper
# (verb / admit in internal/service/handlers.go); the verb functions behind it
# see no http.ResponseWriter — only the subscription stream is a handler of
# its own — and take no lock (handlers.go names no mutex: map reads and
# writes are programEntry / Server methods in service.go); nothing parses or
# renders under the entry lock, the symbol table synchronises itself; a
# request cannot pick its plan; and /eval reaches the kernel through one
# EvalWith call, the miss of the memoized output (evalMemo, service.go), so no
# second, unmemoized eval path grows beside it. A tenant's database versions
# leave its map at one place, mutate's slide of the retention window, and the
# window's width (retainDBVersions) is named nowhere else in shipped code: no
# flag, option or request field sets it.
SERVICE_SRC = $(filter-out %_test.go,$(wildcard internal/service/*.go))
guard-request-path:
	@for pat in 'requests\.Add\(' 'DisallowUnknownFields\(' 'MaxBytesReader\(' 'EvalWith\('; do \
		n=$$(cat $(SERVICE_SRC) | grep -cE "$$pat"); \
		if [ "$$n" != 1 ]; then \
			echo "internal/service: $$n call sites of $$pat, want 1 (make guard-request-path): requests enter through verb, evaluations through verbEval's memo miss" >&2; exit 1; \
		fi; \
	done
	@if grep -nE '\.mu\.' internal/service/handlers.go; then \
		echo "internal/service/handlers.go takes a lock (make guard-request-path): go through a programEntry / Server method in service.go" >&2; exit 1; \
	fi
	@if grep -nE '^func .*\bverb[A-Z][A-Za-z]*\(.*ResponseWriter|^func .*\bhandle[A-Z][A-Za-z]*\(' $(SERVICE_SRC) | grep -v 'handleSubscribe('; then \
		echo "internal/service: a verb that writes its own response (make guard-request-path): return (any, error) to the wrapper" >&2; exit 1; \
	fi
	@if grep -nE '\b(parse|format|render)[A-Za-z]*Locked\b' $(SERVICE_SRC); then \
		echo "internal/service: parsing or rendering under the entry lock (make guard-request-path)" >&2; exit 1; \
	fi
	@if grep -rnE 'EvalRequestOptions|maxRequestShards' --include='*.go' .; then \
		echo "a request can pick its plan again (make guard-request-path): a session runs the one plan it was opened with" >&2; exit 1; \
	fi
	@n=$$(cat $(SERVICE_SRC) | grep -c 'delete(t\.versions'); \
	if [ "$$n" != 1 ]; then \
		echo "internal/service: $$n call sites of delete(t.versions, want 1 (make guard-request-path): a database version leaves only by mutate's slide of the retention window" >&2; exit 1; \
	fi
	@if grep -rn --include='*.go' 'retainDBVersions' . | grep -v '_test\.go:' | grep -v '^\./internal/service/service\.go:'; then \
		echo "retainDBVersions is referenced outside internal/service/service.go (make guard-request-path): the retention window is one constant, not a knob" >&2; exit 1; \
	fi

# guard-one-unfold keeps a fresh build the only way an unfolding or a
# preservation session is made. A depth-k unfolding is content-addressed (its
# rules canonical, in canonical order), so an unfolding of a weakened program
# is rebuilt and its plan found by address; nothing patches one across a
# delta. internal/unfold names no patching entry point or the edge table and
# frontier marks only patching read, and a preserve.Session has no Derive:
# the session for a weakened program is NewSessionIn over it, in the same
# lineage.
guard-one-unfold:
	@if grep -nE '\b(Patch|PatchDelete|Patchable|ErrUnpatchable|cloneFor[A-Za-z]*|expandFrontier|edgeSeen)\b' internal/unfold/*.go | grep -v '_test\.go:'; then \
		echo "internal/unfold patches an unfolding again (make guard-one-unfold): build it fresh, the plan cache shares it by content address" >&2; exit 1; \
	fi
	@if grep -nE '^func \([^)]*\) Derive\(' internal/preserve/*.go | grep -v '_test\.go:'; then \
		echo "internal/preserve defines a Derive method (make guard-one-unfold): open the weakened program's session with NewSessionIn in the same lineage" >&2; exit 1; \
	fi

# guard-no-ablation-arm keeps the paths that lost their own benchmark out of
# the shipped tree: supplementary magic (slower than basic magic on every
# recorded row), the conjunctive-query "fast path" (slower than a warm chase;
# it lives on as the test oracle internal/oracle/cq) and the chase's public
# ablation switches (the oracle arms are unexported fields its own tests
# set). minimize has no switch of its own to reach them through.
guard-no-ablation-arm:
	@if test -e internal/cq; then \
		echo "internal/cq is back (make guard-no-ablation-arm): the Chandra–Merlin oracle lives in internal/oracle/cq, for tests" >&2; exit 1; \
	fi
	@if grep -nE 'Supplementary|sup@' internal/magic/*.go | grep -v '_test\.go:'; then \
		echo "internal/magic: supplementary magic is back (make guard-no-ablation-arm): it lost to basic magic on every recorded row" >&2; exit 1; \
	fi
	@if grep -nE '^func \([^)]*\*Checker\) Disable' internal/chase/*.go | grep -v '_test\.go:'; then \
		echo "internal/chase: an exported ablation switch is back (make guard-no-ablation-arm): tests set noSyntactic / noTermination directly" >&2; exit 1; \
	fi
	@if grep -rn 'noFastPath' internal/minimize; then \
		echo "internal/minimize: noFastPath is back (make guard-no-ablation-arm): the chase's own tests check each forced verdict" >&2; exit 1; \
	fi

# guard-no-transfer keeps every verdict in the store one that a run on its
# own program computed. A masked containment test (Checker.ContainsRuleMasked)
# stores its verdict under the canonical form of the program it ran, P − S;
# nothing copies a verdict from one program's table to another's, so the
# evaluator records no rule provenance for one to be judged by. Transfer lost
# its own workload — most transferred verdicts were never read (DESIGN §6.5).
guard-no-transfer:
	@if grep -nwE 'RuleSet|WithoutShifted|prov|ruleIdxs' internal/eval/*.go | grep -v '_test\.go:'; then \
		echo "internal/eval records rule provenance again (make guard-no-transfer): Prepared.Run takes no prov argument" >&2; exit 1; \
	fi
	@if grep -nE '\b(putAbsent|isWeakening|subMultiset|reachableFrom)\b|\.entries\(\)' internal/chase/*.go | grep -v '_test\.go:'; then \
		echo "internal/chase transfers verdicts again (make guard-no-transfer): a derived session decides its own program's verdicts" >&2; exit 1; \
	fi

# guard-one-plan keeps each minimization phase on one prepared plan. The atom
# phase tests every candidate against the input program's session (every
# accepted deletion keeps the program uniformly equivalent to it), and the
# rule phase tests r against P − S − {r} by running P's plan with S ∪ {r}
# masked (eval.Prepared.RunMasked). Nothing derives a plan or a session for a
# program one rule away: no Derive method in non-test internal/chase or
# internal/eval, and no chase.Delta outside tests (DESIGN §6.5).
guard-one-plan:
	@if grep -nE '^func \([^)]*\) Derive\(' internal/chase/*.go internal/eval/*.go | grep -v '_test\.go:'; then \
		echo "a Derive method is back in internal/chase or internal/eval (make guard-one-plan): mask rules out of the one plan with RunMasked / ContainsRuleMasked" >&2; exit 1; \
	fi
	@if { grep -rnE '\bchase\.Delta\b' --include='*.go' . ; grep -nE '^type Delta\b' internal/chase/*.go; } | grep -v '_test\.go:'; then \
		echo "chase.Delta is back (make guard-one-plan): a minimization phase runs on one plan" >&2; exit 1; \
	fi

# guard-one-maintenance keeps one maintenance algorithm: every unit of a
# maintained view runs DRed (internal/eval/maintain.go), which on a unit that
# reads none of its own heads is one pass with no stamp walk and no restore.
# Derivation counting, the per-tuple count column it kept in the store and
# the switch that chose between the two stay deleted: none of their names
# may come back in non-test code under internal/.
guard-one-maintenance:
	@if grep -rnwE 'countCol|BumpCount|CountOf|TupleCount|EnableCounts|countingUnit|forceDRed' --include='*.go' internal | grep -v '_test\.go:'; then \
		echo "derivation counting is back (make guard-one-maintenance): every unit is maintained by DRed, and the store keeps no count column" >&2; exit 1; \
	fi

# guard-one-graph keeps every graph question about a program on the one
# kernel of internal/depgraph (kernel.go): one Tarjan that assigns component
# ids and one shortest path inside a component serve the dependence graph,
# the position graph and the existential-dependency graph alike. No Tarjan
# grows outside internal/depgraph or a second one inside it. Every program is
# scheduled by depgraph's producer-first SCC groups (Graph.RuleGroups), so
# internal/eval neither groups rules by component itself nor schedules by
# strata, and a containment test's goal cone is the graph's (Graph.Cone), not
# a walk of the Checker's own.
DEPGRAPH_SRC = $(filter-out %_test.go,$(wildcard internal/depgraph/*.go))
guard-one-graph:
	@if grep -rniE 'strongconnect|lowlink|onStack|tarjan' --include='*.go' internal cmd examples | grep -v '_test\.go:' | grep -v '^internal/depgraph/'; then \
		echo "a Tarjan outside internal/depgraph (make guard-one-graph): ask depgraph.Graph for components" >&2; exit 1; \
	fi
	@for pat in 'lowlink := ' 'strongconnect = func' 'queue := '; do \
		n=$$(cat $(DEPGRAPH_SRC) | grep -c "$$pat"); \
		if [ "$$n" != 1 ]; then \
			echo "internal/depgraph: $$n copies of '$$pat', want 1 (make guard-one-graph): one Tarjan and one in-component path search, in kernel.go" >&2; exit 1; \
		fi; \
	done
	@if grep -rnwE 'sccRuleGroups|scheduleGroups' --include='*.go' internal | grep -v '_test\.go:'; then \
		echo "a second rule-to-component grouping (make guard-one-graph): schedule by depgraph.Graph.RuleGroups" >&2; exit 1; \
	fi
	@if grep -nE 'depgraph\.Strata\(' internal/eval/*.go | grep -v '_test\.go:'; then \
		echo "internal/eval schedules by strata again (make guard-one-graph): every program runs on SCC groups" >&2; exit 1; \
	fi
	@if grep -nwE 'outsideCone|byHead|stack' internal/chase/*.go | grep -v '_test\.go:'; then \
		echo "internal/chase walks a goal cone itself again (make guard-one-graph): ask depgraph.Graph.Cone" >&2; exit 1; \
	fi

# guard-one-magic keeps one magic-sets rewrite for every stratifiable
# program: magic.Rewrite copies the strata below the query's unchanged and
# keeps each negated literal on its guarded rule, so one evaluation of the
# rewritten program answers the query. The fork that evaluated the lower
# strata apart, stripped the negated literals off the rules it rewrote and
# matched the rewritten rules back to their sources to reattach them stays
# deleted: none of its names may come back in non-test code under internal/,
# and internal/magic strips no NegBody.
guard-one-magic:
	@if grep -rnE 'AnswerStratified|sourceRuleIndex|\bunadorn\b' --include='*.go' internal | grep -v '_test\.go:'; then \
		echo "the strip-and-reattach magic fork is back (make guard-one-magic): magic.Rewrite adorns the query's stratum with its negated literals in place" >&2; exit 1; \
	fi
	@if grep -nE 'NegBody *= *nil' internal/magic/*.go | grep -v '_test\.go:'; then \
		echo "internal/magic strips negated literals (make guard-one-magic): adornRule keeps NegBody on the guarded rule" >&2; exit 1; \
	fi

# guard-one-cache keeps one plan cache and one session per program version.
# Every plan lookup goes through eval.DefaultPlanCache: no constructor,
# options struct or lineage takes another cache, so no struct carries a
# PlanCache field and eval.NewLineage takes no argument. A server program
# version owns the core.Session it opened; the registry that handed one
# session to every canonically equal program (and with it the first
# program's variable names) stays deleted, with the options it was built from.
guard-one-cache:
	@if grep -rnwE 'SessionOptions|sessionResolve|NewService' --include='*.go' internal cmd | grep -v '_test\.go:' || \
		grep -rnE '\bcore\.(Service|NewPlanCache)\b' --include='*.go' internal cmd | grep -v '_test\.go:'; then \
		echo "the session registry or the session options are back (make guard-one-cache): a program version owns the session it opened with core.NewSession" >&2; exit 1; \
	fi
	@if grep -rnE '^[[:space:]]+(PlanCache[[:space:]]+[^=]|[A-Za-z_][A-Za-z0-9_]*[[:space:]]+\*?(eval\.)?PlanCache[[:space:]]*(//.*)?$$)' --include='*.go' internal cmd | grep -v '_test\.go:'; then \
		echo "a struct carries a plan cache (make guard-one-cache): every lookup goes through eval.DefaultPlanCache" >&2; exit 1; \
	fi
	@if grep -rnE '\bNewLineage\([^)]' --include='*.go' internal cmd | grep -v '_test\.go:'; then \
		echo "eval.NewLineage takes an argument again (make guard-one-cache): a lineage is its stats, the cache is eval.DefaultPlanCache" >&2; exit 1; \
	fi

# guard-one-minimize keeps one minimizer for every stratifiable program:
# minimize.Program, Rule and IsMinimal take negated literals as deletion
# candidates, and the containment checker (internal/chase) owns the negation
# encoding its tests run on. The fork that encoded a stratified program,
# minimized the encoding through an admissibility hook and decoded the result
# stays deleted: none of its names, and no Valid field on minimize.Options,
# may come back in non-test code, and no non-test code outside internal/chase
# spells the encoding's neg@ prefix.
guard-one-minimize:
	@if grep -rnwE 'StratifiedProgram|MinimizeStratified|EncodeNegation|EncodeRuleNegation|DecodeRuleNegation|decodeNegation|mustDecodeRule' --include='*.go' internal cmd examples | grep -v '_test\.go:'; then \
		echo "the encode → minimize → decode fork is back (make guard-one-minimize): minimize.Program takes stratified programs, the checker owns the encoding" >&2; exit 1; \
	fi
	@if grep -nE '^[[:space:]]+Valid[[:space:]]' internal/minimize/*.go | grep -v '_test\.go:'; then \
		echo "minimize.Options has a Valid field again (make guard-one-minimize): ast.Rule.WellFormed is the one admissibility check" >&2; exit 1; \
	fi
	@if grep -rn --include='*.go' 'neg@' internal cmd examples | grep -v '_test\.go:' | grep -v '^internal/chase/'; then \
		echo "the negation encoding's prefix outside internal/chase (make guard-one-minimize): the containment checker owns the encoding" >&2; exit 1; \
	fi

# guard-one-clock keeps one clock for the paper's experiments. The harness
# computes what a run determines and defines each timed cell as an op beside
# its row; go test -bench times the ops (bench_test.go), make bench records
# them in BENCH_eval.json, and cmd/experiments reads every time cell from
# that record. So no non-test file of internal/harness or cmd/experiments
# imports "time", and the harness's stopwatch, timed(, stays deleted.
HARNESS_SRC = $(filter-out %_test.go,$(wildcard internal/harness/*.go cmd/experiments/*.go))
guard-one-clock:
	@if grep -nE '^[[:space:]]*(import[[:space:]]+)?([A-Za-z_.]+[[:space:]]+)?"time"[[:space:]]*$$' $(HARNESS_SRC); then \
		echo "internal/harness or cmd/experiments imports time (make guard-one-clock): a time cell is an Op, timed by go test -bench and read from BENCH_eval.json" >&2; exit 1; \
	fi
	@if grep -rnE '(^|[^A-Za-z0-9_.])timed\(' --include='*.go' internal/harness cmd/experiments; then \
		echo "the harness stopwatch timed( is back (make guard-one-clock): a time cell is an Op, timed by go test -bench and read from BENCH_eval.json" >&2; exit 1; \
	fi

# guard-no-empty-options keeps options that choose nothing out of every layer
# below the facade. No non-test file of internal/ or cmd/ declares an empty
# …Options struct, except the two internal/core keeps because bench/
# constructs them (core.EvalOptions, core.MaintainOptions, both ignored), and
# eval.Options and eval.MaintainOptions stay deleted everywhere.
EMPTY_OPTIONS_RE = ^[[:space:]]*(type[[:space:]]+)?[A-Za-z_][A-Za-z0-9_]*Options[[:space:]]+struct[[:space:]]*\{[[:space:]]*\}
guard-no-empty-options:
	@if grep -rnE '$(EMPTY_OPTIONS_RE)' --include='*.go' internal cmd | grep -v '_test\.go:' | grep -v '^internal/core/'; then \
		echo "an empty options type below the facade (make guard-no-empty-options): a setting nothing can change is no parameter" >&2; exit 1; \
	fi
	@if grep -rnE '$(EMPTY_OPTIONS_RE)' --include='*.go' internal/core | grep -v '_test\.go:' | grep -vE ':[[:space:]]*(type[[:space:]]+)?(EvalOptions|MaintainOptions)[[:space:]]'; then \
		echo "internal/core declares an empty options type beyond the two bench/ constructs (make guard-no-empty-options)" >&2; exit 1; \
	fi
	@if grep -rnE '\beval\.(Maintain)?Options\b' --include='*.go' . || \
		grep -nE '^[[:space:]]*(type[[:space:]]+)?(Maintain)?Options[[:space:]]' internal/eval/*.go; then \
		echo "eval.Options or eval.MaintainOptions is back (make guard-no-empty-options): evaluation and maintenance have no setting" >&2; exit 1; \
	fi

# guard-one-facade keeps internal/core a facade of what its callers call:
# every exported function declared in its non-test files is called as
# core.<Name>( and every exported method as .<Name>( from a Go file outside
# the package — the binaries, the server, the examples, the benchmark or the
# root tests. A name only core's own tests reach forwards nothing; delete it
# and let callers import the package that does the work.
FACADE_SRC = $(filter-out %_test.go,$(wildcard internal/core/*.go))
FACADE_CALLERS = bench examples cmd internal/service $(wildcard *_test.go)
guard-one-facade:
	@fail=0; \
	for n in $$(sed -nE 's/^func ([A-Z][A-Za-z0-9_]*)[[(].*/\1/p' $(FACADE_SRC)); do \
		grep -rqE --include='*.go' "\bcore\.$$n\(" $(FACADE_CALLERS) || { \
			echo "internal/core: nothing outside the package calls core.$$n (make guard-one-facade): delete it, callers import the package behind it" >&2; fail=1; }; \
	done; \
	for n in $$(sed -nE 's/^func \([^)]*\) ([A-Z][A-Za-z0-9_]*)[[(].*/\1/p' $(FACADE_SRC)); do \
		grep -rqE --include='*.go' "\.$$n\(" $(FACADE_CALLERS) || { \
			echo "internal/core: nothing outside the package calls method $$n (make guard-one-facade): delete it" >&2; fail=1; }; \
	done; \
	exit $$fail

# lint runs the guards and go vet always, and staticcheck when the binary is
# on PATH (the dev container does not bake it in; lint-ci installs the pinned
# version).
lint: guard-one-join guard-ctx-arg guard-no-batch-compact guard-delta-first guard-request-path guard-one-unfold guard-no-ablation-arm guard-no-transfer guard-one-plan guard-one-maintenance guard-one-graph guard-one-magic guard-one-cache guard-one-minimize guard-one-clock guard-no-empty-options guard-one-facade
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (make lint-ci installs it)"; \
	fi

lint-ci:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	PATH="$$($(GO) env GOPATH)/bin:$$PATH" $(MAKE) lint

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/minimize
	$(GO) run ./examples/equivalence
	$(GO) run ./examples/magic
	$(GO) run ./examples/stratified
	$(GO) run ./examples/pointsto
	$(GO) run ./examples/authz
	$(GO) run ./examples/incremental

clean:
	$(GO) clean ./...
