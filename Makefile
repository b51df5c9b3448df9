GO ?= go

# Benchmarks tracked in BENCH_eval.json: the experiment tables' families
# (EXPERIMENTS.md reads its time cells from their rows) and the eval/chase
# hot-path families. Each runs five times; benchjson folds the samples into
# a median and quartiles per row.
BENCH_PATTERN ?= BenchmarkE2_|BenchmarkE3_|BenchmarkE4_|BenchmarkE5_|BenchmarkE6_|BenchmarkE7_|BenchmarkE8_|BenchmarkE9_|BenchmarkE12_|BenchmarkE14_|BenchmarkEngines|BenchmarkEvalShapes|BenchmarkAblation_TerminationFastPath|BenchmarkMaintain_DRed|BenchmarkSmallTenantEvalVsApply
BENCHTIME ?= 0.3s

# staticcheck pin for lint-ci; bump deliberately, not implicitly.
STATICCHECK_VERSION ?= 2025.1

.PHONY: all build vet datalog-vet test fuzz-short race race-service bench bench-shapes bench-maintain bench-all experiments examples lint lint-ci clean

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

# fuzz-short runs each fuzz target for a few seconds: the two layers every
# program passes through first — the parser (no panic, positions in source
# order, print/parse round trip, and every result and error held to the
# rune-at-a-time reference parser kept in its tests, for whole sources and
# for the one-atom queries) and the canonical rendering (the address of
# the plan cache and the verdict store; held byte for byte to a map-based
# reference renderer) —, the 2Q cache both memos are built on (random
# lookups and stores replayed against a slice-based reference 2Q), the
# [P, T] chase loop (a drawn program, tgd set, start database and budget,
# held to the reference loops kept in internal/chase/loop_test.go), and the
# maintained view (a drawn oracle program, seed and batch bound: every
# Apply's output, input, stamps, support and Diff held to re-evaluation).
fuzz-short:
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=10s ./internal/parser
	$(GO) test -run='^$$' -fuzz='^FuzzParseAtom$$' -fuzztime=10s ./internal/parser
	$(GO) test -run='^$$' -fuzz='^FuzzCanonicalRule$$' -fuzztime=10s ./internal/ast
	$(GO) test -run='^$$' -fuzz='^FuzzCache$$' -fuzztime=10s ./internal/twoq
	$(GO) test -run='^$$' -fuzz='^FuzzChase$$' -fuzztime=10s ./internal/chase
	$(GO) test -run='^$$' -fuzz='^FuzzMaintain$$' -fuzztime=10s ./internal/eval

race:
	$(GO) test -race ./...

# race-service race-checks the multi-tenant service stack in full: the
# session facade, the HTTP layer and its subscription fan-out, the
# copy-on-freeze snapshots they evaluate, the retention window that frees
# them (TestVersionRetentionBound: 10,000 batches under pinned readers), the
# self-locking symbol table every parse and render of a program name shares,
# and the store under incremental view maintenance — its version chains (dead
# bitmaps, shared bases, flatten: the seeded differential scripts of
# versions_test.go, with goroutines probing frozen versions while the lineage
# writes), the two seal passes (the radix canonical order and the
# rank-renumbering flatten) and the facade's View.Apply diffs
# (TestSessionMaterializeApply). The DRed engine itself (its randomized
# oracle grid, the stamp invariant, the shared support-check order memo, the
# scratch sets' Reset) is internal/eval, which CI's hot-path race step runs
# in full.
race-service:
	$(GO) test -race ./internal/ast ./internal/core ./internal/service ./internal/db

# bench runs the benchmark families of BENCH_PATTERN and records ns/op
# (median and quartiles), B/op and allocs/op per benchmark in
# BENCH_eval.json, so the perf trajectory is tracked from PR to PR and
# EXPERIMENTS.md's time cells have one source. The termination ablation sets
# an unexported switch, so it lives in internal/chase.
bench:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem -benchtime=$(BENCHTIME) -count=5 -timeout=60m . ./internal/chase | tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_eval.json

# bench-shapes runs BenchmarkEvalShapes alone: each fixpoint shape one-shot
# (a fresh plan per Eval) and warm (one plan, Run per iteration, its head
# relations sized from the previous run), so the cold/warm pair can be
# re-measured without the full bench.
bench-shapes:
	$(GO) test -run='^$$' -bench='^BenchmarkEvalShapes$$' -benchmem -count=5 .

# bench-maintain runs the view-maintenance families alone —
# BenchmarkMaintain_DRed (delete-rederive on four maintained-view scripts:
# ns/op, allocs/op and overdeleted/op per arm) and
# BenchmarkSmallTenantEvalVsApply — so a change to view maintenance can be
# priced without the full bench, and replaces their rows, and only theirs, in
# BENCH_eval.json (benchjson -merge).
bench-maintain:
	$(GO) test -run='^$$' -bench='^(BenchmarkMaintain_DRed|BenchmarkSmallTenantEvalVsApply)$$' -benchmem -benchtime=$(BENCHTIME) -count=5 . | tee /dev/stderr | $(GO) run ./cmd/benchjson -merge -o BENCH_eval.json

bench-all:
	$(GO) test -bench=. -benchmem .

experiments:
	$(GO) run ./cmd/experiments -run all

# lint runs go vet always, and staticcheck when the binary is on PATH (the dev
# container does not bake it in; lint-ci installs the pinned version). The
# structure guards are TestStructure in the root package, run by make test.
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (make lint-ci installs it)"; \
	fi

lint-ci:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	PATH="$$($(GO) env GOPATH)/bin:$$PATH" $(MAKE) lint

# examples runs each shipped example and diffs its stdout against the golden
# testdata/examples/<name>.out: an example that fails or prints anything else
# fails the target.
EXAMPLES = quickstart minimize equivalence magic stratified pointsto authz incremental

examples:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && for e in $(EXAMPLES); do \
		echo "examples/$$e"; \
		$(GO) run ./examples/$$e > "$$tmp/$$e.out" && diff -u testdata/examples/$$e.out "$$tmp/$$e.out" || exit 1; \
	done

clean:
	$(GO) clean ./...
