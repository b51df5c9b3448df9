// Command datalog is the command-line front end of the library: it parses,
// evaluates, minimizes, compares, and magic-rewrites Datalog programs in
// the concrete syntax of internal/parser, and can run as a long-lived
// multi-tenant query server.
//
// Usage:
//
//	datalog parse     <file>           parse and pretty-print
//	datalog fmt       <file>           canonical formatting (idempotent)
//	datalog eval      <file>           evaluate facts in the file, print DB
//	datalog query     <file> <atom>    evaluate and print matching tuples
//	datalog minimize  <file>           Fig. 2 minimization (uniform equiv.)
//	datalog equivopt  <file>           Section XI optimization (plain equiv.)
//	datalog contains  <file1> <file2>  uniform containment both ways
//	datalog compare   <file1> <file2>  full containment/equivalence report
//	datalog preserve  <file>           Fig. 3 + (3′) for the file's tgds
//	datalog check     <file>           evaluate, then verify the file's tgds
//	datalog magic     <file> <atom>    print the magic-sets rewriting
//	datalog explain   <file> <fact>    print a derivation tree for a fact
//	datalog graph     <file>           dependence graph in Graphviz DOT
//	datalog repl                       interactive session
//	datalog optimize  <file> <atom>    full pipeline: prune+minimize+equivopt+magic
//	datalog vet       <file...>        static analysis; exit 1 on error findings
//	datalog serve     [name=file ...]  HTTP/JSON query server (see -addr)
//
// A file argument of "-" reads standard input. Flags:
//
//	-stats    print evaluation statistics
//	-v        print cache/session statistics (compare, minimize)
//	-json     machine-readable vet output
//	-addr     listen address for serve (default 127.0.0.1:8371)
//	-cpuprofile  write a CPU profile of the subcommand to the named file
//
// The command implementations live in sibling files by family: cmd_show.go
// (parse/fmt/graph/magic/explain), cmd_eval.go (eval/query/check),
// cmd_opt.go (minimize/equivopt/contains/preserve/optimize), compare.go,
// vet.go, repl.go and serve.go. They all hang off the cli struct below,
// which carries the parsed global flags and the output writer.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"

	"repro/internal/ast"
	"repro/internal/chase"
	"repro/internal/eval"
	"repro/internal/parser"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "datalog:", err)
		os.Exit(1)
	}
}

// cli carries the global flags and output sink shared by every subcommand.
type cli struct {
	out     io.Writer
	stats   bool
	verbose bool
	jsonOut bool
	addr    string
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("datalog", flag.ContinueOnError)
	stats := fs.Bool("stats", false, "print evaluation statistics")
	verbose := fs.Bool("v", false, "print cache/session statistics")
	jsonOut := fs.Bool("json", false, "machine-readable vet output")
	addr := fs.String("addr", "127.0.0.1:8371", "listen address for serve")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the subcommand to this file")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("usage: datalog <parse|eval|query|optimize|minimize|equivopt|contains|compare|check|preserve|magic|explain|graph|fmt|vet|repl|serve> ...")
	}
	cmd, rest := rest[0], rest[1:]

	c := &cli{out: out, stats: *stats, verbose: *verbose, jsonOut: *jsonOut, addr: *addr}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	switch cmd {
	case "fmt", "parse":
		return c.cmdFmt(rest)
	case "eval":
		return c.cmdEval(rest)
	case "query":
		return c.cmdQuery(rest)
	case "check":
		return c.cmdCheck(rest)
	case "minimize":
		return c.cmdMinimize(rest)
	case "equivopt":
		return c.cmdEquivOpt(rest)
	case "contains":
		return c.cmdContains(rest)
	case "compare":
		if len(rest) < 2 {
			return fmt.Errorf("usage: datalog compare <file1> <file2>")
		}
		p1, err := loadProgram(rest[0])
		if err != nil {
			return err
		}
		p2, err := loadProgram(rest[1])
		if err != nil {
			return err
		}
		return compareReport(c.out, p1, p2, c.verbose)
	case "preserve":
		return c.cmdPreserve(rest)
	case "optimize":
		return c.cmdOptimize(rest)
	case "explain":
		return c.cmdExplain(rest)
	case "graph":
		return c.cmdGraph(rest)
	case "magic":
		return c.cmdMagic(rest)
	case "vet":
		return vet(rest, c.jsonOut, c.out)
	case "repl":
		return repl(os.Stdin, c.out)
	case "serve":
		return c.cmdServe(rest)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// printSessionStats renders a containment session's cache counters plus the
// process-wide plan cache and verdict store state.
func printSessionStats(out io.Writer, st eval.Stats) {
	fmt.Fprintf(out, "%% session: plan hits=%d misses=%d, verdicts reused=%d subsumed=%d recomputed=%d\n",
		st.PrepareHits, st.PrepareMisses, st.VerdictsReused, st.VerdictsSubsumed, st.VerdictsRecomputed)
	printKernelStats(out, "session: ", st)
	cs := eval.DefaultPlanCache.Stats()
	fmt.Fprintf(out, "%% plan cache: hits=%d misses=%d evictions=%d entries=%d\n",
		cs.Hits, cs.Misses, cs.Evictions, cs.Entries)
	vs := chase.VerdictStoreStats()
	fmt.Fprintf(out, "%% verdict store: programs=%d verdicts=%d lookups=%d hits=%d evictions=%d\n",
		vs.Programs, vs.Verdicts, vs.Lookups, vs.Hits, vs.Evictions)
}

// printKernelStats renders the stream counter group — the line `eval
// -stats` and the `-v` session report share — under prefix.
func printKernelStats(out io.Writer, prefix string, st eval.Stats) {
	fmt.Fprintf(out, "%% %sstrata streamed=%d materialized=%d, bindings pipelined=%d, early-stop cuts=%d\n",
		prefix, st.StrataStreamed, st.StrataMaterialized, st.BindingsPipelined, st.EarlyStopCuts)
}

// load reads and parses the file named by rest[0] ("-" = stdin) and checks
// that at least extraArgs further arguments are present. A predicate whose
// facts disagree on its arity is an error wrapping eval.ErrArity: the store
// would panic on building the file's database.
func load(rest []string, extraArgs int) (*parser.Result, error) {
	if len(rest) < 1+extraArgs {
		return nil, fmt.Errorf("missing argument(s)")
	}
	src, err := read(rest[0])
	if err != nil {
		return nil, err
	}
	res, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := (eval.Delta{Assert: res.Facts}).CheckArities(); err != nil {
		return nil, err
	}
	return res, nil
}

func loadProgram(name string) (*ast.Program, error) {
	src, err := read(name)
	if err != nil {
		return nil, err
	}
	res, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return res.Program, nil
}

func read(name string) (string, error) {
	if name == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(name)
	return string(b), err
}
