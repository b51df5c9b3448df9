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
// Each subcommand that reads one source file is a function of the parsed
// source (*parser.Result) and the arguments after the file: cmd_show.go
// (parse/fmt/graph/magic/explain), cmd_eval.go (eval/query/check) and
// cmd_opt.go (minimize/equivopt/preserve/optimize). The REPL (repl.go)
// keeps a *parser.Result as its session and calls the same functions over
// it. contains (cmd_opt.go), compare.go, vet.go and serve.go read their own
// arguments. All hang off the cli struct below, which carries the parsed
// global flags and the output writer; the commands table maps each name to
// its function.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"

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

// commands is what run dispatches. A source command reads one file, which
// run loads, and takes nargs arguments after it; the REPL calls the same
// functions over its session. The others read their arguments as given.
var commands = []struct {
	name   string
	nargs  int
	source func(*cli, *parser.Result, []string) error
	args   func(*cli, []string) error
}{
	{name: "parse", source: (*cli).cmdFmt},
	{name: "fmt", source: (*cli).cmdFmt},
	{name: "eval", source: (*cli).cmdEval},
	{name: "query", nargs: 1, source: (*cli).cmdQuery},
	{name: "check", source: (*cli).cmdCheck},
	{name: "minimize", source: (*cli).cmdMinimize},
	{name: "equivopt", source: (*cli).cmdEquivOpt},
	{name: "preserve", source: (*cli).cmdPreserve},
	{name: "optimize", nargs: 1, source: (*cli).cmdOptimize},
	{name: "explain", nargs: 1, source: (*cli).cmdExplain},
	{name: "graph", source: (*cli).cmdGraph},
	{name: "magic", nargs: 1, source: (*cli).cmdMagic},
	{name: "contains", args: (*cli).cmdContains},
	{name: "compare", args: (*cli).cmdCompare},
	{name: "vet", args: (*cli).cmdVet},
	{name: "repl", args: func(c *cli, _ []string) error { return repl(os.Stdin, c.out) }},
	{name: "serve", args: (*cli).cmdServe},
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
		names := make([]string, len(commands))
		for i, cmd := range commands {
			names[i] = cmd.name
		}
		return fmt.Errorf("usage: datalog <%s> ...", strings.Join(names, "|"))
	}
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
	for _, cmd := range commands {
		if cmd.name != rest[0] {
			continue
		}
		if cmd.args != nil {
			return cmd.args(c, rest[1:])
		}
		src, err := load(rest[1:], cmd.nargs)
		if err != nil {
			return err
		}
		return cmd.source(c, src, rest[2:])
	}
	return fmt.Errorf("unknown command %q", rest[0])
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

func read(name string) (string, error) {
	if name == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(name)
	return string(b), err
}
