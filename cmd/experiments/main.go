// Command experiments regenerates the experiment tables E1–E9, E11, E12, E14
// and E15 described in DESIGN.md and recorded in EXPERIMENTS.md.
//
// Usage:
//
//	experiments            run all experiments
//	experiments -run E5    run a single experiment by id
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/harness"
)

func main() {
	runID := flag.String("run", "all", "experiment id to run (E1..E9, E11, E12, E14, E15, or 'all')")
	format := flag.String("format", "table", "output format: table, csv, or md")
	flag.Parse()

	render := func(t harness.Table) string {
		switch *format {
		case "csv":
			return t.CSV()
		case "md":
			return t.Markdown()
		default:
			return t.String()
		}
	}

	runners := map[string]func() harness.Table{
		"E1":  harness.E1WorkedExamples,
		"E2":  harness.E2UniformContainment,
		"E3":  harness.E3MinimizeRule,
		"E4":  harness.E4MinimizeProgram,
		"E5":  harness.E5EvalSpeedup,
		"E6":  harness.E6NaiveVsSemiNaive,
		"E7":  harness.E7EquivOpt,
		"E8":  harness.E8MagicComposition,
		"E9":  harness.E9EmbeddedChase,
		"E11": harness.E11Engines,
		"E12": harness.E12Incremental,
		"E14": harness.E14SIPS,
		"E15": harness.E15DerivationCounts,
	}

	id := strings.ToUpper(*runID)
	if id == "ALL" {
		for _, t := range harness.All() {
			fmt.Println(render(t))
		}
		return
	}
	runner, ok := runners[id]
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown id %q (want E1..E9, E11, E12, E14, E15 or all)\n", *runID)
		os.Exit(1)
	}
	fmt.Println(render(runner()))
}
