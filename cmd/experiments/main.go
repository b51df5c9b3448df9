// Command experiments prints the experiment tables E1–E9, E11, E12, E14 and
// E15 of DESIGN.md, as EXPERIMENTS.md records them: the harness computes
// every verdict, count and shape, and each time cell is read, as median ±
// spread, from the row of BENCH_eval.json (in the working directory) it names.
//
// Usage:
//
//	experiments            run all experiments
//	experiments -run E5    run a single experiment by id
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/harness"
)

// recordPath is the benchmark record the time cells are read from.
const recordPath = "BENCH_eval.json"

func main() {
	runID := flag.String("run", "all", "experiment id to run (E1..E9, E11, E12, E14, E15, or 'all')")
	flag.Parse()

	rec, err := readRecord(recordPath)
	if err != nil {
		fail(err)
	}
	id, ran := strings.ToUpper(*runID), false
	for _, e := range harness.Experiments {
		if id != "ALL" && id != e.ID {
			continue
		}
		t := e.Run()
		if err := fillTimes(&t, rec); err != nil {
			fail(err)
		}
		fmt.Println(t)
		ran = true
	}
	if !ran {
		fail(fmt.Errorf("unknown id %q (want E1..E9, E11, E12, E14, E15 or all)", *runID))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// readRecord loads a benchmark record.
func readRecord(path string) (harness.Record, error) {
	var rec harness.Record
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &rec)
	}
	return rec, err
}

// fillTimes replaces each timed cell of t — the name of the benchmark row
// that times it — by that row's median and spread.
func fillTimes(t *harness.Table, rec harness.Record) error {
	timed := make(map[string]bool, len(t.Ops))
	for _, op := range t.Ops {
		timed[t.Bench+"/"+op.Name] = true
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if !timed[cell] {
				continue
			}
			j := slices.IndexFunc(rec.Benchmarks, func(r harness.Row) bool { return r.Name == cell })
			if j < 0 {
				return fmt.Errorf("%s: %s is not recorded in %s (make bench)", t.ID, cell, recordPath)
			}
			row[i] = rec.Benchmarks[j].Cell()
		}
	}
	return nil
}
