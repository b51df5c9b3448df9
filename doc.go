// Package repro is a from-scratch Go reproduction of Yehoshua Sagiv,
// "Optimizing Datalog Programs" (PODS 1987): uniform containment and
// equivalence of Datalog programs, chase-based decision procedures,
// minimization under uniform equivalence (the paper's Figs. 1–2),
// tgd-preservation testing (Fig. 3), and optimization under plain
// equivalence (Sections X–XI), together with the substrates they need — a
// Datalog parser, a naive/semi-naive bottom-up evaluator and a magic-sets
// rewriter. The conjunctive-query procedures Section V cites for the
// non-recursive case live in internal/oracle/cq, as a test oracle.
//
// See README.md for a guided tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the experiment suite E1–E15. The public API lives in
// internal/core; bench_test.go in this directory regenerates every
// experiment as a Go benchmark.
package repro
