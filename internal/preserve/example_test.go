package preserve_test

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/preserve"
)

// ExampleCheckPreliminary tests condition (3′) of Section X on Example 11's
// program: the depth-2 preliminary DB satisfies the tgd.
func ExampleCheckPreliminary() {
	p := parser.MustParseProgram(`
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z), A(y, w).
	`)
	tgd := parser.MustParseTGD("G(y, z) -> A(y, w).")
	v, _, _ := preserve.CheckPreliminary(p, []ast.TGD{tgd}, preserve.Options{Depth: 2})
	fmt.Println("preliminary DB satisfies at depth 2:", v)
	// Output:
	// preliminary DB satisfies at depth 2: yes
}
