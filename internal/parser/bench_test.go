package parser

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// eightRules is the 8-rule program TestParseAllocations and BenchmarkParse
// parse.
const eightRules = `
		G(x, z) :- A(x, z).
		G(x, z) :- G(x, y), G(y, z).
		H(x) :- G(x, y), B(y), !C(x).
		H(x) :- A(x, x).
		K(x, y, z) :- A(x, y), A(y, z), B(z).
		K(x, y, z) :- K(x, y, w), A(w, z).
		L(x) :- K(x, x, x), H(x).
		L(x) :- B(x), !H(x).
	`

// factBlock is n facts of two integer columns, one a line.
func factBlock(n int) string {
	var sb strings.Builder
	for i := range n {
		fmt.Fprintf(&sb, "A(%d, %d).\n", i, 7*i%1000)
	}
	return sb.String()
}

// BenchmarkParse prices Parse in bytes per second on the repository's
// example programs (each .dl file under testdata that parses), the 8-rule
// program and a block of 1,000 facts.
func BenchmarkParse(b *testing.B) {
	paths, err := filepath.Glob("../../testdata/*.dl")
	if err != nil {
		b.Fatal(err)
	}
	var corpus []string
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Parse(string(src)); err == nil {
			corpus = append(corpus, string(src))
		}
	}
	for _, bc := range []struct {
		name string
		srcs []string
	}{
		{"corpus", corpus},
		{"8-rules", []string{eightRules}},
		{"1000-facts", []string{factBlock(1000)}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			n := 0
			for _, src := range bc.srcs {
				n += len(src)
			}
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for range b.N {
				for _, src := range bc.srcs {
					if _, err := Parse(src); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
