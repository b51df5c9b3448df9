package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/parser"
)

// cmdVet runs the static analyzer over each file and prints its findings,
// human-readable by default or as a JSON array with -json. It returns an
// error (so the process exits 1) iff any finding has error severity.
func (c *cli) cmdVet(files []string) error {
	out := c.out
	if len(files) == 0 {
		return fmt.Errorf("usage: datalog vet [-json] <file...>")
	}
	var all []vetFinding
	nerr := 0
	for _, name := range files {
		for _, d := range vetFile(name) {
			all = append(all, vetFinding{File: name, Diagnostic: d})
			if d.Severity == analysis.Error {
				nerr++
			}
		}
	}
	if c.jsonOut {
		if err := writeVetJSON(out, all); err != nil {
			return err
		}
	} else {
		for _, f := range all {
			fmt.Fprintln(out, f.human())
			for _, rel := range f.Related {
				fmt.Fprintf(out, "\t%s: %s\n", vetPos(f.File, rel.Pos), rel.Message)
			}
		}
	}
	if nerr > 0 {
		return fmt.Errorf("vet: %d error finding(s)", nerr)
	}
	return nil
}

// vetFile analyzes one file. A source that cannot be read or does not parse
// yields a single DL0000 diagnostic, at the syntax error's position.
func vetFile(name string) []analysis.Diagnostic {
	src, err := read(name)
	if err == nil {
		var res *parser.Result
		if res, err = parser.ParseLoose(src); err == nil {
			return analysis.Analyze(res)
		}
	}
	d := analysis.Diagnostic{Code: analysis.CodeParse, Severity: analysis.Error, Message: err.Error(), Pass: "parse"}
	var syntax *parser.Error
	if errors.As(err, &syntax) {
		d.Pos, d.Message = syntax.Pos, syntax.Msg
	}
	return []analysis.Diagnostic{d}
}

// vetFinding is one diagnostic tagged with the file it came from.
type vetFinding struct {
	File string
	analysis.Diagnostic
}

// human renders "file:line:col: severity: message [CODE]".
func (f vetFinding) human() string {
	return fmt.Sprintf("%s: %s: %s [%s]", vetPos(f.File, f.Pos), f.Severity, f.Message, f.Code)
}

// vetPos renders "file:line:col", or just the file when the position is
// unknown.
func vetPos(file string, pos ast.Pos) string {
	if !pos.IsValid() {
		return file
	}
	return fmt.Sprintf("%s:%s", file, pos)
}

// JSON shapes. Positions become nested objects; unknown positions are
// omitted entirely rather than serialized as 0:0.
type vetJSONPos struct {
	Line int `json:"line"`
	Col  int `json:"col"`
}

type vetJSONRelated struct {
	Pos     *vetJSONPos `json:"pos,omitempty"`
	Message string      `json:"message"`
}

type vetJSONFinding struct {
	File     string           `json:"file"`
	Code     string           `json:"code"`
	Severity string           `json:"severity"`
	Pos      *vetJSONPos      `json:"pos,omitempty"`
	Message  string           `json:"message"`
	Pass     string           `json:"pass"`
	Related  []vetJSONRelated `json:"related,omitempty"`
}

func jsonPos(p ast.Pos) *vetJSONPos {
	if !p.IsValid() {
		return nil
	}
	return &vetJSONPos{Line: p.Line, Col: p.Col}
}

func writeVetJSON(out io.Writer, findings []vetFinding) error {
	arr := make([]vetJSONFinding, 0, len(findings))
	for _, f := range findings {
		jf := vetJSONFinding{
			File:     f.File,
			Code:     f.Code,
			Severity: f.Severity.String(),
			Pos:      jsonPos(f.Pos),
			Message:  f.Message,
			Pass:     f.Pass,
		}
		for _, rel := range f.Related {
			jf.Related = append(jf.Related, vetJSONRelated{Pos: jsonPos(rel.Pos), Message: rel.Message})
		}
		arr = append(arr, jf)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(arr)
}
