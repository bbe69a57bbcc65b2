package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
)

// Diag is one finding, positioned at the offending `for` keyword.
type Diag struct {
	Pos     string // file:line:col
	Message string
}

// checkedPackages are the engines whose loops must be budget-governed:
// they search or iterate to fixpoints over inputs the caller does not
// control, so every potentially unbounded loop needs a cancellation
// checkpoint.
var checkedPackages = map[string]bool{
	"ambig":     true,
	"cluster":   true,
	"digraph":   true,
	"glr":       true,
	"grammar":   true,
	"lint":      true,
	"treecount": true,
}

// checkFiles parses the given Go files and returns the unguarded-loop
// findings.  Packages other than the governed engines produce none;
// test files are exempt (they bound their own loops).
func checkFiles(paths []string) ([]Diag, error) {
	fset := token.NewFileSet()
	var diags []Diag
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		diags = append(diags, checkFile(fset, f)...)
	}
	return diags, nil
}

// checkFile flags every `for` loop with no post clause (`for {}` and
// while-style work-list loops — the shapes whose iteration count no
// local counter bounds) that neither calls a budget checkpoint in its
// body nor carries a //guardloop:ok waiver.
func checkFile(fset *token.FileSet, f *ast.File) []Diag {
	if !checkedPackages[f.Name.Name] {
		return nil
	}
	waived := waivedLines(fset, f)
	var diags []Diag
	ast.Inspect(f, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Post != nil {
			return true
		}
		pos := fset.Position(loop.For)
		if waived[pos.Line] || waived[pos.Line-1] {
			return true
		}
		if hasCheckpoint(loop.Body) {
			return true
		}
		diags = append(diags, Diag{
			Pos: pos.String(),
			Message: "unbounded for-loop in package " + f.Name.Name +
				" without a guard.Budget checkpoint: call .Check()/.Limit() in the body" +
				" or annotate the loop with //guardloop:ok",
		})
		return true
	})
	return diags
}

// waivedLines collects the lines carrying a //guardloop:ok comment; a
// waiver covers a `for` on the same line or the line below.
func waivedLines(fset *token.FileSet, f *ast.File) map[int]bool {
	out := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "guardloop:ok") {
				out[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return out
}

// hasCheckpoint reports whether the body contains a call to a method
// named Check or Limit — in the governed packages those names belong
// exclusively to guard.Budget.  A checkpoint anywhere in the body
// (including nested blocks) satisfies the rule; whether it runs every
// iteration is the engine's concern, reaching it eventually is the
// checker's.
func hasCheckpoint(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if ok && (sel.Sel.Name == "Check" || sel.Sel.Name == "Limit") {
			found = true
			return false
		}
		return true
	})
	return found
}
