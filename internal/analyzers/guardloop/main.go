// Command guardloop is a `go vet -vettool` checker enforcing the
// resource-governance contract of the search and fixpoint engines:
// every potentially unbounded loop in packages ambig, cluster, digraph,
// glr, lint and treecount — a `for` statement with no post clause, i.e.
// `for {}` or a while-style work-list loop — must call a guard.Budget
// checkpoint (`.Check(...)` or `.Limit(...)`) somewhere in its body, so
// that a cancelled context or an exceeded deadline can always stop it.
// Loops whose bound is established by other means carry an explicit
// `//guardloop:ok` comment on the `for` line or the line above it.
//
// The tool speaks the cmd/go vet-tool protocol directly with the
// standard library alone (golang.org/x/tools is deliberately not a
// dependency of this repo):
//
//	guardloop -V=full       # identify itself for the build cache
//	guardloop -flags        # declare its flags (none)
//	guardloop <vet.cfg>     # check one package unit
//
// The analysis is syntactic (go/ast, no type checking): any method
// call named Check or Limit counts as a checkpoint.  That
// approximation is exact for the six packages the checker inspects,
// where those names are only used by guard.Budget.
//
// Run it as:
//
//	go build -o bin/guardloop ./internal/analyzers/guardloop
//	go vet -vettool=bin/guardloop ./...
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	for _, a := range args {
		switch a {
		case "-V=full", "--V=full":
			// Three fields, second "version", third not "devel": the shape
			// cmd/go/internal/work.(*Builder).toolID requires.
			fmt.Println("guardloop version 1.0.0")
			return 0
		case "-flags", "--flags":
			// No analyzer flags: an empty JSON flag list.
			fmt.Println("[]")
			return 0
		}
	}
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: guardloop [-V=full | -flags | vet.cfg]")
		return 2
	}
	return unit(args[0])
}

// vetConfig is the subset of cmd/go's vet.cfg the checker reads.
type vetConfig struct {
	ID         string
	Dir        string
	GoFiles    []string
	VetxOnly   bool
	VetxOutput string
}

func unit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "guardloop:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "guardloop: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	// The go command caches per-package facts through VetxOutput; this
	// checker has no facts, but writing the (empty) file keeps the
	// protocol honest.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "guardloop:", err)
			return 2
		}
	}
	if cfg.VetxOnly {
		return 0
	}
	diags, err := checkFiles(cfg.GoFiles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "guardloop:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", d.Pos, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
