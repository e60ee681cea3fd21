// Shrimpvet is the repo's determinism and hot-path vet suite: nine
// analyzers that enforce, at compile time, the invariants every
// experiment number depends on at run time — six per-function
// syntactic rules and three interprocedural ones (continuation safety,
// checkpoint coverage, pointer-identity leaks).
//
// Standalone:
//
//	shrimpvet ./...              # analyze packages, print findings
//	shrimpvet -sarif out.json ./...  # also write a SARIF 2.1.0 report
//	shrimpvet help               # list the rules
//
// As a go vet tool (what CI and `make lint` run):
//
//	go build -o shrimpvet ./cmd/shrimpvet
//	go vet -vettool=$PWD/shrimpvet ./...
//
// The vettool mode speaks cmd/go's unitchecker protocol: -V=full for
// build-cache fingerprinting, -flags for flag discovery, and a JSON
// .cfg file naming the package unit to analyze. Package facts (the
// interprocedural layer) ride the protocol's .vetx files; standalone
// mode computes them in-process by analyzing packages in dependency
// order. See docs/shrimpvet.md for the rule catalog and the
// suppression syntax.
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"shrimp/internal/analysis"
	"shrimp/internal/analysis/load"
	"shrimp/internal/analysis/registry"
)

const progname = "shrimpvet"

// analyzers is the suite, in rule-catalog order.
var analyzers = registry.All()

func main() {
	args := os.Args[1:]
	for _, a := range args {
		switch {
		case a == "-V" || strings.HasPrefix(a, "-V="):
			printVersion()
			return
		case a == "-flags":
			// Flag discovery handshake: the suite takes no flags in
			// vettool mode (-sarif is standalone-only).
			fmt.Println("[]")
			return
		}
	}
	sarifPath := ""
	if len(args) >= 2 && args[0] == "-sarif" {
		sarifPath = args[1]
		args = args[2:]
	}
	switch {
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(unitcheck(args[0]))
	case len(args) == 1 && args[0] == "help":
		printHelp()
	default:
		os.Exit(standalone(args, sarifPath))
	}
}

// printVersion emits the `-V=full` line cmd/go hashes into its build
// cache key, fingerprinted with the binary's own content so editing an
// analyzer invalidates cached vet results.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%x\n", progname, h.Sum(nil)[:12])
}

func printHelp() {
	fmt.Printf("%s: static checks for the SHRIMP simulator's determinism and hot-path invariants\n\n", progname)
	fmt.Printf("usage: %s [-sarif out.json] [package pattern ...]   (default ./...)\n", progname)
	fmt.Printf("   or: go vet -vettool=$(command -v %s) ./...\n\nrules:\n", progname)
	for _, a := range analyzers {
		fmt.Printf("  %-14s %s\n", a.Name, a.Doc)
	}
	fmt.Printf("\nsuppress a finding with a justified directive on or above the line:\n")
	fmt.Printf("  //lint:ignore <rule> <why this is safe>\n")
	fmt.Printf("\nsee docs/shrimpvet.md for the full catalog and rationale.\n")
}

// standalone loads the matched packages with `go list -export` and
// analyzes them in-process: facts are computed in dependency order
// through a shared store, findings are reported in the loader's
// (alphabetical) package order. Exit status 1 means findings.
func standalone(patterns []string, sarifPath string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.List(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		return 2
	}
	store := analysis.NewFactStore()
	byPath := map[string][]analysis.Diagnostic{}
	for _, pkg := range analysis.TopoOrder(pkgs) {
		diags, err := analysis.Run(pkg, analyzers, store)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
			return 2
		}
		byPath[pkg.Path] = diags
	}
	found := 0
	var results []sarifFinding
	for _, pkg := range pkgs {
		for _, d := range byPath[pkg.Path] {
			fmt.Printf("%s: [%s] %s\n", relPos(pkg, d), d.Analyzer, d.Message)
			pos := pkg.Fset.Position(d.Pos)
			results = append(results, sarifFinding{
				Rule: d.Analyzer, Message: d.Message,
				File: pos.Filename, Line: pos.Line, Col: pos.Column,
			})
			found++
		}
	}
	if sarifPath != "" {
		if err := writeSARIF(sarifPath, analyzers, results); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
			return 2
		}
	}
	if found > 0 {
		fmt.Printf("%s: %d finding(s)\n", progname, found)
		return 1
	}
	return 0
}

// relPos renders a diagnostic position relative to the working
// directory when that is shorter.
func relPos(pkg *analysis.Package, d analysis.Diagnostic) string {
	pos := pkg.Fset.Position(d.Pos)
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			pos.Filename = rel
		}
	}
	return pos.String()
}
