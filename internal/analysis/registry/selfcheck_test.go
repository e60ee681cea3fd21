package registry_test

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"testing"
	"time"

	"shrimp/internal/analysis"
	"shrimp/internal/analysis/load"
	"shrimp/internal/analysis/registry"
)

// TestTreeIsClean runs the full shrimpvet suite over the live module
// and fails on any finding. This keeps `go test ./...` (tier 1) as
// strict as the CI vet step: a change that violates a determinism or
// hot-path rule fails the ordinary test run, not just `make lint`.
// It doubles as the suite's runtime budget check: the interprocedural
// analyzers (fncontext, snapshotcover, ptrdet) must stay cheap
// enough that the whole module analyzes inside suiteBudget, or the
// edit-vet loop stops being interactive.
const suiteBudget = 60 * time.Second

func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	start := time.Now()
	pkgs, err := load.List("../../..", "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader matched no packages")
	}
	suite := registry.All()
	store := analysis.NewFactStore()
	for _, pkg := range analysis.TopoOrder(pkgs) {
		diags, err := analysis.Run(pkg, suite, store)
		if err != nil {
			t.Fatalf("%s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s: [%s] %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
	if t.Failed() {
		fmt.Println("fix the violation or add a justified //lint:ignore directive (docs/shrimpvet.md)")
	}
	if elapsed := time.Since(start); elapsed > suiteBudget {
		t.Errorf("suite took %v over the whole module, past the %v budget; an analyzer has gone super-linear", elapsed, suiteBudget)
	} else {
		t.Logf("suite over the whole module: %v (budget %v)", elapsed, suiteBudget)
	}
}

// TestSpawnConfinement inventories every non-test call site of
// sim.Engine.Spawn / SpawnAt in the live module and pins the result to
// the two packages allowed to create simulation processes. Since PR 6
// the device engines are continuation state machines, so the process
// API must not creep back below the machine layer — and the inventory
// must not be empty either, or the app layer silently lost its
// processes. The nogoroutine analyzer enforces the same rule
// diagnostically; this test asserts the positive shape of the tree.
func TestSpawnConfinement(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := load.List("../../..", "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	// load.List parses GoFiles only, so _test.go files are already out.
	sites := map[string]int{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Spawn" && sel.Sel.Name != "SpawnAt") {
					return true
				}
				fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "shrimp/internal/sim" {
					return true
				}
				recv := fn.Type().(*types.Signature).Recv()
				if recv == nil {
					return true
				}
				rt := recv.Type()
				if p, ok := rt.(*types.Pointer); ok {
					rt = p.Elem()
				}
				if named, ok := rt.(*types.Named); ok && named.Obj().Name() == "Engine" {
					sites[pkg.Path]++
				}
				return true
			})
		}
	}
	allowed := map[string]bool{
		"shrimp/internal/sim":     true,
		"shrimp/internal/machine": true,
	}
	var got []string
	for path := range sites {
		got = append(got, path)
		if !allowed[path] {
			t.Errorf("%s: %d sim.Engine.Spawn/SpawnAt call site(s); device-side code must use "+
				"fn-event stages (Queue.PopFn, Resource.AcquireFn, Engine.After)",
				path, sites[path])
		}
	}
	if sites["shrimp/internal/machine"] == 0 {
		t.Error("no Spawn call sites in shrimp/internal/machine; the app layer should still run processes")
	}
	sort.Strings(got)
	t.Logf("Spawn call sites by package: %v", got)
}
