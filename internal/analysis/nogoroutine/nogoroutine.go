// Package nogoroutine forbids go statements outside the harness files
// that are allowed to create concurrency, and confines
// simulation-process creation (sim.Engine.Spawn / SpawnAt) to the
// layers that still need it.
//
// The simulator is single-threaded: simulation processes are iter.Pull
// coroutines that one event loop resumes in turn (internal/sim), so the
// engine itself contains no go statement. The only fan-out is the
// harness worker pools that run independent cells and prefix units
// (internal/harness/parallel.go, prefix.go). A goroutine spawned
// anywhere else either races the event loop — destroying the (t, seq)
// event ordering the paper's figures depend on — or runs allocation off
// the books, breaking the AllocsPerRun=0 accounting. New concurrency
// entry points must be designed, not sprinkled; extend the allowlist in
// this file only with a scheme that preserves both invariants.
//
// Spawn confinement is the per-packet corollary: device engines are
// chains of fn-event stages (Queue.PopFn, Resource.AcquireFn,
// Engine.After) that dispatch inline with no process switch. Processes — whose every wakeup by another process costs a
// coroutine yield to the event loop and a resume — are reserved for
// application code, where the blocking style carries real expressive
// weight and wakeups are rare. A Spawn call in a device-side package
// silently reintroduces that per-packet switch cost, so the rule makes
// it loud.
package nogoroutine

import (
	"go/ast"
	"go/types"
	"strings"

	"shrimp/internal/analysis"
)

// allowedFiles may contain go statements. Paths are matched by suffix
// so the rule works from any checkout location and on fixture trees.
// Whole packages on the host side of the boundary (servers, caches —
// see analysis.IsHostSide) are exempt wholesale instead: a daemon's
// connection handling is concurrency by design, not a leak into the
// simulator.
var allowedFiles = []string{
	"internal/harness/parallel.go", // experiment-cell worker pool
	"internal/harness/prefix.go",   // prefix-sharing unit pool: same shape as parallel.go, units instead of cells
}

// simPkgPath is the package whose Engine type owns Spawn/SpawnAt.
const simPkgPath = "shrimp/internal/sim"

// spawnAllowedPkgs may create simulation processes. Everything below
// the machine layer runs as continuation state machines; tests are
// exempt everywhere (driving a scenario with a blocking script is fine
// off the hot path).
var spawnAllowedPkgs = map[string]bool{
	"shrimp/internal/sim":     true, // Spawn's own implementation and timers
	"shrimp/internal/machine": true, // app processes: the blocking style is the API
}

// Analyzer is the nogoroutine rule.
var Analyzer = &analysis.Analyzer{
	Name: "nogoroutine",
	Doc: "forbid go statements outside the harness worker pools; " +
		"stray goroutines break deterministic event ordering and zero-alloc accounting",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if analysis.IsHostSide(pass.Pkg.Path()) {
		return nil
	}
	spawnOK := spawnAllowedPkgs[pass.Pkg.Path()]
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		filename := pass.Fset.Position(f.Pos()).Filename
		fileAllowed := allowed(filename)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !fileAllowed {
					pass.Reportf(n.Pos(),
						"go statement outside the scheduler allowlist; run work on the engine "+
							"(sim.Engine.Spawn / At / After) so event order stays deterministic, "+
							"or extend the allowlist in internal/analysis/nogoroutine with a design note")
				}
			case *ast.SelectorExpr:
				if spawnOK {
					return true
				}
				if isEngineSpawn(pass, n) {
					pass.Reportf(n.Pos(),
						"sim.Engine.%s outside the process allowlist; device-side code runs as "+
							"fn-event stages (Queue.PopFn, Resource.AcquireFn, Engine.After) "+
							"so the per-packet hot path has no process switches — processes are "+
							"reserved for internal/machine app code", n.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}

// isEngineSpawn reports whether sel names the Spawn or SpawnAt method
// of sim.Engine (catching both ordinary calls and method values).
func isEngineSpawn(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Spawn" && sel.Sel.Name != "SpawnAt" {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != simPkgPath {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Engine"
}

func allowed(filename string) bool {
	filename = strings.ReplaceAll(filename, "\\", "/")
	for _, suffix := range allowedFiles {
		if strings.HasSuffix(filename, suffix) {
			return true
		}
	}
	return false
}
