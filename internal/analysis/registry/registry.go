// Package registry names the shrimpvet suite in rule-catalog order.
//
// It exists so cmd/shrimpvet and the in-repo self-check test share one
// canonical list: adding an analyzer here simultaneously wires it into
// `go vet -vettool`, the standalone binary, `shrimpvet help`, and the
// tier-1 test that keeps the tree clean.
package registry

import (
	"shrimp/internal/analysis"
	"shrimp/internal/analysis/fncontext"
	"shrimp/internal/analysis/hotpath"
	"shrimp/internal/analysis/maporder"
	"shrimp/internal/analysis/nogoroutine"
	"shrimp/internal/analysis/ptrdet"
	"shrimp/internal/analysis/snapshotcover"
	"shrimp/internal/analysis/tracenil"
	"shrimp/internal/analysis/unseededrand"
	"shrimp/internal/analysis/walltime"
)

// All returns the suite in rule-catalog order (the order findings and
// help text are presented in). The per-function syntactic rules come
// first, then the v2 interprocedural ones; fncontext is the suite's
// only fact exporter, so runners share a FactStore and process
// packages in analysis.TopoOrder to have dependency facts ready.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		walltime.Analyzer,
		maporder.Analyzer,
		unseededrand.Analyzer,
		nogoroutine.Analyzer,
		hotpath.Analyzer,
		tracenil.Analyzer,
		fncontext.Analyzer,
		snapshotcover.Analyzer,
		ptrdet.Analyzer,
	}
}
