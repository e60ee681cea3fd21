// Package snapshotcover defines an Analyzer that keeps checkpointing
// complete: in every package that has a snapshot.go, each field of a
// snapshotted struct must either be referenced by both sides of the
// Snapshot/Restore pair or carry an explicit //shrimp:nostate
// annotation saying why rewind may skip it. The annotations are the
// only record of how a field that is not copied is handled; there is
// no separate table to keep in step with them.
//
// Because the rule looks at references rather than at a list of
// names, it catches both a new field nobody classified and the dual
// bug where a field's capture or restore line was deleted from
// snapshot.go.
//
// # What counts as a snapshotted struct
//
// Three triggers, all local to the package:
//
//   - the base receiver type of any capture- or restore-side function
//     declared in snapshot.go,
//   - any struct with a field that both sides reference, and
//   - any struct whose type declaration is marked //shrimp:state
//     (needed only for state none of whose fields both sides copy).
//
// A //shrimp:nostate annotation on a struct that none of these makes
// snapshotted is a diagnostic: it documents state nothing checks. So
// deleting a //shrimp:state mark cannot quietly take a struct out from
// under the rule; either the pair still copies one of its fields, or
// its annotations become diagnostics.
//
// Capture-side roots are functions named Take, BeginSnapshot, capture,
// or with a Snapshot/snapshot prefix; restore-side roots have a
// Restore/restore prefix. Sides propagate through calls to other
// functions declared in the same snapshot.go (helpers like
// svm.eachRing or the vmmc per-endpoint walkers inherit the side of
// every root that reaches them). Quiescence checks are deliberately
// not a side: asserting a queue empty is not capturing it.
//
// # The field rule
//
// A field of a snapshotted struct, embedded fields included, is
// covered when it is referenced in at least one capture-side and at
// least one restore-side function, or when it is annotated:
//
//	//shrimp:nostate <class>: <why>
//
// A reference is a selection (x.f, however deep the chain), a
// composite-literal key (T{f: v}), or a promoted selection through an
// embedded field (x.g where g belongs to the embedded type references
// the embedded field too). <class> is one of:
//
//   - captured: copied by a Snapshot and written back by Restore
//     through some path the reference rule cannot see.
//   - asserted: must be empty or idle at quiescence, which Quiescent
//     checks (or transient engine state that quiescence implies is
//     dead).
//   - wiring: identical across branches by construction — pointers,
//     closures, freelists, immutable config — never touched by rewind.
//
// A malformed annotation (unknown class, missing justification) is
// itself a diagnostic.
package snapshotcover

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"shrimp/internal/analysis"
)

const (
	// StateDirective marks a struct type as snapshotted state even when
	// no side function has it as a receiver and no side copies a field.
	StateDirective = "//shrimp:state"
	// NoStateDirective excuses one field from the two-sided reference
	// rule; it must name a class and a justification.
	NoStateDirective = "//shrimp:nostate"
)

// classes is the annotation vocabulary, described in the package doc.
var classes = []string{"captured", "asserted", "wiring"}

// Analyzer rejects snapshotted-struct fields that the package's
// snapshot.go neither captures and restores nor annotates away.
var Analyzer = &analysis.Analyzer{
	Name: "snapshotcover",
	Doc: "check that every field of a snapshotted struct is referenced by both sides " +
		"of its package's snapshot.go Snapshot/Restore pair, or carries a " +
		"//shrimp:nostate <class>: <why> annotation (class: captured, asserted, wiring)",
	Run: run,
}

// Sides a snapshot.go function participates in, as a bitmask.
const (
	sideCapture = 1 << iota
	sideRestore
)

// fieldResult is a field of a snapshotted struct that is not covered
// (it lacks a reference on one side), or an annotation that is
// malformed or sits on a struct that is not snapshotted.
type fieldResult struct {
	typeName       string
	field          string
	pos            token.Pos
	capRef, resRef bool
	annPos         token.Pos
	annErr         string // nonempty: a bad annotation, reported at annPos
}

func run(pass *analysis.Pass) error {
	c := &checker{fset: pass.Fset, files: pass.Files, pkg: pass.Pkg, info: pass.TypesInfo}
	for _, r := range c.analyze() {
		if r.annErr != "" {
			pass.Reportf(r.annPos, "%s", r.annErr)
			continue
		}
		var state string
		switch {
		case r.capRef:
			state = "is captured but never restored in snapshot.go"
		case r.resRef:
			state = "is restored but never captured in snapshot.go"
		default:
			state = "is never referenced by snapshot.go's capture/restore pair"
		}
		pass.Reportf(r.pos,
			"field %s.%s of snapshotted struct %s; copy it on both sides or annotate it %s <%s>: <why>",
			r.typeName, r.field, state, NoStateDirective, classTokens("|"))
	}
	return nil
}

// checker carries one package through the analysis.
type checker struct {
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// analyze returns the uncovered fields of the package's snapshotted
// structs and the annotations on structs that are not snapshotted, in
// declaration order. A package without a snapshot.go yields nothing.
func (c *checker) analyze() []fieldResult {
	snapDecls := c.snapshotFuncs()
	if len(snapDecls) == 0 {
		return nil
	}
	sides := c.propagateSides(snapDecls)
	capRefs, resRefs := c.fieldRefs(snapDecls, sides)

	// Collect the package's struct declarations and decide which are
	// snapshotted: //shrimp:state marks, side-function receivers, and
	// structs with a field both sides reference.
	type structDecl struct {
		ts     *ast.TypeSpec
		st     *ast.StructType
		marked bool
	}
	structs := map[*types.TypeName]*structDecl{}
	for _, f := range c.files {
		if c.inTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				tn, ok := c.info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				structs[tn] = &structDecl{
					ts: ts, st: st,
					marked: hasDirective(gd.Doc, StateDirective) || hasDirective(ts.Doc, StateDirective),
				}
			}
		}
	}
	registered := map[*types.TypeName]bool{}
	for tn, sd := range structs {
		if sd.marked {
			registered[tn] = true
		}
	}
	for fn := range snapDecls {
		if sides[fn] == 0 {
			continue
		}
		if tn := recvTypeName(fn, c.pkg); tn != nil && structs[tn] != nil {
			registered[tn] = true
		}
	}
	// A struct is state, mark or no mark, once the pair copies one of
	// its fields. So a struct whose mark is deleted stays under the rule
	// unless every field is annotated, and then the orphaned
	// annotations below are diagnostics.
	for tn := range structs {
		st := tn.Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); capRefs[f] && resRefs[f] {
				registered[tn] = true
			}
		}
	}

	ordered := make([]*types.TypeName, 0, len(structs))
	for tn := range structs {
		ordered = append(ordered, tn)
	}
	sort.Slice(ordered, func(i, j int) bool {
		return structs[ordered[i]].ts.Pos() < structs[ordered[j]].ts.Pos()
	})

	var out []fieldResult
	for _, tn := range ordered {
		sd := structs[tn]
		for _, field := range sd.st.Fields.List {
			names := field.Names
			if len(names) == 0 {
				// An embedded field is a field like any other: Defs maps
				// the type name in its declaration to the field's Var.
				names = []*ast.Ident{embeddedName(field.Type)}
			}
			ann, annPos, annErr := parseNoState(field.Doc, field.Comment)
			if !registered[tn] {
				if ann {
					out = append(out, fieldResult{annPos: annPos, annErr: fmt.Sprintf(
						"%s annotation on field %s.%s, but %s is not snapshotted state; mark it %s or delete the annotation",
						NoStateDirective, tn.Name(), names[0].Name, tn.Name(), StateDirective)})
				}
				continue
			}
			for _, name := range names {
				obj, ok := c.info.Defs[name].(*types.Var)
				if !ok {
					continue
				}
				r := fieldResult{
					typeName: tn.Name(),
					field:    name.Name,
					pos:      name.Pos(),
					capRef:   capRefs[obj],
					resRef:   resRefs[obj],
				}
				switch {
				case ann && annErr != "":
					r.annPos, r.annErr = annPos, annErr
				case ann, r.capRef && r.resRef:
					continue
				}
				out = append(out, r)
			}
		}
	}
	return out
}

// snapshotFuncs indexes the functions declared in the package's
// snapshot.go file(s), keyed by their type-checker objects.
func (c *checker) snapshotFuncs() map[*types.Func]*ast.FuncDecl {
	out := map[*types.Func]*ast.FuncDecl{}
	for _, f := range c.files {
		if filepath.Base(c.fset.Position(f.Pos()).Filename) != "snapshot.go" {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := c.info.Defs[fd.Name].(*types.Func); ok {
				out[fn] = fd
			}
		}
	}
	return out
}

// rootSides classifies a snapshot.go function by name alone.
func rootSides(name string) int {
	lower := strings.ToLower(name)
	switch {
	case strings.HasPrefix(lower, "restore"):
		return sideRestore
	case strings.HasPrefix(lower, "snapshot"),
		name == "Take", name == "BeginSnapshot", name == "capture":
		return sideCapture
	}
	return 0
}

// propagateSides seeds each snapshot.go function with its name-derived
// side and propagates sides through calls to other snapshot.go
// functions until the assignment is stable. The fixpoint is monotone,
// so iteration order does not affect the result.
func (c *checker) propagateSides(decls map[*types.Func]*ast.FuncDecl) map[*types.Func]int {
	sides := map[*types.Func]int{}
	for fn := range decls {
		sides[fn] = rootSides(fn.Name())
	}
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			s := sides[fn]
			if s == 0 {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := c.calleeOf(call)
				if callee == nil {
					return true
				}
				if _, local := decls[callee]; local && sides[callee]|s != sides[callee] {
					sides[callee] |= s
					changed = true
				}
				return true
			})
		}
	}
	return sides
}

// fieldRefs records, per side, every struct field referenced in the
// body of a sided snapshot.go function: selections (x.f, however deep
// the chain), the embedded fields a promoted selection passes through,
// and composite-literal keys (T{f: v}).
func (c *checker) fieldRefs(decls map[*types.Func]*ast.FuncDecl, sides map[*types.Func]int) (capRefs, resRefs map[*types.Var]bool) {
	capRefs, resRefs = map[*types.Var]bool{}, map[*types.Var]bool{}
	record := func(side int, v *types.Var) {
		if side&sideCapture != 0 {
			capRefs[v] = true
		}
		if side&sideRestore != 0 {
			resRefs[v] = true
		}
	}
	for fn, fd := range decls {
		s := sides[fn]
		if s == 0 {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sel := c.info.Selections[n]
				if sel == nil {
					break
				}
				path := sel.Index()
				t := sel.Recv()
				for _, i := range path[:len(path)-1] {
					f := structOf(t).Field(i)
					record(s, f.Origin())
					t = f.Type()
				}
				if sel.Kind() == types.FieldVal {
					record(s, sel.Obj().(*types.Var).Origin())
				}
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					if v, ok := c.info.Uses[key].(*types.Var); ok && v.IsField() {
						record(s, v)
					}
				}
			}
			return true
		})
	}
	return capRefs, resRefs
}

// parseNoState scans a field's doc and trailing comments for a
// NoStateDirective; found reports whether one exists, and errMsg is
// nonempty when it is malformed.
func parseNoState(groups ...*ast.CommentGroup) (found bool, pos token.Pos, errMsg string) {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, cm := range cg.List {
			rest, ok := strings.CutPrefix(cm.Text, NoStateDirective)
			if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
				continue
			}
			found, pos = true, cm.Pos()
			body := strings.TrimSpace(rest)
			i := strings.Index(body, ":")
			if i < 0 {
				errMsg = malformed("missing \": <why>\" after the class")
				return
			}
			class := strings.TrimSpace(body[:i])
			why := strings.TrimSpace(body[i+1:])
			if !slices.Contains(classes, class) {
				errMsg = malformed("class \"" + class + "\" is not one of " + classTokens(", "))
				return
			}
			if why == "" {
				errMsg = malformed("justification is empty")
				return
			}
			return
		}
	}
	return
}

// malformed builds the diagnostic for a broken annotation.
func malformed(detail string) string {
	return "malformed " + NoStateDirective + " annotation: " + detail +
		" (expected \"" + NoStateDirective + " <class>: <why>\")"
}

// classTokens joins the class vocabulary with sep.
func classTokens(sep string) string { return strings.Join(classes, sep) }

// embeddedName returns the identifier that names an embedded field's
// type: T in T, *T, pkg.T, or T[A].
func embeddedName(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.Ident:
			return e
		case *ast.StarExpr:
			x = e.X
		case *ast.SelectorExpr:
			return e.Sel
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		default:
			return nil
		}
	}
}

// structOf returns the struct underlying t or the type t points to;
// every step of a selection's embedding path has one.
func structOf(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.Underlying().(*types.Struct)
}

// calleeOf resolves a call expression to its static callee, if any.
func (c *checker) calleeOf(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := c.info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := c.info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// recvTypeName returns the base named type of fn's receiver when that
// type is declared in pkg.
func recvTypeName(fn *types.Func, pkg *types.Package) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() != pkg {
		return nil
	}
	return named.Obj()
}

// inTestFile reports whether pos lies in a _test.go file.
func (c *checker) inTestFile(pos token.Pos) bool {
	return strings.HasSuffix(c.fset.Position(pos).Filename, "_test.go")
}

// hasDirective reports whether cg contains a comment line that is
// exactly the directive.
func hasDirective(cg *ast.CommentGroup, directive string) bool {
	if cg == nil {
		return false
	}
	for _, cm := range cg.List {
		if strings.TrimSpace(cm.Text) == directive {
			return true
		}
	}
	return false
}
