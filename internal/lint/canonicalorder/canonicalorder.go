// Package canonicalorder enforces PR 5's exactness guarantee: every
// result list that can reach the public API answers in the one
// canonical order (similarity descending — for kNN lists distance
// ascending — tie-break ascending), so a single index, a sharded one,
// and a multi-node cluster are byte-identical.
//
// In the result-bearing packages (the vsmartjoin root, internal/index,
// internal/shard, internal/cluster, internal/httpd) every function
// returning a result — a []Match of the inner index.Match or of the
// public cluster.Match, a []Neighbor of cluster.Neighbor, or the
// cluster.QueryResult struct carrying the public lists (the root
// package's names are aliases of the cluster ones) — must return either
//
//   - nil or a literal holding no elements,
//   - the direct result of another result-returning call (delegation:
//     the callee is held to the same rule), or a field of such a
//     QueryResult, or
//   - a local that provably passed through a canonicalizer:
//     index.SortMatches, cluster.SortMatches, cluster.SortNeighbors,
//     vsmartjoin.SortNeighborsByName.
//
// The tracking is a source-order scan, not a full dataflow analysis:
// assigning a fresh literal/make/append/conversion to a variable (or to
// a field of a QueryResult variable) clears its canonical status, a
// canonicalizer call or delegation assignment sets it, and re-slicing
// (out = out[:k]) preserves it. Sorting a sub-slice in place —
// SortMatches(buf[base:]), the Into query variants' idiom of
// canonicalizing only the region they appended — marks the underlying
// variable canonical too, as does sorting a QueryResult variable's
// field. Test files are exempt — fixtures and oracles build
// deliberately unsorted lists.
package canonicalorder

import (
	"go/ast"
	"go/types"

	"vsmartjoin/internal/lint/analysis"
)

// Analyzer is the canonicalorder checker.
var Analyzer = &analysis.Analyzer{
	Name: "canonicalorder",
	Doc:  "functions returning []Match, []Neighbor or QueryResult must canonicalize (SortMatches/SortNeighbors) before returning",
	Run:  run,
}

// scopePkgs are the packages whose []Match returns feed the public API.
var scopePkgs = map[string]bool{
	"vsmartjoin":                  true,
	"vsmartjoin/internal/index":   true,
	"vsmartjoin/internal/shard":   true,
	"vsmartjoin/internal/cluster": true,
	"vsmartjoin/internal/httpd":   true,
}

// matchTypes are the (package, type name) pairs that count as a
// canonically-ordered result element; resultStruct is the struct that
// carries the public lists.
var (
	matchTypes = [][2]string{
		{"vsmartjoin/internal/index", "Match"},
		{"vsmartjoin/internal/cluster", "Match"},
		{"vsmartjoin/internal/cluster", "Neighbor"},
	}
	resultStruct = [2]string{"vsmartjoin/internal/cluster", "QueryResult"}
)

// canonicalizers sort a result-slice argument in place ([2]: pkg, name).
var canonicalizers = [][2]string{
	{"vsmartjoin/internal/index", "SortMatches"},
	{"vsmartjoin/internal/cluster", "SortMatches"},
	{"vsmartjoin/internal/cluster", "SortNeighbors"},
	{"vsmartjoin", "SortNeighborsByName"},
}

func run(pass *analysis.Pass) error {
	if !scopePkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
				continue
			}
			if !returnsResult(pass, fd) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// isResult reports whether t is a result: a slice of one of the
// matchTypes, or the resultStruct.
func isResult(t types.Type) bool {
	if analysis.IsNamed(t, resultStruct[0], resultStruct[1]) {
		return true
	}
	sl, ok := types.Unalias(t).(*types.Slice)
	if !ok {
		return false
	}
	for _, mt := range matchTypes {
		if analysis.IsNamed(sl.Elem(), mt[0], mt[1]) {
			return true
		}
	}
	return false
}

func returnsResult(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, res := range fd.Type.Results.List {
		if tv, ok := pass.TypesInfo.Types[res.Type]; ok && isResult(tv.Type) {
			return true
		}
	}
	return false
}

// checkFunc scans one function in source order, tracking which local
// []Match variables are canonical, then validates each return.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	canonical := map[types.Object]bool{}
	info := pass.TypesInfo

	// []Match parameters start canonical: the Into query variants append
	// into a caller-owned buffer and guarantee only that the region THEY
	// append is sorted — the incoming prefix's order is the caller's
	// responsibility, and returning the buffer untouched adds nothing
	// out of order. Appending to the parameter still clears the mark, so
	// the function must re-canonicalize anything it adds.
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil && isResult(obj.Type()) {
					canonical[obj] = true
				}
			}
		}
	}

	// exprCanonical decides whether an expression may be returned as-is.
	var exprCanonical func(e ast.Expr) bool
	exprCanonical = func(e ast.Expr) bool {
		e = ast.Unparen(e)
		switch x := e.(type) {
		case *ast.Ident:
			if x.Name == "nil" {
				return true
			}
			return canonical[info.Uses[x]]
		case *ast.CallExpr:
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
				return false // conversion ([]Match(heap)) is not canonical
			}
			fn := analysis.Callee(info, x)
			if fn == nil {
				return false
			}
			// Delegation: the callee returns a []Match and is held to
			// this same rule wherever it lives in the scoped packages.
			sig, ok := fn.Type().(*types.Signature)
			if !ok {
				return false
			}
			for i := 0; i < sig.Results().Len(); i++ {
				if isResult(sig.Results().At(i).Type()) {
					return true
				}
			}
			return false
		case *ast.SliceExpr:
			return exprCanonical(x.X)
		case *ast.SelectorExpr:
			// A list field of a canonical QueryResult.
			tv, ok := info.Types[x.X]
			return ok && isResult(tv.Type) && exprCanonical(x.X)
		case *ast.CompositeLit:
			// A literal holding no elements carries no order: []Match{},
			// QueryResult{}, QueryResult{Matches: []Match{}}.
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if !exprCanonical(elt) {
					return false
				}
			}
			return true
		}
		return false
	}

	// tracked resolves v or v.Field to the result variable v.
	tracked := func(e ast.Expr) types.Object {
		e = ast.Unparen(e)
		if sel, ok := e.(*ast.SelectorExpr); ok {
			e = ast.Unparen(sel.X)
		}
		id, ok := e.(*ast.Ident)
		if !ok {
			return nil
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || !isResult(obj.Type()) {
			return nil
		}
		return obj
	}

	// markAssign records the effect of `lhs = rhs` on canonical state.
	markAssign := func(lhs, rhs ast.Expr) {
		if obj := tracked(lhs); obj != nil {
			canonical[obj] = rhs != nil && exprCanonical(rhs)
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Lhs {
					markAssign(st.Lhs[i], st.Rhs[i])
				}
			} else if len(st.Rhs) == 1 {
				// v, err := f(): the call's canonical status applies to
				// every []Match-typed lhs.
				for _, lhs := range st.Lhs {
					markAssign(lhs, st.Rhs[0])
				}
			}
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok {
				if fn := analysis.Callee(info, call); fn != nil && fn.Pkg() != nil {
					for _, c := range canonicalizers {
						if fn.Pkg().Path() == c[0] && fn.Name() == c[1] && len(call.Args) > 0 {
							// SortMatches(buf) and SortMatches(buf[base:])
							// both canonicalize buf: the Into query
							// variants sort the region they appended in
							// place, and the unsorted prefix is the
							// caller's own (already-canonical or empty)
							// buffer contents.
							arg := ast.Unparen(call.Args[0])
							if sl, ok := arg.(*ast.SliceExpr); ok {
								arg = sl.X
							}
							if obj := tracked(arg); obj != nil {
								canonical[obj] = true
							}
						}
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range st.Results {
				tv, ok := info.Types[res]
				if !ok || !isResult(tv.Type) {
					continue
				}
				if !exprCanonical(res) {
					pass.Reportf(res.Pos(),
						"returning a %s that did not pass through a canonicalizer (SortMatches/SortNeighbors): public results must be in the canonical order",
						types.TypeString(tv.Type, func(*types.Package) string { return "" }))
				}
			}
		}
		return true
	})
}
