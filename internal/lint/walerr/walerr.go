// Package walerr enforces append-before-apply durability (PR 3): the
// error results of the mutation and framing paths must never be
// discarded. A dropped wal.Append error means an acknowledged mutation
// that recovery will not replay; a dropped frame.Writer error means a
// snapshot that silently lost frames; a dropped bufio Flush means a
// truncated output file that looked fine.
//
// The must-check set, matched by callee identity:
//
//   - (internal/wal) Log.Append, Log.AppendBatchDeferred, Log.Snapshot,
//     Log.Close and the package function WriteSnapshot;
//   - (internal/frame) Writer.WriteFrame, Writer.Flush, Append,
//     ReplayFile;
//   - (vsmartjoin) Index.Apply and its conveniences Index.Add,
//     Index.AddBatch, Index.AddDataset, Index.Remove, Index.RemoveBatch,
//     Index.Snapshot, and (internal/cluster, exported as the alias
//     vsmartjoin.Cluster and reported under that name) Cluster.Apply,
//     Cluster.Add, Cluster.AddBatch, Cluster.Remove, Cluster.Snapshot —
//     the public mutation surface whose errors are the durability
//     contract;
//   - (bufio) Writer.Flush — the classic way a CLI loses its last block
//     of output.
//
// A call "discards" when it stands alone as a statement, runs under go
// or defer (the error has nowhere to go), or assigns its error result to
// the blank identifier. Tests are NOT exempt: a test that ignores an
// Add error asserts nothing about the write it thinks it made.
package walerr

import (
	"go/ast"
	"go/types"

	"vsmartjoin/internal/lint"
)

// Analyzer is the walerr checker.
var Analyzer = &lint.Analyzer{
	Name: "walerr",
	Doc:  "errors from WAL, frame, index-mutation, and flush paths must not be discarded",
	Run:  run,
}

// method and fn entries name the must-check set.
type callee struct {
	pkg  string // package path
	recv string // receiver type name; "" for package-level functions
	name string
}

// aliasedAs names the package a must-check package's types are exported
// from as aliases, so a report names the type as its caller wrote it:
// vsmartjoin.Cluster, not cluster.Cluster.
var aliasedAs = map[string]string{"vsmartjoin/internal/cluster": "vsmartjoin"}

var mustCheck = []callee{
	{"vsmartjoin/internal/wal", "Log", "Append"},
	{"vsmartjoin/internal/wal", "Log", "AppendBatchDeferred"},
	{"vsmartjoin/internal/wal", "Log", "Snapshot"},
	{"vsmartjoin/internal/wal", "Log", "Close"},
	{"vsmartjoin/internal/wal", "", "WriteSnapshot"},
	{"vsmartjoin/internal/frame", "Writer", "WriteFrame"},
	{"vsmartjoin/internal/frame", "Writer", "Flush"},
	{"vsmartjoin/internal/frame", "", "Append"},
	{"vsmartjoin/internal/frame", "", "ReplayFile"},
	{"vsmartjoin", "Index", "Apply"},
	{"vsmartjoin", "Index", "Add"},
	{"vsmartjoin", "Index", "AddBatch"},
	{"vsmartjoin", "Index", "AddDataset"},
	{"vsmartjoin", "Index", "Remove"},
	{"vsmartjoin", "Index", "RemoveBatch"},
	{"vsmartjoin", "Index", "Snapshot"},
	{"vsmartjoin/internal/cluster", "Cluster", "Apply"},
	{"vsmartjoin/internal/cluster", "Cluster", "Add"},
	{"vsmartjoin/internal/cluster", "Cluster", "AddBatch"},
	{"vsmartjoin/internal/cluster", "Cluster", "Remove"},
	{"vsmartjoin/internal/cluster", "Cluster", "Snapshot"},
	{"bufio", "Writer", "Flush"},
}

func run(pass *lint.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				report(pass, st.X, "discarded")
			case *ast.GoStmt:
				report(pass, st.Call, "discarded by go statement")
			case *ast.DeferStmt:
				report(pass, st.Call, "discarded by defer")
			case *ast.AssignStmt:
				checkBlankAssign(pass, st)
			}
			return true
		})
	}
	return nil
}

// report flags e when it is a must-check call whose results are unused.
func report(pass *lint.Pass, e ast.Expr, how string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	if c := matchCall(pass, call); c != nil {
		pass.Reportf(call.Pos(),
			"error from %s %s: append-before-apply durability requires handling it", describe(c), how)
	}
}

// checkBlankAssign flags `_ = mustCheckCall()` and multi-assigns whose
// error position is blank (`v, _ := ix.Snapshot(...)` has no error — the
// blank check applies only when the error result itself is discarded).
func checkBlankAssign(pass *lint.Pass, st *ast.AssignStmt) {
	if len(st.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	c := matchCall(pass, call)
	if c == nil {
		return
	}
	fn := lint.Callee(pass.TypesInfo, call)
	sig := fn.Type().(*types.Signature)
	// Find the error results and require a non-blank identifier at each.
	for i := 0; i < sig.Results().Len(); i++ {
		if !isErrorType(sig.Results().At(i).Type()) {
			continue
		}
		var lhs ast.Expr
		if sig.Results().Len() == 1 {
			if len(st.Lhs) != 1 {
				return
			}
			lhs = st.Lhs[0]
		} else {
			if i >= len(st.Lhs) {
				return
			}
			lhs = st.Lhs[i]
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
			pass.Reportf(st.Pos(),
				"error from %s assigned to _: append-before-apply durability requires handling it", describe(c))
		}
	}
}

func matchCall(pass *lint.Pass, call *ast.CallExpr) *callee {
	fn := lint.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	for i := range mustCheck {
		c := &mustCheck[i]
		if fn.Name() != c.name || fn.Pkg().Path() != c.pkg {
			continue
		}
		if c.recv == "" {
			if lint.PkgLevel(fn) {
				return c
			}
			continue
		}
		if lint.IsMethod(fn, c.pkg, c.recv, c.name) {
			return c
		}
	}
	return nil
}

func describe(c *callee) string {
	pkg, ok := aliasedAs[c.pkg]
	if !ok {
		pkg = pkgBase(c.pkg)
	}
	if c.recv == "" {
		return pkg + "." + c.name
	}
	return pkg + "." + c.recv + "." + c.name
}

func pkgBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

func isErrorType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
