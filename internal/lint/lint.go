// Package lint is the framework of the project's static-analysis suite,
// which cmd/vsmartlint runs and lists: the Analyzer/Pass contract the
// analyzers (internal/lint/framesafety and friends) are written
// against, Run, the driver that applies them under the suppression
// contract, and Load, the loader that type-checks the packages they
// inspect. linttest is its fixture harness.
//
// It is a miniature counterpart of golang.org/x/tools/go/analysis. The
// x/tools module is deliberately not a dependency — the repo builds
// with the standard library alone — so this package redeclares the small
// slice of the analysis API the suite needs: an Analyzer with a name and
// a Run function, a Pass carrying one type-checked package, and
// Diagnostics reported at token positions. Analyzers written against it
// port to the real go/analysis framework nearly mechanically should the
// dependency ever become available.
//
// Load discovers packages with `go list` and type-checks them from
// source, _test.go files included; their imports resolve through the
// compiler export data that `go list -export` materializes in the build
// cache, so loading works fully offline and never re-type-checks the
// transitive closure. The analyzers' fixtures are small modules under
// their testdata directories, loaded the same way.
//
// Run applies the analyzers under the project's suppression contract.
// A finding may be silenced with a comment of the form
//
//	//lint:vsmart-allow <analyzer> <reason>
//
// placed on the flagged line or on the line directly above it. The
// reason is mandatory — a suppression must say why the exception is
// sound — and every suppression must actually silence a finding of the
// named analyzer: one that no longer matches anything is itself reported
// as an error, so stale exceptions cannot linger after the code under
// them is fixed or deleted.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:vsmart-allow suppression comments. It must be a single
	// lowercase word.
	Name string

	// Doc is the one-paragraph description printed by vsmartlint's
	// analyzer listing.
	Doc string

	// Run inspects one package and reports findings via pass.Report.
	// A non-nil error aborts the whole lint run (reserved for internal
	// failures, not findings).
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files is the package syntax, comments included. Test files
	// (_test.go) of the same package are part of the slice; analyzers
	// that exempt tests check InTestFile.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. The driver applies suppression
	// comments afterwards; analyzers never filter their own findings.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf formats and reports one finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Callee resolves the static callee of a call expression: a package
// function, a method (concrete or interface), or nil for calls through
// function values and for type conversions.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch fn := fun.(type) {
	case *ast.Ident:
		f, _ := info.Uses[fn].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		// Qualified package function: pkg.F.
		f, _ := info.Uses[fn.Sel].(*types.Func)
		return f
	}
	return nil
}

// PkgLevel reports whether fn is a package-level function rather than a
// method.
func PkgLevel(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// IsMethod reports whether fn is a method named name whose receiver's
// named type (or interface) lives in pkgPath and is called recvName.
// recvName may be "" to match any receiver type in the package.
func IsMethod(fn *types.Func, pkgPath, recvName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := NamedRecv(sig)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != pkgPath {
		return false
	}
	return recvName == "" || named.Obj().Name() == recvName
}

// NamedRecv unwraps a method signature's receiver to its named type,
// looking through one level of pointer.
func NamedRecv(sig *types.Signature) *types.Named {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// NamedOf unwraps t to a named type, looking through pointers and
// aliases.
func NamedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

// IsNamed reports whether t (through pointers/aliases) is the named type
// pkgPath.name.
func IsNamed(t types.Type, pkgPath, name string) bool {
	named := NamedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == name
}
