package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("vsmartjoin/internal/wal"); for the
	// external test package of path P it is "P_test".
	Path      string
	Name      string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Name         string
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Export       string
	ForTest      string
	Error        *listErr
}

type listErr struct {
	Err string
}

// goList runs `go list` with the given arguments and decodes its JSON
// package stream.
func goList(dir string, args ...string) ([]*listPkg, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []*listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decode: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// Load type-checks the packages matched by `go list` patterns, run in
// dir (empty means the current directory), which must lie inside a
// module. Every matched package is parsed and type-checked from source
// with its in-package test files; an external test package (package
// foo_test) loads as its own Package. Imports come from export data.
func Load(dir string, patterns ...string) ([]*Package, error) {
	fset := token.NewFileSet()
	fields := "-json=Name,ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles,Error"
	targets, err := goList(dir, append([]string{"list", fields}, patterns...)...)
	if err != nil {
		return nil, err
	}
	for _, t := range targets {
		if t.Error != nil {
			return nil, fmt.Errorf("%s: %s", t.ImportPath, t.Error.Err)
		}
	}

	// One -deps -export walk provides export data for everything any
	// target (or its test files) imports. -test folds test-only deps in.
	depArgs := []string{"list", "-deps", "-export", "-test", "-json=ImportPath,Export,ForTest"}
	deps, err := goList(dir, append(depArgs, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, d := range deps {
		// Skip synthesized test variants ("p [p.test]", "p.test"): the
		// plain compile's export data is the importable one.
		if d.ForTest != "" || strings.Contains(d.ImportPath, " ") || d.Export == "" {
			continue
		}
		if _, ok := exports[d.ImportPath]; !ok {
			exports[d.ImportPath] = d.Export
		}
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var out []*Package
	for _, t := range targets {
		files := append(t.GoFiles[:len(t.GoFiles):len(t.GoFiles)], t.TestGoFiles...)
		if len(files) > 0 {
			pkg, err := checkFiles(fset, imp, t.ImportPath, t.Name, absPaths(t.Dir, files))
			if err != nil {
				return nil, err
			}
			out = append(out, pkg)
		}
		if len(t.XTestGoFiles) > 0 {
			pkg, err := checkFiles(fset, imp, t.ImportPath+"_test", t.Name+"_test", absPaths(t.Dir, t.XTestGoFiles))
			if err != nil {
				return nil, err
			}
			out = append(out, pkg)
		}
	}
	return out, nil
}

func absPaths(dir string, names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = filepath.Join(dir, n)
	}
	return out
}

// checkFiles parses and type-checks one package from source.
func checkFiles(fset *token.FileSet, imp types.Importer, path, name string, files []string) (*Package, error) {
	var syntax []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		syntax = append(syntax, af)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	return &Package{
		Path:      path,
		Name:      name,
		Fset:      fset,
		Syntax:    syntax,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
