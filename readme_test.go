package vsmartjoin

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestReadmeNamesExist fails when README.md names code the module does
// not have: a backticked exported identifier or selector (`Index.Query`,
// `IndexOptions.Dir`, `internal/index.BulkLoad`) that resolves to no
// declaration, a `Test*`/`Benchmark*`/`Fuzz*` name that is no test
// function, or a -flag that no flag.* call under cmd/ or benchmark/
// defines. Every Go file of the module is parsed, the benchmark module's
// included (as files; it is never imported), testdata aside.
func TestReadmeNamesExist(t *testing.T) {
	md, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	code := loadCodeIndex(t)
	inline, fenced := markdownCode(string(md))

	names, flags := 0, 0
	checkFlags := func(where, text string) {
		for _, seg := range shellSegments(text) {
			if !flagsAreOurs(seg) {
				continue
			}
			for _, w := range seg {
				f, ok := flagName(w)
				if !ok {
					continue
				}
				flags++
				if !code.flags[f] && !goToolFlags[f] {
					t.Errorf("README %s %q: no flag.* call under cmd/ or benchmark/ defines -%s", where, text, f)
				}
			}
		}
	}
	for _, span := range inline {
		if ok, checked := code.resolves(span); checked {
			names++
			if !ok {
				t.Errorf("README names `%s`, but neither the module nor the standard library declares it", span)
			}
		}
		checkFlags("span", span)
	}
	for _, line := range fenced {
		checkFlags("code block line", line)
	}
	t.Logf("checked %d names and %d flags", names, flags)
	// A parser that finds nothing passes vacuously; README names far more.
	if names < 50 || flags < 20 {
		t.Fatalf("checked only %d names and %d flags in README.md; is the parser broken?", names, flags)
	}
}

// goToolFlags are the flags README passes to the go tool or a compiled
// test binary, which no flag.* call in the module defines.
var goToolFlags = map[string]bool{
	"race":       true, // go test -race: the race detector
	"run":        true, // go test -run: which tests run
	"bench":      true, // go test -bench: which benchmarks run
	"benchtime":  true, // go test -benchtime: iterations or time per benchmark
	"benchmem":   true, // go test -benchmem: report allocations
	"count":      true, // go test -count: repeat each test or benchmark
	"cpu":        true, // go test -cpu: the GOMAXPROCS values to run at
	"cpuprofile": true, // go test -cpuprofile: write a CPU profile
	"memprofile": true, // go test -memprofile: write a heap profile
	"fuzz":       true, // go test -fuzz: the fuzz target to run
	"fuzztime":   true, // go test -fuzztime: how long to fuzz
	"test":       true, // -test.run, -test.bench, ...: a test binary's own flags
	"export":     true, // go list -export: the export data the lint loader reads
}

// ourCommands are the commands whose flags README's flags must be:
// the module's binaries, and the go, make and bash invocations that run
// them. A flag given to another program (curl -s) is that program's.
var ourCommands = map[string]bool{
	"go": true, "make": true, "bash": true,
	"vsmartjoin": true, "vsmartjoind": true, "datagen": true, "experiments": true, "vsmartlint": true,
}

// flagsAreOurs reports whether a command segment's flags are checked:
// its command is one of ourCommands, or it is a bare flag list such as
// the span `-t 0.5`.
func flagsAreOurs(seg []string) bool {
	for len(seg) > 0 && strings.Contains(seg[0], "=") && !strings.HasPrefix(seg[0], "-") {
		seg = seg[1:] // VAR=value before the command
	}
	if len(seg) == 0 {
		return false
	}
	if _, ok := flagName(seg[0]); ok {
		return true
	}
	return ourCommands[path.Base(seg[0])]
}

var flagRe = regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9_-]*)`)

// flagName returns the flag a word sets: "-shuffle-buffer" and
// "--seed" name themselves, "-fuzz=^FuzzX$" names fuzz and
// "-test.run" names test.
func flagName(w string) (string, bool) {
	m := flagRe.FindStringSubmatch(w)
	if m == nil {
		return "", false
	}
	return m[1], true
}

// markdownCode returns README's inline code spans, whitespace folded
// (a span may wrap across lines), and the lines of its fenced blocks,
// a line ending in a backslash joined to the next.
func markdownCode(md string) (inline, fenced []string) {
	var prose strings.Builder
	inFence, cont := false, ""
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			prose.WriteString("\n")
			continue
		}
		if !inFence {
			prose.WriteString(line + "\n")
			continue
		}
		if line = cont + line; strings.HasSuffix(line, `\`) {
			cont = strings.TrimSuffix(line, `\`)
			continue
		}
		cont = ""
		fenced = append(fenced, line)
	}
	for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(prose.String(), -1) {
		inline = append(inline, strings.Join(strings.Fields(m[1]), " "))
	}
	return inline, fenced
}

// shellSegments splits a command line into the words of each command,
// honouring quotes, ending a command at |, & and ;, and dropping a
// trailing # comment.
func shellSegments(line string) [][]string {
	var segs [][]string
	var words []string
	var w strings.Builder
	var quote rune
	inWord := false
	flushWord := func() {
		if inWord {
			words = append(words, w.String())
			w.Reset()
			inWord = false
		}
	}
	endCommand := func() {
		flushWord()
		if len(words) > 0 {
			segs = append(segs, words)
			words = nil
		}
	}
	for _, r := range line {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				w.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == '#' && !inWord:
			endCommand()
			return segs
		case r == '|' || r == '&' || r == ';':
			endCommand()
		case r == ' ' || r == '\t':
			flushWord()
		default:
			w.WriteRune(r)
			inWord = true
		}
	}
	endCommand()
	return segs
}

// codeIndex is what the module declares, by module-relative directory,
// and what the standard-library packages README names declare.
type codeIndex struct {
	pkgs   map[string]*pkgDecls
	byName map[string][]string  // package name → directories
	tests  map[string]bool      // Test*, Benchmark*, Fuzz* and Example* functions
	flags  map[string]bool      // flag names defined under cmd/ and benchmark/
	std    map[string]*pkgDecls // by import path; nil when GOROOT has no such package
}

type pkgDecls struct {
	top     map[string]bool            // top-level functions, types, variables, constants
	members map[string]map[string]bool // type → its fields and methods
	refs    map[string][]typeRef       // type → the types it aliases, is defined as, or embeds
}

type typeRef struct{ dir, name string }

func newPkgDecls() *pkgDecls {
	return &pkgDecls{top: map[string]bool{}, members: map[string]map[string]bool{}, refs: map[string][]typeRef{}}
}

func loadCodeIndex(t *testing.T) *codeIndex {
	t.Helper()
	ix := &codeIndex{pkgs: map[string]*pkgDecls{}, byName: map[string][]string{},
		tests: map[string]bool{}, flags: map[string]bool{}, std: map[string]*pkgDecls{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ix.addFile(filepath.ToSlash(filepath.Dir(p)), strings.HasSuffix(p, "_test.go"), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// flagDefiners maps a flag or FlagSet method to the argument holding
// the flag's name.
var flagDefiners = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Func": 0, "BoolFunc": 0, "Int": 0, "Int64": 0,
	"String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
	"StringVar": 1, "TextVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1,
}

func (ix *codeIndex) addFile(dir string, isTest bool, f *ast.File) {
	pkg := ix.pkgs[dir]
	if pkg == nil {
		pkg = newPkgDecls()
		ix.pkgs[dir] = pkg
	}
	name := strings.TrimSuffix(f.Name.Name, "_test")
	if !slices.Contains(ix.byName[name], dir) {
		ix.byName[name] = append(ix.byName[name], dir)
	}
	pkg.addDecls(dir, f)
	importsFlag := false
	for _, fn := range f.Decls {
		if fn, ok := fn.(*ast.FuncDecl); ok && fn.Recv == nil && isTest && testFuncRe.MatchString(fn.Name.Name) {
			ix.tests[fn.Name.Name] = true
		}
	}
	for _, s := range f.Imports {
		importsFlag = importsFlag || s.Path.Value == `"flag"`
	}
	if !importsFlag || !(strings.HasPrefix(dir, "cmd/") || dir == "benchmark") {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if i, ok := flagDefiners[sel.Sel.Name]; ok && i < len(call.Args) {
			if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					ix.flags[s] = true
				}
			}
		}
		return true
	})
}

// addDecls records f's declarations; dir is f's module-relative
// directory, against which references to the module's own packages
// resolve.
func (pkg *pkgDecls) addDecls(dir string, f *ast.File) {
	imports := map[string]string{} // local name → module-relative directory
	for _, s := range f.Imports {
		p, _ := strconv.Unquote(s.Path.Value)
		if p != "vsmartjoin" && !strings.HasPrefix(p, "vsmartjoin/") {
			continue
		}
		local := path.Base(p)
		if s.Name != nil {
			local = s.Name.Name
		}
		imports[local] = strings.TrimPrefix(strings.TrimPrefix(p, "vsmartjoin"), "/")
		if imports[local] == "" {
			imports[local] = "."
		}
	}
	ref := func(e ast.Expr) (typeRef, bool) {
		for {
			switch x := e.(type) {
			case *ast.StarExpr:
				e = x.X
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.IndexListExpr:
				e = x.X
				continue
			case *ast.Ident:
				return typeRef{dir, x.Name}, true
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
					return typeRef{imports[id.Name], x.Sel.Name}, true
				}
			}
			return typeRef{}, false
		}
	}
	member := func(typ, m string) {
		if pkg.members[typ] == nil {
			pkg.members[typ] = map[string]bool{}
		}
		pkg.members[typ][m] = true
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				pkg.top[d.Name.Name] = true
			} else if r, ok := ref(d.Recv.List[0].Type); ok {
				member(r.name, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						pkg.top[n.Name] = true
					}
				case *ast.TypeSpec:
					typ := s.Name.Name
					pkg.top[typ] = true
					if r, ok := ref(s.Type); ok {
						pkg.refs[typ] = append(pkg.refs[typ], r)
					}
					var fields []*ast.Field
					switch st := s.Type.(type) {
					case *ast.StructType:
						fields = st.Fields.List
					case *ast.InterfaceType:
						fields = st.Methods.List
					}
					for _, fld := range fields {
						for _, n := range fld.Names {
							member(typ, n.Name)
						}
						if r, ok := ref(fld.Type); ok && len(fld.Names) == 0 {
							member(typ, r.name)
							pkg.refs[typ] = append(pkg.refs[typ], r)
						}
					}
				}
			}
		}
	}
}

// stdPkg parses the standard-library package at importPath from
// GOROOT's sources, or returns nil if GOROOT has none.
func (ix *codeIndex) stdPkg(importPath string) *pkgDecls {
	if pkg, ok := ix.std[importPath]; ok {
		return pkg
	}
	var pkg *pkgDecls
	dir := filepath.Join(build.Default.GOROOT, "src", filepath.FromSlash(importPath))
	entries, _ := os.ReadDir(dir)
	fset := token.NewFileSet()
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		if pkg == nil {
			pkg = newPkgDecls()
		}
		pkg.addDecls("std:"+importPath, f)
	}
	ix.std[importPath] = pkg
	return pkg
}

var (
	testFuncRe = regexp.MustCompile(`^(Test|Benchmark|Fuzz|Example)([A-Z_]|$)`)
	// identRe matches a span that is an exported identifier or selector:
	// an optional package qualifier (name or path), an exported name, an
	// optional chain of exported members, an optional "()" and, for a
	// benchmark, optional /sub-benchmark names.
	identRe = regexp.MustCompile(`^(?:([a-z][a-z0-9]*(?:/[a-z][a-z0-9_]*)*)\.)?([A-Z]\w*)((?:\.[A-Z]\w*)*)(?:\(\))?(?:/[\w.=-]+)*$`)
)

// resolves reports whether span names a declaration; checked is false
// when span is no exported identifier or selector at all. A qualifier
// names a module package, by name or module-relative path, or else a
// standard-library package (`time.Now`). A bare name or a qualified one
// may be a member of some type (`internal/index.BulkLoad`), and a bare
// one may be a benchmark named without its prefix (`BulkBuild`).
func (ix *codeIndex) resolves(span string) (ok, checked bool) {
	m := identRe.FindStringSubmatch(span)
	if m == nil {
		return false, false
	}
	qual, name := m[1], m[2]
	var chain []string
	if m[3] != "" {
		chain = strings.Split(m[3][1:], ".")
	}
	if len(chain) > 1 {
		return false, true // README names at most Type.Member
	}
	if qual == "" && testFuncRe.MatchString(name) {
		return len(chain) == 0 && ix.tests[name], true
	}
	var pkgs []*pkgDecls
	switch {
	case qual == "":
		for _, pkg := range ix.pkgs {
			pkgs = append(pkgs, pkg)
		}
	case ix.pkgs[qual] != nil:
		pkgs = []*pkgDecls{ix.pkgs[qual]}
	case len(ix.byName[qual]) > 0:
		for _, dir := range ix.byName[qual] {
			pkgs = append(pkgs, ix.pkgs[dir])
		}
	case ix.stdPkg(qual) != nil:
		pkgs = []*pkgDecls{ix.stdPkg(qual)}
	}
	for _, pkg := range pkgs {
		if len(chain) == 1 && ix.hasMember(pkg, name, chain[0], 0) {
			return true, true
		}
		if len(chain) == 0 && pkg.top[name] {
			return true, true
		}
		for _, ms := range pkg.members {
			if len(chain) == 0 && ms[name] {
				return true, true
			}
		}
	}
	return len(chain) == 0 && qual == "" && ix.tests["Benchmark"+name], true
}

// hasMember reports whether type typ of pkg has a field or method m,
// directly or through an alias, definition or embedding.
func (ix *codeIndex) hasMember(pkg *pkgDecls, typ, m string, depth int) bool {
	if pkg == nil || depth > 5 {
		return false
	}
	if pkg.members[typ][m] {
		return true
	}
	for _, r := range pkg.refs[typ] {
		if ix.hasMember(ix.pkgs[r.dir], r.name, m, depth+1) {
			return true
		}
	}
	return false
}
