// Package linttest is the analyzers' test harness, a miniature
// counterpart of golang.org/x/tools/go/analysis/analysistest built on
// the loader vsmartlint uses. It is a package of its own so that the
// vsmartlint binary does not link testing.
//
// A fixture is a small module (module vsmartjoin) in the analyzer's
// testdata directory, loaded exactly as `vsmartlint ./...` loads the
// repo. Because the fixture module shares the real module's path, it
// may stub a real package (declare a tiny vsmartjoin/internal/wal, say)
// so path-matching analyzers trigger without depending on the real code
// — the tests stay hermetic.
//
// Expected findings are declared in the fixture source with trailing
// comments of the form
//
//	l.Close() // want `error from wal\.Log\.Close discarded`
//
// Each regexp (backquoted or double-quoted, several per comment allowed)
// must be matched by exactly one finding reported on that line, and
// every finding must be claimed by an expectation. Findings include the
// driver's own "suppress" diagnostics, so fixtures also pin the
// suppression contract: honored, unused, and malformed cases.
package linttest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"vsmartjoin/internal/lint"
)

// expectation is one parsed // want regexp, bound to a file and line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	met  bool
}

// Run loads the fixture packages at the given import paths from the
// fixture module in dir, applies analyzer a through the driver
// (suppressions included), and fails t unless findings and // want
// expectations match one-to-one.
func Run(t *testing.T, a *lint.Analyzer, dir string, paths ...string) {
	t.Helper()
	pkgs, err := lint.Load(dir, paths...)
	if err != nil {
		t.Fatalf("load fixtures: %v", err)
	}
	findings, err := lint.Run(pkgs, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}
	expects := collectWants(t, pkgs)
	for _, f := range findings {
		if !claim(expects, f) {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, e := range expects {
		if !e.met {
			t.Errorf("%s:%d: no finding matched %q", e.file, e.line, e.raw)
		}
	}
}

// claim marks the first open expectation on the finding's line whose
// regexp matches its message.
func claim(expects []*expectation, f lint.Finding) bool {
	for _, e := range expects {
		if !e.met && e.file == f.Pos.Filename && e.line == f.Pos.Line && e.re.MatchString(f.Message) {
			e.met = true
			return true
		}
	}
	return false
}

// wantToken pulls one backquoted or double-quoted regexp off the tail of
// a // want comment.
var wantToken = regexp.MustCompile("^\\s*(`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")")

// collectWants extracts the // want expectations from fixture comments.
func collectWants(t *testing.T, pkgs []*lint.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "// want")
					if idx < 0 {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					rest := c.Text[idx+len("// want"):]
					n := 0
					for {
						m := wantToken.FindStringSubmatch(rest)
						if m == nil {
							break
						}
						rest = rest[len(m[0]):]
						tok := m[1]
						var pat string
						if tok[0] == '`' {
							pat = tok[1 : len(tok)-1]
						} else {
							var err error
							if pat, err = strconv.Unquote(tok); err != nil {
								t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, tok, err)
							}
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
						}
						out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: pat})
						n++
					}
					if n == 0 {
						t.Fatalf("%s:%d: // want with no regexp", pos.Filename, pos.Line)
					}
				}
			}
		}
	}
	return out
}
