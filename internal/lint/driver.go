package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// SuppressPrefix starts a suppression comment (after the leading "//").
const SuppressPrefix = "lint:vsmart-allow"

// Finding is one reported problem: an analyzer diagnostic that survived
// suppression, or a defect in the suppressions themselves (analyzer
// "suppress").
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// suppression is one parsed //lint:vsmart-allow comment.
type suppression struct {
	analyzer string
	file     string
	line     int
	used     bool
}

// Run applies every analyzer to every package, resolves suppressions,
// and returns the surviving findings sorted by position. The error
// return is reserved for analyzer-internal failures.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}

	var findings []Finding
	var sups []*suppression
	for _, pkg := range pkgs {
		fset := pkg.Fset
		pkgSups, bad := collectSuppressions(fset, pkg.Syntax, known)
		sups = append(sups, pkgSups...)
		findings = append(findings, bad...)

		for _, a := range analyzers {
			var diags []Diagnostic
			pass := &Pass{
				Analyzer:  a,
				Fset:      fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Report:    func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range diags {
				pos := fset.Position(d.Pos)
				if s := match(pkgSups, a.Name, pos); s != nil {
					s.used = true
					continue
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
		}
	}

	for _, s := range sups {
		if !s.used {
			pos := token.Position{Filename: s.file, Line: s.line, Column: 1}
			findings = append(findings, Finding{
				Analyzer: "suppress",
				Pos:      pos,
				Message: fmt.Sprintf("unused //%s %s suppression: no %s finding on this or the next line — delete it",
					SuppressPrefix, s.analyzer, s.analyzer),
			})
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return findings, nil
}

// match finds an unexpired suppression covering a finding of analyzer at
// pos: same file, comment on the finding's line or the one above.
func match(sups []*suppression, analyzer string, pos token.Position) *suppression {
	for _, s := range sups {
		if s.analyzer == analyzer && s.file == pos.Filename && (s.line == pos.Line || s.line == pos.Line-1) {
			return s
		}
	}
	return nil
}

// collectSuppressions parses the suppression comments of a package and
// reports malformed ones (missing reason, unknown analyzer) as findings.
func collectSuppressions(fset *token.FileSet, files []*ast.File, known map[string]bool) ([]*suppression, []Finding) {
	var sups []*suppression
	var bad []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, SuppressPrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(text, SuppressPrefix))
				// Fixture files append "// want ..." expectations to the
				// same comment; they are not part of the reason.
				if i := strings.Index(rest, "// want"); i >= 0 {
					rest = strings.TrimSpace(rest[:i])
				}
				name, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				switch {
				case name == "":
					bad = append(bad, Finding{Analyzer: "suppress", Pos: pos,
						Message: fmt.Sprintf("malformed suppression: want //%s <analyzer> <reason>", SuppressPrefix)})
				case !known[name]:
					bad = append(bad, Finding{Analyzer: "suppress", Pos: pos,
						Message: fmt.Sprintf("suppression names unknown analyzer %q", name)})
				case reason == "":
					bad = append(bad, Finding{Analyzer: "suppress", Pos: pos,
						Message: fmt.Sprintf("suppression of %s has no reason: say why the exception is sound", name)})
				default:
					sups = append(sups, &suppression{analyzer: name, file: pos.Filename, line: pos.Line})
				}
			}
		}
	}
	return sups, bad
}
