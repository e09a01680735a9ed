package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// ignoreDirective is a parsed //ipslint:ignore comment.
type ignoreDirective struct {
	analyzer string
	reason   string
}

const ignorePrefix = "//ipslint:ignore"

// String renders a diagnostic in the file:line:col: [analyzer] message
// form the CLI prints and CI greps.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// RunPackages runs the analyzers over each package, applies
// //ipslint:ignore directives, and returns the surviving diagnostics
// sorted by position.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	facts := CollectFacts(pkgs)
	for _, a := range analyzers {
		if a == HotPathAlloc {
			precompile(pkgs)
		}
	}
	var all []Diagnostic
	for _, pkg := range pkgs {
		all = append(all, applyIgnores(pkg, runPackage(pkg, analyzers, facts))...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all
}

// runPackage runs the analyzers over one package and returns their
// diagnostics before any //ipslint:ignore directive applies.
func runPackage(pkg *Package, analyzers []*Analyzer, facts *Facts) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			Facts:    facts,
			exports:  pkg.exports,
			escapes:  pkg.escapes,
			diags:    &diags,
		}
		a.Run(pass)
	}
	return diags
}

// CollectFacts is the pre-pass over every package in a run: it scans
// function doc comments for //ips:hotpath and //ips:hotpath-trust
// markers so that per-package analyzer passes can resolve cross-package
// callees. Marking is purely syntactic here; validity (trust reasons,
// body checks) is enforced by the hotpathalloc analyzer itself.
func CollectFacts(pkgs []*Package) *Facts {
	facts := &Facts{
		HotpathMarked:  make(map[string]bool),
		HotpathTrusted: make(map[string]bool),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				hot, trust, _ := hotpathDirectives(fd.Doc)
				if !hot && !trust {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := funcKey(fn)
				if hot {
					facts.HotpathMarked[key] = true
				}
				if trust {
					facts.HotpathTrusted[key] = true
				}
			}
		}
	}
	return facts
}

// applyIgnores drops diagnostics suppressed by an //ipslint:ignore
// directive on the same line or the line directly above. A directive
// without a reason does not suppress anything and is itself reported —
// suppressions must be auditable.
func applyIgnores(pkg *Package, diags []Diagnostic) []Diagnostic {
	type key struct {
		file string
		line int
	}
	directives := make(map[key][]ignoreDirective)
	var out []Diagnostic

	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(c.Text, ignorePrefix))
				pos := pkg.Fset.Position(c.Pos())
				if len(fields) == 0 {
					out = append(out, Diagnostic{
						Analyzer: "ipslint",
						Pos:      pos,
						Message:  "ignore directive must name an analyzer: //ipslint:ignore <analyzer> <reason>",
					})
					continue
				}
				if len(fields) < 2 {
					out = append(out, Diagnostic{
						Analyzer: "ipslint",
						Pos:      pos,
						Message:  fmt.Sprintf("ignore directive for %q needs a reason: //ipslint:ignore %s <reason>", fields[0], fields[0]),
					})
					continue
				}
				directives[key{pos.Filename, pos.Line}] = append(directives[key{pos.Filename, pos.Line}],
					ignoreDirective{analyzer: fields[0], reason: strings.Join(fields[1:], " ")})
			}
		}
	}

	for _, d := range diags {
		suppressed := false
		for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
			for _, dir := range directives[key{d.Pos.Filename, line}] {
				if dir.analyzer == d.Analyzer {
					suppressed = true
				}
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	return out
}
