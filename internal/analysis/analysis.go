// Package analysis is a small, stdlib-only static-analysis framework for
// IPS, mimicking the golang.org/x/tools go/analysis Pass API. It exists
// because the system's correctness now hinges on conventions no compiler
// checks: journal appends must happen under the profile lock *before* the
// mutation applies, fsync/Close errors on the durability path must never
// be dropped, and crash-recovery replay must be deterministic. The
// analyzers in this package encode those invariants; cmd/ipslint runs them
// over the module and CI fails on any diagnostic.
//
// Suppression: a finding can be silenced with a comment directive on the
// offending line (or the line directly above it):
//
//	//ipslint:ignore <analyzer> <reason>
//
// The reason is mandatory — an ignore without one is itself reported.
//
// See DESIGN.md ("Machine-checked invariants: ipslint") for each
// analyzer's rule, the bugs the rules have caught, and the fixture-based
// proof layer.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description of the invariant the analyzer encodes.
	Doc string
	// Run inspects one package and reports findings via pass.Report.
	Run func(pass *Pass)
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed non-test sources.
	Files []*ast.File
	// Pkg is the type-checked package; Pkg.Path() is the import path the
	// analyzers scope their rules by.
	Pkg *types.Package
	// Info holds the type-checker's results for the files.
	Info *types.Info
	// Facts carries module-wide information collected over every package
	// in the run before any analyzer executes, so per-package passes can
	// make interprocedural judgments (e.g. hotpathalloc's annotation
	// frontier). Never nil when driven through RunPackages.
	Facts *Facts

	exports *Exports
	escapes *compiled
	diags   *[]Diagnostic
}

// Facts is the cross-package pre-pass result shared by all passes in one
// RunPackages call. Keys are function symbols in funcKey form:
// "pkgpath.Func" for package functions, "pkgpath.Type.Method" for
// methods (pointer receivers are keyed by the element type).
type Facts struct {
	// HotpathMarked holds functions annotated //ips:hotpath — their
	// bodies are machine-checked free of heap escapes.
	HotpathMarked map[string]bool
	// HotpathTrusted holds functions annotated //ips:hotpath-trust
	// <reason> — callable from the hot path but hand-vetted rather than
	// machine-checked (pooled constructors, sampled branches).
	HotpathTrusted map[string]bool
}

// CallableFromHotpath reports whether a hot function may call sym
// without a diagnostic.
func (f *Facts) CallableFromHotpath(sym string) bool {
	if f == nil {
		return false
	}
	return f.HotpathMarked[sym] || f.HotpathTrusted[sym]
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// Analyzers returns every registered IPS analyzer, in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LockOrder,
		DurabilityErr,
		Determinism,
		CtxDeadline,
		JournalBeforeApply,
		TierState,
		HotPathAlloc,
	}
}
