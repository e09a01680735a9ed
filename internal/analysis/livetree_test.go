package analysis

import (
	"strings"
	"sync"
	"testing"
)

var (
	moduleOnce sync.Once
	moduleVal  []*Package
	moduleErr  error
)

// liveModule type-checks the repository's own packages once per test
// binary, from the export data the fixture tests share, and runs their
// escape-analysis compiles up front for every test that analyzes them.
func liveModule(t *testing.T) []*Package {
	t.Helper()
	exp := sharedExports(t)
	moduleOnce.Do(func() {
		moduleVal, _, moduleErr = exp.Module()
		if moduleErr == nil {
			precompile(moduleVal)
		}
	})
	if moduleErr != nil {
		t.Fatalf("loading module: %v", moduleErr)
	}
	if len(moduleVal) == 0 {
		t.Fatal("no packages loaded")
	}
	return moduleVal
}

// TestLiveTreeDiagnosticFree pins the repository itself at zero ipslint
// findings — including hotpathalloc, so no //ips:hotpath function in
// the tree has a heap escape the compiler reports. A failure here means
// a change reintroduced a lock-order, durability, determinism, context,
// journal-ordering, tier-state, or hot-path-allocation violation — fix
// the code (or, for a demonstrated false positive, add an
// //ipslint:ignore <analyzer> <reason> directive at the site; the
// reason is mandatory, reasonless ignores are themselves findings).
func TestLiveTreeDiagnosticFree(t *testing.T) {
	diags := RunPackages(liveModule(t), Analyzers())
	if len(diags) > 0 {
		var b strings.Builder
		for _, d := range diags {
			b.WriteString("\n\t")
			b.WriteString(d.String())
		}
		t.Errorf("live tree must be ipslint-clean; %d finding(s):%s", len(diags), b.String())
	}
}

// TestHotpathIgnoresSuppressSomething keeps the hot-path frontier
// honest: every //ipslint:ignore hotpathalloc in the live tree must sit
// on, or directly above, a line where the analyzer reports something.
// An ignore that suppresses nothing hides no allocation and goes.
func TestHotpathIgnoresSuppressSomething(t *testing.T) {
	pkgs := liveModule(t)
	facts := CollectFacts(pkgs)
	type line struct {
		file string
		n    int
	}
	for _, pkg := range pkgs {
		reported := make(map[line]bool)
		for _, d := range runPackage(pkg, []*Analyzer{HotPathAlloc}, facts) {
			reported[line{d.Pos.Filename, d.Pos.Line}] = true
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					fields := strings.Fields(strings.TrimPrefix(c.Text, ignorePrefix))
					if !strings.HasPrefix(c.Text, ignorePrefix) || len(fields) == 0 || fields[0] != HotPathAlloc.Name {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					if !reported[line{pos.Filename, pos.Line}] && !reported[line{pos.Filename, pos.Line + 1}] {
						t.Errorf("%s: //ipslint:ignore hotpathalloc suppresses nothing; delete it", pos)
					}
				}
			}
		}
	}
}
