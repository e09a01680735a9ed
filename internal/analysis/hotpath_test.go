package analysis

import (
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// Driver edges for the hotpathalloc analyzer: ignore directives honored,
// cross-file mark propagation, and the live-tree annotation frontier
// actually carrying marks.

// TestHotpathIgnoreHonored: a reasoned //ipslint:ignore hotpathalloc
// suppresses a finding entirely — the escaping new(int) in the fixture
// produces no surviving diagnostic.
func TestHotpathIgnoreHonored(t *testing.T) {
	exp := sharedExports(t)
	fset := token.NewFileSet()
	pkg, _ := loadFixture(t, exp, fset, filepath.Join("testdata", "src", "hotpathalloc", "ignored_clean.go"))
	diags := RunPackages([]*Package{pkg}, []*Analyzer{HotPathAlloc})
	if len(diags) != 0 {
		t.Errorf("reasoned ignore must suppress the finding, got %d diagnostics: %v", len(diags), diags)
	}
}

// TestHotpathFactsPropagation: marks declared in one file of a package
// must be visible while checking another file — the Facts pre-pass is
// package-wide. helperMarked (marked in b.go) passes, helperUnmarked is
// the only finding.
func TestHotpathFactsPropagation(t *testing.T) {
	exp := sharedExports(t)
	fset := token.NewFileSet()
	pkg, _ := loadFixtureDir(t, exp, fset, filepath.Join("testdata", "src", "hotpathalloc", "propagate"))
	diags := RunPackages([]*Package{pkg}, []*Analyzer{HotPathAlloc})
	if len(diags) != 1 {
		t.Fatalf("want exactly one diagnostic (the unmarked callee), got %d: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "helperUnmarked") {
		t.Errorf("diagnostic should name helperUnmarked, got: %s", diags[0].Message)
	}
	if strings.Contains(diags[0].Message, "helperMarked()") {
		t.Errorf("marked cross-file callee must not be flagged: %s", diags[0].Message)
	}
}

// TestHotpathFactsCoverLiveTree: the annotation sweep in this PR marked
// the steady-state read path; the Facts collected over the real module
// must contain representative symbols from each layer, or the
// interprocedural rule would be vacuously green.
func TestHotpathFactsCoverLiveTree(t *testing.T) {
	facts := CollectFacts(liveModule(t))
	for _, sym := range []string{
		"ips/internal/codec.Reader.Uint64",
		"ips/internal/wire.DecodeQueryInto",
		"ips/internal/gcache.GCache.GetForRead",
		"ips/internal/server.Instance.QueryInto",
		"ips/internal/trace.FromContext",
	} {
		if !facts.CallableFromHotpath(sym) {
			t.Errorf("expected %s to be hotpath-marked in the live tree", sym)
		}
	}
}
