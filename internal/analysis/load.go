package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"go/version"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, type-checked module package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	exports *Exports
	// escapes is the package's escape-analysis compile, run ahead of the
	// passes by precompile; nil until then.
	escapes *compiled
}

// listedPkg is the subset of `go list -json` output the loader needs.
type listedPkg struct {
	ImportPath string
	Dir        string
	Name       string
	Standard   bool
	Export     string
	GoFiles    []string
	Module     *struct {
		Path      string
		Main      bool
		GoVersion string
	}
}

// Exports holds the compiled export data `go list -export` produced for
// the module and its dependencies; it resolves imports when type-checking
// module packages (or fixtures) from source.
type Exports struct {
	listed map[string]*listedPkg
	// lang is the main module's go.mod language version ("go1.22"),
	// which hotpathalloc compiles under.
	lang string
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("analysis: no go.mod found above " + dir)
		}
		dir = parent
	}
}

// LoadExports runs `go list -export -deps -json` for the module plus
// extras (stdlib packages fixture tests need but the module itself may
// not import), caching every listed package by import path.
func LoadExports(root string, extras ...string) (*Exports, error) {
	args := []string{"list", "-export", "-deps", "-json", "./..."}
	args = append(args, extras...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}
	exp := &Exports{listed: make(map[string]*listedPkg)}
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: go list decode: %v", err)
		}
		exp.listed[p.ImportPath] = &p
		if p.Module != nil && p.Module.Main {
			exp.lang = version.Lang("go" + p.Module.GoVersion)
		}
	}
	return exp, nil
}

// importer resolves imports from the compiled export data, so every
// package can be type-checked from source independently.
func (e *Exports) importer(fset *token.FileSet) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		p, ok := e.listed[path]
		if !ok || p.Export == "" {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(p.Export)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// newInfo returns a types.Info with every map the analyzers consult.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// Check type-checks already-parsed files as a package under the given
// import path. Fixture tests pass a fake module path (e.g.
// "ips/internal/wal") to place a file inside an analyzer's scope.
func (e *Exports) Check(path string, fset *token.FileSet, files []*ast.File) (*Package, error) {
	info := newInfo()
	conf := types.Config{Importer: e.importer(fset), Error: func(error) {}}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %v", path, err)
	}
	dir := ""
	if len(files) > 0 {
		dir = filepath.Dir(fset.Position(files[0].Pos()).Filename)
	}
	return &Package{Path: path, Dir: dir, Fset: fset, Files: files, Pkg: tpkg, Info: info, exports: e}, nil
}

// LoadModule type-checks every non-test package of the module rooted at
// root and returns them sorted by import path.
func LoadModule(root string) ([]*Package, *token.FileSet, error) {
	exp, err := LoadExports(root)
	if err != nil {
		return nil, nil, err
	}
	return exp.Module()
}

// Module type-checks every non-test package of the main module e was
// listed for and returns them sorted by import path.
func (e *Exports) Module() ([]*Package, *token.FileSet, error) {
	fset := token.NewFileSet()

	var paths []string
	for path, p := range e.listed {
		if p.Standard || p.Module == nil {
			continue
		}
		paths = append(paths, path)
	}
	sort.Strings(paths)

	var out []*Package
	for _, path := range paths {
		lp := e.listed[path]
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, nil, fmt.Errorf("analysis: parse %s: %v", name, err)
			}
			files = append(files, f)
		}
		pkg, err := e.Check(path, fset, files)
		if err != nil {
			return nil, nil, err
		}
		pkg.Dir = lp.Dir
		out = append(out, pkg)
	}
	return out, fset, nil
}
