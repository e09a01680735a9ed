package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// hotpathalloc: functions annotated //ips:hotpath must not heap-allocate.
//
// The steady-state single-read hit path (rpc frame decode → server
// dispatch → gcache hit → sealed query run → response encode) is the
// cost that bounds p50 at high QPS. The compiler's escape analysis is
// the oracle: the analyzer runs `go tool compile -m` over every package
// holding a marked function and reports each "escapes to heap" and
// "moved to heap" line that falls inside a marked function.
//
// Marking is interprocedural: a hot function calling a same-module
// function is a diagnostic unless the callee is itself marked
// //ips:hotpath (machine-checked) or //ips:hotpath-trust <reason>
// (hand-vetted: pooled constructors, amortized growth, sampled
// branches). Calls outside the module must hit a small allowlist
// (sync/atomic and friends), and calls through function values cannot
// be checked at all. A callee this rule accepts answers for its own
// body, so an escape the compiler reports at the call's '(' — the
// callee's escape, inlined into the caller — is not reported again.
//
// -m does not show growth-append, make(chan), goroutine starts or a
// non-escaping conversion larger than 32 bytes; the AllocsPerRun pins
// own those. A trust marker without a reason is itself reported — the
// annotation frontier stays auditable, like ignores.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "functions marked //ips:hotpath must have no heap escape under go tool compile -m; callees must be marked, trusted, or allowlisted",
	Run:  runHotPathAlloc,
}

const (
	hotpathMark = "//ips:hotpath"
	trustMark   = "//ips:hotpath-trust"
)

// hotpathDirectives parses a function's doc group for hot-path markers.
func hotpathDirectives(doc *ast.CommentGroup) (hot, trust bool, trustReason string) {
	if doc == nil {
		return false, false, ""
	}
	for _, c := range doc.List {
		switch {
		case strings.HasPrefix(c.Text, trustMark):
			trust = true
			trustReason = strings.TrimSpace(strings.TrimPrefix(c.Text, trustMark))
		case c.Text == hotpathMark || strings.HasPrefix(c.Text, hotpathMark+" "):
			hot = true
		}
	}
	return hot, trust, trustReason
}

// funcKey names a function the way Facts and the allowlist key it:
// "pkgpath.Func" or "pkgpath.Type.Method" (pointer receivers keyed by
// the element type). Universe functions (error.Error) key as their name.
func funcKey(fn *types.Func) string {
	name := fn.Name()
	pkg := fn.Pkg()
	if pkg == nil {
		return name
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return pkg.Path() + "." + n.Obj().Name() + "." + name
		}
	}
	return pkg.Path() + "." + name
}

// hotAllowPkgs are non-module packages any hot function may call: their
// hot-relevant entry points are allocation-free by contract. sort is
// here for sort.Sort over a pooled sort.Interface.
var hotAllowPkgs = map[string]bool{
	"sync":            true,
	"sync/atomic":     true,
	"math":            true,
	"math/bits":       true,
	"encoding/binary": true,
	"unsafe":          true,
	"sort":            true,
}

// hotAllowSyms are individually vetted non-module functions and methods,
// for packages whose other entry points do allocate (time.NewTimer,
// errors.New, list.PushFront).
var hotAllowSyms = map[string]bool{
	"errors.Is":                       true,
	"context.Context.Value":           true,
	"context.Context.Err":             true,
	"context.Context.Done":            true,
	"context.Context.Deadline":        true,
	"time.Now":                        true,
	"time.Since":                      true,
	"time.Time.Sub":                   true,
	"time.Time.Add":                   true,
	"time.Time.Before":                true,
	"time.Time.After":                 true,
	"time.Time.UnixNano":              true,
	"time.Time.IsZero":                true,
	"time.Duration.Nanoseconds":       true,
	"time.Duration.Milliseconds":      true,
	"time.Duration.Seconds":           true,
	"container/list.List.MoveToFront": true,
	"time.Timer.Stop":                 true,
	"time.Timer.Reset":                true,
	// The flush leader's one yield (rpc.connWriter.flush): a scheduler
	// hand-off, no allocation.
	"runtime.Gosched": true,
}

// hotFuncs returns the functions whose bodies hotpathalloc checks: those
// marked //ips:hotpath and not trusted. Trusted functions are hand-vetted:
// callable from the hot path, body not machine-checked.
func hotFuncs(files []*ast.File) []*ast.FuncDecl {
	var hot []*ast.FuncDecl
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if isHot, trust, _ := hotpathDirectives(fd.Doc); isHot && !trust && fd.Body != nil {
				hot = append(hot, fd)
			}
		}
	}
	return hot
}

func runHotPathAlloc(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if _, trust, reason := hotpathDirectives(fd.Doc); trust && reason == "" {
				pass.Reportf(fd.Pos(), "//ips:hotpath-trust on %s needs a reason: //ips:hotpath-trust <reason>", fd.Name.Name)
			}
		}
	}
	hot := hotFuncs(pass.Files)
	if len(hot) == 0 {
		return
	}

	// inlined holds the '(' of every call the callee rule accepts.
	// Conversions and builtins call no function; the compiler reports
	// make and new at their own '('.
	inlined := make(map[token.Pos]bool)
	for _, fd := range hot {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if tv, ok := pass.Info.Types[call.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
				return true
			}
			if checkCallee(pass, call) {
				inlined[call.Lparen] = true
			}
			return true
		})
	}

	res := pass.escapes
	if res == nil {
		res = compileEscapes(pass.exports, pass.Pkg.Path(), pass.Fset, pass.Files)
	}
	if res.err != nil {
		pass.Reportf(pass.Files[0].Package, "cannot run escape analysis: %v", res.err)
		return
	}
	for _, e := range res.escapes {
		if inlined[e.pos] {
			continue
		}
		for _, fd := range hot {
			if fd.Pos() <= e.pos && e.pos < fd.End() {
				pass.Reportf(e.pos, "%s on the hot path", e.msg)
				break
			}
		}
	}
}

// checkCallee enforces the interprocedural marking rule on one call and
// reports whether the rule accepts it.
func checkCallee(pass *Pass, call *ast.CallExpr) bool {
	fn := staticCallee(pass.Info, call)
	if fn == nil {
		pass.Reportf(call.Pos(), "dynamic call through a function value on the hot path cannot be verified")
		return false
	}
	if fn.Pkg() == nil {
		return true // universe: error.Error and friends
	}
	key := funcKey(fn)
	path := fn.Pkg().Path()
	if firstSegment(path) == firstSegment(pass.Pkg.Path()) {
		if !pass.Facts.CallableFromHotpath(key) {
			pass.Reportf(call.Pos(), "hot path calls %s which is not marked //ips:hotpath (mark it, trust it with a reason, or move the call off the hot path)", key)
			return false
		}
		return true
	}
	if hotAllowPkgs[path] || hotAllowSyms[key] {
		return true
	}
	pass.Reportf(call.Pos(), "call to %s is not on the hot-path allowlist", key)
	return false
}

// escape is one heap escape the compiler reported.
type escape struct {
	pos token.Pos
	msg string
}

// escapeLine matches the two `go tool compile -m` message forms every
// supported toolchain prints for a heap allocation:
// "file:line:col: <expr> escapes to heap" and
// "file:line:col: moved to heap: <name>".
var escapeLine = regexp.MustCompile(`(?m)^(.+):(\d+):(\d+): (.+ escapes to heap|moved to heap: .+)$`)

// compiled is the outcome of one package's escape-analysis compile.
type compiled struct {
	escapes []escape
	err     error
}

// precompile runs the escape-analysis compile of every package with a
// checked hot function that has not had one yet, concurrently and at
// most GOMAXPROCS at a time, so the per-package passes find the result
// instead of compiling one package after another.
func precompile(pkgs []*Package) {
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for _, pkg := range pkgs {
		if pkg.escapes != nil || len(hotFuncs(pkg.Files)) == 0 {
			continue
		}
		wg.Add(1)
		go func(pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			pkg.escapes = compileEscapes(pkg.exports, pkg.Pkg.Path(), pkg.Fset, pkg.Files)
		}(pkg)
	}
	wg.Wait()
}

// compileEscapes compiles the package with -m and collects the heap
// escapes the compiler reports in its files.
func compileEscapes(exp *Exports, path string, fset *token.FileSet, pkgFiles []*ast.File) *compiled {
	files := make(map[string]*token.File)
	var args []string
	for _, f := range pkgFiles {
		tf := fset.File(f.Pos())
		abs, err := filepath.Abs(tf.Name())
		if err != nil {
			return &compiled{err: err}
		}
		files[abs] = tf
		args = append(args, abs)
	}
	out, err := exp.compile(path, args)
	if err != nil {
		return &compiled{err: err}
	}
	var escapes []escape
	for _, m := range escapeLine.FindAllStringSubmatch(string(out), -1) {
		tf := files[m[1]]
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		if tf == nil || line < 1 || line > tf.LineCount() {
			continue
		}
		escapes = append(escapes, escape{pos: tf.LineStart(line) + token.Pos(col-1), msg: m[4]})
	}
	return &compiled{escapes: escapes}
}

// compile runs `go tool compile -m` over files as package path and
// returns its output. Imports resolve through an importcfg written from
// the listed export data, so fixtures type-checked under fake import
// paths compile the same way as the live tree.
func (e *Exports) compile(path string, files []string) ([]byte, error) {
	dir, err := os.MkdirTemp("", "hotpathalloc")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var cfg strings.Builder
	for p, lp := range e.listed {
		if lp.Export != "" {
			fmt.Fprintf(&cfg, "packagefile %s=%s\n", p, lp.Export)
		}
	}
	importcfg := filepath.Join(dir, "importcfg")
	if err := os.WriteFile(importcfg, []byte(cfg.String()), 0o644); err != nil {
		return nil, err
	}
	args := []string{"tool", "compile", "-m", "-p", path, "-lang", e.lang,
		"-importcfg", importcfg, "-o", filepath.Join(dir, "pkg.o")}
	out, err := exec.Command("go", append(args, files...)...).CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go tool compile %s: %v\n%s", path, err, out)
	}
	return out, nil
}

func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[f].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func firstSegment(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
