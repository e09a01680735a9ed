package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// hotpathalloc: functions annotated //ips:hotpath must not heap-allocate.
//
// The steady-state single-read hit path (rpc frame decode → server
// dispatch → gcache hit → sealed query run → response encode) is the
// cost that bounds p50 at high QPS; PR 5's trace layer can attribute
// heap churn there but nothing enforces its absence. This analyzer does,
// with a conservative intra-module escape approximation:
//
//   - &T{...}, new(T), and constant-size make([]T, n) allocate when the
//     result escapes: address-taken, stored outside a local, returned,
//     passed to a call, or nested in another literal. Assignment to a
//     local that itself never leaks is stack-safe and allowed.
//   - slice/map composite literals, make(map/chan), and non-constant
//     make always allocate.
//   - append may grow unless there is cap evidence: the base is a
//     reslice (x[:0]), a field or parameter (pooled-storage contract),
//     or a local that was visibly initialized (not grown from a bare
//     nil var declaration).
//   - string↔[]byte/[]rune conversions copy, except the compiler-
//     recognized m[string(b)] map-index form.
//   - converting a concrete non-pointer-shaped value to an interface
//     boxes it — at call arguments (including variadic ...any, the fmt
//     trap), returns, assignments, and explicit conversions. Pointer-
//     shaped values (pointers, chans, maps, funcs) box for free, and
//     untyped constants are materialized in read-only data; neither is
//     flagged.
//   - capturing closures, go statements, map iteration, and
//     non-constant string concatenation allocate.
//
// Marking is interprocedural: a hot function calling a same-module
// function is a diagnostic unless the callee is itself marked
// //ips:hotpath (machine-checked) or //ips:hotpath-trust <reason>
// (hand-vetted: pooled constructors, amortized growth, sampled
// branches). Calls outside the module must hit a small allowlist
// (sync/atomic and friends). A trust marker without a reason is itself
// reported — the annotation frontier stays auditable, like ignores.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "functions marked //ips:hotpath must be free of heap allocations; callees must be marked, trusted, or allowlisted",
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
// here for sort.Sort over a pooled sort.Interface — sort.Slice still
// trips the boxing rule on its any argument.
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

func runHotPathAlloc(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			hot, trust, reason := hotpathDirectives(fd.Doc)
			if trust && reason == "" {
				pass.Reportf(fd.Pos(), "//ips:hotpath-trust on %s needs a reason: //ips:hotpath-trust <reason>", fd.Name.Name)
			}
			if !hot || trust || fd.Body == nil {
				// Trusted functions are hand-vetted: callable from the
				// hot path, body not machine-checked.
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
}

// hotFuncCheck carries per-function state through the body walk.
type hotFuncCheck struct {
	pass    *Pass
	parents map[ast.Node]ast.Node
	// leaked marks locals whose storage escapes the frame: address
	// taken, returned, passed to a call, or stored outside a local.
	// An allocation bound to a non-leaked local may stay on the stack.
	leaked map[*types.Var]bool
	// initialized marks locals that were visibly given a value (from
	// make, a reslice, a call, a parameter) — append to them is the
	// amortized pooled-growth idiom. A slice grown from a bare
	// `var x []T` has no cap evidence and is flagged.
	initialized map[*types.Var]bool
	// declType is the checked function's signature, for return-boxing.
	declType *ast.FuncType
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	c := &hotFuncCheck{
		pass:        pass,
		parents:     make(map[ast.Node]ast.Node),
		leaked:      make(map[*types.Var]bool),
		initialized: make(map[*types.Var]bool),
		declType:    fd.Type,
	}
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			c.parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := pass.Info.Defs[name].(*types.Var); ok {
					c.initialized[v] = true
				}
			}
		}
	}
	c.collectVarFacts(fd.Body)
	c.walk(fd.Body)
}

func (c *hotFuncCheck) localVar(e ast.Expr) *types.Var {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := c.pass.Info.ObjectOf(id).(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if v.Parent() == nil || v.Parent() == c.pass.Pkg.Scope() || v.Parent() == types.Universe {
		return nil
	}
	return v
}

// collectVarFacts pre-computes leak and initialization facts for locals.
func (c *hotFuncCheck) collectVarFacts(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if v := c.localVar(baseExpr(n.X)); v != nil {
					c.leaked[v] = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if v := c.localVar(r); v != nil {
					c.leaked[v] = true
				}
			}
		case *ast.CallExpr:
			if c.isConversion(n) || c.builtinName(n) != "" {
				break
			}
			for _, arg := range n.Args {
				if v := c.localVar(arg); v != nil {
					c.leaked[v] = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				v := c.localVar(rhs)
				if v == nil {
					continue
				}
				if i < len(n.Lhs) && c.localVar(n.Lhs[i]) == nil && !isBlank(n.Lhs[i]) {
					// Stored somewhere that is not a plain local.
					c.leaked[v] = true
				}
			}
			for i, lhs := range n.Lhs {
				v := c.localVar(lhs)
				if v == nil {
					continue
				}
				if len(n.Rhs) == len(n.Lhs) {
					// x = append(x, ...) is growth, not initialization
					// evidence — otherwise a grow-from-nil loop would
					// vouch for itself.
					if call, ok := unparen(n.Rhs[i]).(*ast.CallExpr); ok &&
						c.builtinName(call) == "append" && len(call.Args) > 0 &&
						c.localVar(call.Args[0]) == v {
						continue
					}
				}
				c.initialized[v] = true
			}
		case *ast.ValueSpec:
			if len(n.Values) > 0 {
				for _, name := range n.Names {
					if v, ok := c.pass.Info.Defs[name].(*types.Var); ok {
						c.initialized[v] = true
					}
				}
			}
		case *ast.RangeStmt:
			if n.Key != nil {
				if v := c.localVar(n.Key); v != nil {
					c.initialized[v] = true
				}
			}
			if n.Value != nil {
				if v := c.localVar(n.Value); v != nil {
					c.initialized[v] = true
				}
			}
		}
		return true
	})
}

func (c *hotFuncCheck) walk(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			c.checkComposite(n)
		case *ast.CallExpr:
			c.checkCall(n)
		case *ast.FuncLit:
			if free := c.captures(n); free != "" {
				c.pass.Reportf(n.Pos(), "closure captures %s and allocates on the hot path", free)
			}
		case *ast.GoStmt:
			c.pass.Reportf(n.Pos(), "go statement allocates a goroutine on the hot path")
		case *ast.RangeStmt:
			if t := c.typeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					c.pass.Reportf(n.Pos(), "range over map on the hot path: iteration order varies and large values copy per entry")
				}
			}
		case *ast.BinaryExpr:
			c.checkConcat(n)
		case *ast.ReturnStmt:
			c.checkReturnBoxing(n)
		case *ast.AssignStmt:
			c.checkAssignBoxing(n)
		}
		return true
	})
}

func (c *hotFuncCheck) typeOf(e ast.Expr) types.Type {
	if tv, ok := c.pass.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (c *hotFuncCheck) isConversion(call *ast.CallExpr) bool {
	tv, ok := c.pass.Info.Types[call.Fun]
	return ok && tv.IsType()
}

func (c *hotFuncCheck) builtinName(call *ast.CallExpr) string {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := c.pass.Info.ObjectOf(id).(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// checkComposite flags slice/map literals always and struct/array
// literals whose address escapes.
func (c *hotFuncCheck) checkComposite(n *ast.CompositeLit) {
	t := c.typeOf(n)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		c.pass.Reportf(n.Pos(), "slice literal allocates its backing array on the hot path")
		return
	case *types.Map:
		c.pass.Reportf(n.Pos(), "map literal allocates on the hot path")
		return
	}
	// Struct or array literal: a plain value is a stack copy; only the
	// &lit form can heap-allocate, and only when the pointer escapes.
	if p, ok := c.parents[n].(*ast.UnaryExpr); ok && p.Op == token.AND {
		if c.escapes(p) {
			c.pass.Reportf(n.Pos(), "&%s{...} escapes and heap-allocates on the hot path", typeName(t))
		}
	}
}

// escapes judges an allocation-producing expression by its use context.
func (c *hotFuncCheck) escapes(e ast.Expr) bool {
	parent := c.parents[e]
	for {
		p, ok := parent.(*ast.ParenExpr)
		if !ok {
			break
		}
		parent = c.parents[p]
	}
	switch p := parent.(type) {
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if unparen(rhs) != e && rhs != e {
				continue
			}
			if i >= len(p.Lhs) {
				return true
			}
			if isBlank(p.Lhs[i]) {
				return false // discarded
			}
			v := c.localVar(p.Lhs[i])
			if v == nil {
				return true // stored into a field, index, deref, or global
			}
			return c.leaked[v]
		}
		return true
	case *ast.ValueSpec:
		for i, val := range p.Values {
			if val != e {
				continue
			}
			if i < len(p.Names) {
				if v, ok := c.pass.Info.Defs[p.Names[i]].(*types.Var); ok {
					return c.leaked[v]
				}
			}
		}
		return true
	case *ast.ExprStmt:
		return false // result discarded
	case nil:
		return true
	default:
		// Returned, passed to a call, nested in a literal, sent on a
		// channel, used as a map key... all conservative escapes.
		return true
	}
}

// checkCall dispatches conversions, builtins, boxing, and the
// interprocedural marking rule.
func (c *hotFuncCheck) checkCall(n *ast.CallExpr) {
	if c.isConversion(n) {
		c.checkConversion(n)
		return
	}
	if b := c.builtinName(n); b != "" {
		c.checkBuiltin(n, b)
		return
	}
	c.checkCallBoxing(n)
	c.checkCallee(n)
}

// checkConversion flags copying string conversions and boxing ones.
func (c *hotFuncCheck) checkConversion(n *ast.CallExpr) {
	if len(n.Args) != 1 {
		return
	}
	dst := c.typeOf(n)
	src := c.typeOf(n.Args[0])
	if dst == nil || src == nil {
		return
	}
	if tv, ok := c.pass.Info.Types[n.Args[0]]; ok && tv.Value != nil {
		return // constant-folded
	}
	if isString(dst) {
		if isByteOrRuneSlice(src) || isIntegerKind(src) {
			// m[string(b)] is compiler-optimized to a no-copy lookup.
			if idx, ok := c.parents[n].(*ast.IndexExpr); ok && unparen(idx.Index) == n {
				if mt := c.typeOf(idx.X); mt != nil {
					if _, isMap := mt.Underlying().(*types.Map); isMap {
						return
					}
				}
			}
			c.pass.Reportf(n.Pos(), "conversion to string copies on the hot path")
		}
		return
	}
	if isByteOrRuneSlice(dst) && isString(src) {
		c.pass.Reportf(n.Pos(), "string to %s conversion copies on the hot path", typeName(dst))
		return
	}
	if types.IsInterface(dst) && c.boxes(dst, n.Args[0]) {
		c.pass.Reportf(n.Pos(), "conversion boxes %s into an interface on the hot path", typeName(src))
	}
}

func (c *hotFuncCheck) checkBuiltin(n *ast.CallExpr, name string) {
	switch name {
	case "new":
		if c.escapes(n) {
			c.pass.Reportf(n.Pos(), "new(%s) escapes and heap-allocates on the hot path", exprString(n.Args[0]))
		}
	case "make":
		c.checkMake(n)
	case "append":
		c.checkAppend(n)
	}
}

func (c *hotFuncCheck) checkMake(n *ast.CallExpr) {
	if len(n.Args) == 0 {
		return
	}
	t := c.typeOf(n)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		c.pass.Reportf(n.Pos(), "make(map) allocates on the hot path")
		return
	case *types.Chan:
		c.pass.Reportf(n.Pos(), "make(chan) allocates on the hot path")
		return
	}
	for _, sz := range n.Args[1:] {
		if tv, ok := c.pass.Info.Types[sz]; !ok || tv.Value == nil {
			c.pass.Reportf(n.Pos(), "make with non-constant size allocates on the hot path")
			return
		}
	}
	if c.escapes(n) {
		c.pass.Reportf(n.Pos(), "make result escapes and heap-allocates on the hot path")
	}
}

// checkAppend flags growth-append without cap evidence. Evidence:
// the base is a reslice expression, a field or parameter (storage that
// outlives the frame — the pooled-buffer contract), or a local that was
// visibly initialized. Appending to a bare `var x []T` grows from nil
// on every call and is flagged.
func (c *hotFuncCheck) checkAppend(n *ast.CallExpr) {
	if len(n.Args) == 0 {
		return
	}
	base := unparen(n.Args[0])
	switch b := base.(type) {
	case *ast.SliceExpr:
		return // x[:0] and friends carry the backing array's cap
	case *ast.SelectorExpr:
		return // field: pooled-storage contract
	case *ast.Ident:
		if v := c.localVar(b); v != nil {
			if c.initialized[v] {
				return
			}
			c.pass.Reportf(n.Pos(), "append to %s grows from a bare declaration with no cap evidence on the hot path", b.Name)
			return
		}
		// Package-level slice: treated like a field.
		return
	}
	c.pass.Reportf(n.Pos(), "append without cap evidence may grow on the hot path")
}

// pointerShaped reports whether boxing t into an interface is free:
// the value is a single pointer word the runtime stores directly.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// zeroSized reports whether t occupies no storage — boxing it reuses the
// runtime's shared zero base, never allocating. Covers the empty-struct
// context-key idiom (ctx.Value(ctxKey{})).
func zeroSized(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !zeroSized(u.Field(i).Type()) {
				return false
			}
		}
		return true
	case *types.Array:
		return u.Len() == 0 || zeroSized(u.Elem())
	}
	return false
}

// boxes reports whether assigning src to an interface of type dst
// heap-allocates: concrete, non-pointer-shaped, non-constant, non-nil.
func (c *hotFuncCheck) boxes(dst types.Type, src ast.Expr) bool {
	if dst == nil || !types.IsInterface(dst.Underlying()) {
		return false
	}
	tv, ok := c.pass.Info.Types[src]
	if !ok || tv.Type == nil || tv.IsNil() || tv.Value != nil {
		return false
	}
	if types.IsInterface(tv.Type.Underlying()) {
		return false
	}
	return !pointerShaped(tv.Type) && !zeroSized(tv.Type)
}

// checkCallBoxing flags concrete non-pointer arguments passed to
// interface parameters, including variadic ...any expansion.
func (c *hotFuncCheck) checkCallBoxing(n *ast.CallExpr) {
	ft := c.typeOf(n.Fun)
	if ft == nil {
		return
	}
	sig, ok := ft.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range n.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if n.Ellipsis != token.NoPos {
				continue // slice passed through, no per-element boxing
			}
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if c.boxes(pt, arg) {
			c.pass.Reportf(arg.Pos(), "argument boxes %s into %s on the hot path", typeName(c.typeOf(arg)), typeName(pt))
		}
	}
	if sig.Variadic() && n.Ellipsis == token.NoPos && len(n.Args) >= params.Len() {
		c.pass.Reportf(n.Pos(), "variadic call materializes an argument slice on the hot path")
	}
}

// checkCallee enforces the interprocedural marking rule.
func (c *hotFuncCheck) checkCallee(n *ast.CallExpr) {
	fn := staticCallee(c.pass.Info, n)
	if fn == nil {
		c.pass.Reportf(n.Pos(), "dynamic call through a function value on the hot path cannot be verified")
		return
	}
	if fn.Pkg() == nil {
		return // universe: error.Error and friends
	}
	key := funcKey(fn)
	path := fn.Pkg().Path()
	if sameModule(path, c.pass.Pkg.Path()) {
		if !c.pass.Facts.CallableFromHotpath(key) {
			c.pass.Reportf(n.Pos(), "hot path calls %s which is not marked //ips:hotpath (mark it, trust it with a reason, or move the call off the hot path)", key)
		}
		return
	}
	if hotAllowPkgs[path] || hotAllowSyms[key] {
		return
	}
	c.pass.Reportf(n.Pos(), "call to %s is not on the hot-path allowlist", key)
}

// checkReturnBoxing flags concrete values returned as interface results.
func (c *hotFuncCheck) checkReturnBoxing(n *ast.ReturnStmt) {
	fn := c.enclosingFuncType(n)
	if fn == nil || fn.Results == nil {
		return
	}
	var resTypes []types.Type
	for _, field := range fn.Results.List {
		t := c.typeOf(field.Type)
		cnt := len(field.Names)
		if cnt == 0 {
			cnt = 1
		}
		for i := 0; i < cnt; i++ {
			resTypes = append(resTypes, t)
		}
	}
	if len(n.Results) != len(resTypes) {
		return // naked return or comma-ok spread
	}
	for i, r := range n.Results {
		if c.boxes(resTypes[i], r) {
			c.pass.Reportf(r.Pos(), "return boxes %s into %s on the hot path", typeName(c.typeOf(r)), typeName(resTypes[i]))
		}
	}
}

// enclosingFuncType finds the innermost func literal or decl containing n.
func (c *hotFuncCheck) enclosingFuncType(n ast.Node) *ast.FuncType {
	for cur := c.parents[n]; cur != nil; cur = c.parents[cur] {
		switch f := cur.(type) {
		case *ast.FuncLit:
			return f.Type
		}
	}
	// Walked off the body: the FuncDecl itself is not in parents (the
	// walk starts at Body), so fall back to nil — decl-level returns are
	// still covered because walk() records Body's children with parents
	// reaching the Body node, whose parent is nil.
	return c.declType
}

// checkAssignBoxing flags concrete values assigned into interface-typed
// destinations.
func (c *hotFuncCheck) checkAssignBoxing(n *ast.AssignStmt) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i := range n.Lhs {
		lt := c.lhsType(n.Lhs[i])
		if c.boxes(lt, n.Rhs[i]) {
			c.pass.Reportf(n.Rhs[i].Pos(), "assignment boxes %s into %s on the hot path", typeName(c.typeOf(n.Rhs[i])), typeName(lt))
		}
	}
}

// lhsType resolves an assignment destination's type; plain identifiers
// go through ObjectOf because := definitions are not in Info.Types.
func (c *hotFuncCheck) lhsType(e ast.Expr) types.Type {
	if id, ok := unparen(e).(*ast.Ident); ok {
		if id.Name == "_" {
			return nil
		}
		if obj := c.pass.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
		return nil
	}
	return c.typeOf(e)
}

func isBlank(e ast.Expr) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

// checkConcat flags non-constant string concatenation.
func (c *hotFuncCheck) checkConcat(n *ast.BinaryExpr) {
	if n.Op != token.ADD {
		return
	}
	tv, ok := c.pass.Info.Types[n]
	if !ok || tv.Type == nil || tv.Value != nil {
		return
	}
	if isString(tv.Type) {
		c.pass.Reportf(n.Pos(), "string concatenation allocates on the hot path")
	}
}

// captures returns the name of a variable the func literal closes over,
// or "" when it captures nothing (a static funcval, allocation-free).
func (c *hotFuncCheck) captures(lit *ast.FuncLit) string {
	inside := make(map[types.Object]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.pass.Info.Defs[id]; obj != nil {
				inside[obj] = true
			}
		}
		return true
	})
	free := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if free != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || inside[v] {
			return true
		}
		if v.Parent() == nil || v.Parent() == c.pass.Pkg.Scope() || v.Parent() == types.Universe {
			return true
		}
		free = v.Name()
		return false
	})
	return free
}

// --- small helpers ---

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

func sameModule(a, b string) bool {
	return firstSegment(a) == firstSegment(b)
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

// baseExpr peels selectors and indexes to the root identifier's expr:
// &v.f[i] leaks v.
func baseExpr(e ast.Expr) ast.Expr {
	for {
		switch x := unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return x
		}
	}
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isIntegerKind(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func typeName(t types.Type) string {
	if t == nil {
		return "?"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

func exprString(e ast.Expr) string {
	if id, ok := unparen(e).(*ast.Ident); ok {
		return id.Name
	}
	return "T"
}
