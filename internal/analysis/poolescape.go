package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// poolescape: objects drawn from a sync.Pool, and buffers backed by the
// registered slab allocators, must be proven either returned to the pool
// on every exit path or unreachable from return values and outward
// stores.
//
// PR-6 made the hot wave loop allocation-free by reusing scratch: the
// netstate DP buffers (dpPool), the controller's feasible-candidate pool,
// core's assignScratch and stablematch's Matcher slabs. The invariant
// that makes reuse safe is strictly one of lifetime: slab memory may flow
// anywhere WITHIN a call (re-sliced, handed to helpers, swapped), but
// must never be reachable from anything that outlives it — a Result, a
// returned slice, a captured goroutine. One `return sc.grades[:n]`
// instead of a copy and the next wave silently overwrites a caller's
// data. This check proves the discipline per function:
//
//   - Rule A (Put balance), per function unit (a declaration or one of
//     its function literals): every sync.Pool.Get must reach a Put on
//     every exit path — deferred Puts cover all later exits, branch joins
//     are pessimistic (held if held on any path), loop bodies are walked
//     twice, and an explicit panic is an exit (defers still run).
//   - Rule B (escape), flat over the whole declaration including
//     closures: pooled objects and chains rooted at registered slab
//     fields (peSlabFields) are tainted; taint flows through re-slicing,
//     copies, composite literals, append-from and calls that take tainted
//     arguments and return reference-like values (growFloats and friends
//     return views of their argument). A finding is any tainted return, a
//     tainted store through a parameter/receiver/global that is not
//     itself a registered slab field, a tainted channel send, or a
//     tainted argument to a go statement.
//
// Writing tainted memory into a registered slab field is re-registration,
// not escape (m.free = free[:0]); writing into a local container only
// taints the container, and the rules above decide whether THAT escapes.
// Intraprocedural per-function reasoning stays sound compositionally
// because the same rules apply inside every helper: a helper cannot leak
// its argument without itself being flagged, so callers only need the
// call-result taint rule.

// peSlabFields registers the long-lived reusable slab allocators: fields
// whose backing arrays persist across calls by design. Chains rooted here
// are tainted; stores back into them are allowed.
var peSlabFields = map[string]bool{
	"stablematch.Matcher.rankBack":    true,
	"stablematch.Matcher.hostRank":    true,
	"stablematch.Matcher.blackBack":   true,
	"stablematch.Matcher.blacklist":   true,
	"stablematch.Matcher.rejectedTop": true,
	"stablematch.Matcher.next":        true,
	"stablematch.Matcher.used":        true,
	"stablematch.Matcher.tenants":     true,
	"stablematch.Matcher.free":        true,
	// core's recycled per-call state: the append-only slabs, and the
	// memos and per-group tables that hold their carvings. A carving
	// may flow anywhere inside the Schedule call (into the matcher, the
	// preference memo), never out of it.
	"core.runState.ints":      true,
	"core.runState.nodes":     true,
	"core.runState.dists":     true,
	"core.runState.prefs":     true,
	"core.runState.rows":      true,
	"core.runState.peerSrv":   true,
	"core.runState.classes":   true,
	"core.runState.propPrefs": true,
	"core.runState.votes":     true,
	"core.runState.hostPrefs": true,
}

// PoolEscape is the v3 pool/slab lifetime check.
type PoolEscape struct{}

// Name implements Check.
func (PoolEscape) Name() string { return "poolescape" }

// Doc implements Check.
func (PoolEscape) Doc() string {
	return "sync.Pool objects must be Put on every exit path and pool/slab memory must not escape the call"
}

// RunModule implements ModuleCheck.
func (PoolEscape) RunModule(mp *ModulePass) {
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				peCheckDecl(mp, pkg, fd)
			}
		}
	}
}

// peGet is one tracked Pool.Get binding.
type peGet struct {
	pos    token.Pos
	obj    types.Object
	leaked bool
}

func peCheckDecl(mp *ModulePass, pkg *Package, fd *ast.FuncDecl) {
	// ---- Rule A: Put balance, per function unit. ----
	var units []*ast.BlockStmt
	units = append(units, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			units = append(units, fl.Body)
		}
		return true
	})
	var pooled []types.Object // every pooled object, for rule B seeding
	for _, body := range units {
		pooled = append(pooled, peRuleA(mp, pkg, body, units)...)
	}

	// ---- Rule B: taint and escape, flat over the declaration. ----
	peRuleB(mp, pkg, fd, pooled)
}

// peIsPoolMethod reports whether call is sync.Pool method name on any
// receiver expression.
func peIsPoolMethod(pkg *Package, call *ast.CallExpr, name string) (recv ast.Expr, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != name {
		return nil, false
	}
	t := pkg.Info.TypeOf(sel.X)
	if t == nil {
		return nil, false
	}
	named, isNamed := derefType(t).(*types.Named)
	if !isNamed {
		return nil, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" || obj.Name() != "Pool" {
		return nil, false
	}
	return sel.X, true
}

// peGetCall unwraps an expression to a Pool.Get call, looking through
// parens and type assertions (pool.Get().(*scratch)).
func peGetCall(pkg *Package, e ast.Expr) *ast.CallExpr {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	if _, isGet := peIsPoolMethod(pkg, call, "Get"); !isGet {
		return nil
	}
	return call
}

// peRuleA walks one function unit proving every Get reaches a Put on
// every exit path. Nested literal bodies (their own units) are skipped.
// It returns the pooled objects found, for rule B seeding.
func peRuleA(mp *ModulePass, pkg *Package, body *ast.BlockStmt, units []*ast.BlockStmt) []types.Object {
	nested := func(n ast.Node) bool {
		for _, u := range units {
			if u != body && u.Pos() <= n.Pos() && n.Pos() < u.End() {
				return true
			}
		}
		return false
	}

	// Pre-pass: find Get bindings and unbound Gets in this unit.
	gets := make(map[types.Object]*peGet)
	bound := make(map[*ast.CallExpr]bool)
	var order []*peGet
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || nested(n) {
			return true
		}
		for i, rhs := range as.Rhs {
			call := peGetCall(pkg, rhs)
			if call == nil || i >= len(as.Lhs) {
				continue
			}
			id, isID := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if !isID {
				continue
			}
			obj := pkg.Info.ObjectOf(id)
			if obj == nil {
				continue
			}
			bound[call] = true
			g := &peGet{pos: call.Pos(), obj: obj}
			gets[obj] = g
			order = append(order, g)
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || nested(n) || bound[call] {
			return true
		}
		if _, isGet := peIsPoolMethod(pkg, call, "Get"); isGet {
			mp.Reportf(pkg, call.Pos(),
				"result of Pool.Get is not bound to a variable; taalint cannot prove it returns to the pool")
		}
		return true
	})

	var pooledObjs []types.Object
	for obj := range gets {
		pooledObjs = append(pooledObjs, obj)
	}
	if len(gets) == 0 {
		return pooledObjs
	}

	// putTarget resolves a Put call's released object, looking inside a
	// deferred closure body too (defer func() { pool.Put(x) }()).
	putTargets := func(n ast.Node) []*peGet {
		var out []*peGet
		ast.Inspect(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, isPut := peIsPoolMethod(pkg, call, "Put"); isPut && len(call.Args) == 1 {
				if obj := rootIdentObject(pkg, call.Args[0]); obj != nil {
					if g := gets[obj]; g != nil {
						out = append(out, g)
					}
				}
			}
			return true
		})
		return out
	}

	type state struct {
		held     map[*peGet]bool
		deferred map[*peGet]bool
	}
	clone := func(s *state) *state {
		c := &state{held: make(map[*peGet]bool, len(s.held)), deferred: make(map[*peGet]bool, len(s.deferred))}
		for k, v := range s.held {
			c.held[k] = v
		}
		for k, v := range s.deferred {
			c.deferred[k] = v
		}
		return c
	}
	// join: held on any path stays held; a defer registered on only some
	// paths is not guaranteed to run.
	join := func(dst *state, srcs ...*state) {
		for _, s := range srcs {
			for g, h := range s.held {
				if h {
					dst.held[g] = true
				}
			}
		}
		for g := range dst.deferred {
			for _, s := range srcs {
				if !s.deferred[g] {
					delete(dst.deferred, g)
					break
				}
			}
		}
	}
	exit := func(s *state) {
		for g, h := range s.held {
			if h && !s.deferred[g] {
				g.leaked = true
			}
		}
	}

	var walk func(s ast.Stmt, st *state)
	walkList := func(list []ast.Stmt, st *state) {
		for _, s := range list {
			walk(s, st)
		}
	}
	walk = func(s ast.Stmt, st *state) {
		switch x := s.(type) {
		case *ast.BlockStmt:
			walkList(x.List, st)
		case *ast.LabeledStmt:
			walk(x.Stmt, st)
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if call := peGetCall(pkg, rhs); call != nil && i < len(x.Lhs) {
					if id, ok := ast.Unparen(x.Lhs[i]).(*ast.Ident); ok {
						if g := gets[pkg.Info.ObjectOf(id)]; g != nil {
							st.held[g] = true
						}
					}
				}
			}
		case *ast.ExprStmt:
			for _, g := range putTargets(x) {
				st.held[g] = false
			}
			if call, ok := ast.Unparen(x.X).(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
					if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
						exit(st) // deferred Puts run during panic unwinding
						for g := range st.held {
							st.held[g] = false
						}
					}
				}
			}
		case *ast.DeferStmt:
			for _, g := range putTargets(x) {
				st.deferred[g] = true
			}
		case *ast.ReturnStmt:
			exit(st)
			for g := range st.held {
				st.held[g] = false // unreachable afterwards on this path
			}
		case *ast.IfStmt:
			if x.Init != nil {
				walk(x.Init, st)
			}
			thenSt := clone(st)
			walk(x.Body, thenSt)
			elseSt := clone(st)
			if x.Else != nil {
				walk(x.Else, elseSt)
			}
			join(st, thenSt, elseSt)
		case *ast.ForStmt:
			if x.Init != nil {
				walk(x.Init, st)
			}
			// Two passes: effects of one iteration feed the next.
			for i := 0; i < 2; i++ {
				bodySt := clone(st)
				walk(x.Body, bodySt)
				if x.Post != nil {
					walk(x.Post, bodySt)
				}
				join(st, bodySt)
			}
		case *ast.RangeStmt:
			for i := 0; i < 2; i++ {
				bodySt := clone(st)
				walk(x.Body, bodySt)
				join(st, bodySt)
			}
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			var bodyList []ast.Stmt
			switch y := x.(type) {
			case *ast.SwitchStmt:
				if y.Init != nil {
					walk(y.Init, st)
				}
				bodyList = y.Body.List
			case *ast.TypeSwitchStmt:
				if y.Init != nil {
					walk(y.Init, st)
				}
				bodyList = y.Body.List
			case *ast.SelectStmt:
				bodyList = y.Body.List
			}
			branches := []*state{clone(st)} // no-case-taken path
			for _, cc := range bodyList {
				br := clone(st)
				switch c := cc.(type) {
				case *ast.CaseClause:
					walkList(c.Body, br)
				case *ast.CommClause:
					walkList(c.Body, br)
				}
				branches = append(branches, br)
			}
			join(st, branches...)
		}
	}

	st := &state{held: make(map[*peGet]bool), deferred: make(map[*peGet]bool)}
	walkList(body.List, st)
	exit(st) // fall off the end

	for _, g := range order {
		if g.leaked {
			mp.Reportf(pkg, g.pos,
				"pooled %s may not be returned to its pool on every exit path; defer the Put or Put before each return",
				g.obj.Name())
		}
	}
	return pooledObjs
}

// peRefLike reports whether a value of type t can carry references to
// slab memory: pointers, slices, maps, chans, funcs, interfaces, and
// aggregates containing them. Strings are immutable and scalar-like.
func peRefLike(t types.Type, seen map[types.Type]bool) bool {
	if t == nil {
		return false
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	if seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if peRefLike(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return peRefLike(u.Elem(), seen)
	}
	return false
}

// peRuleB runs the flat taint/escape analysis over one declaration.
func peRuleB(mp *ModulePass, pkg *Package, fd *ast.FuncDecl, pooled []types.Object) {
	tainted := make(map[types.Object]bool)
	for _, obj := range pooled {
		tainted[obj] = true
	}

	// chainTainted: does the expression's value chain reach slab memory?
	var chainTainted func(e ast.Expr) bool
	chainTainted = func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.ParenExpr:
			return chainTainted(x.X)
		case *ast.Ident:
			return tainted[pkg.Info.ObjectOf(x)]
		case *ast.StarExpr:
			return chainTainted(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				return chainTainted(x.X)
			}
			return false
		case *ast.IndexExpr:
			return chainTainted(x.X)
		case *ast.SliceExpr:
			return chainTainted(x.X)
		case *ast.SelectorExpr:
			if owner, field := fieldOf(pkg, x); field != nil {
				if peSlabFields[shortKey(fieldAccessKey(owner, field))] {
					return true
				}
			}
			return chainTainted(x.X)
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				if chainTainted(el) {
					return true
				}
			}
		case *ast.TypeAssertExpr:
			return chainTainted(x.X)
		case *ast.CallExpr:
			// Conversions share backing ([]T(x)); append shares arg0's
			// backing; other calls may return views of any argument (the
			// grow* helper shape).
			if tv, ok := pkg.Info.Types[x.Fun]; ok && tv.IsType() {
				if len(x.Args) == 1 {
					return chainTainted(x.Args[0])
				}
				return false
			}
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					if id.Name == "append" && len(x.Args) > 0 {
						return chainTainted(x.Args[0])
					}
					return false // len, cap, min, max...
				}
			}
			for _, a := range x.Args {
				if chainTainted(a) && peRefLike(pkg.Info.TypeOf(a), nil) {
					return true
				}
			}
		}
		return false
	}
	// taintedExpr: the chain reaches slab memory AND the value itself can
	// carry a reference (reading a scalar element launders the taint).
	taintedExpr := func(e ast.Expr) bool {
		return chainTainted(e) && peRefLike(pkg.Info.TypeOf(e), nil)
	}

	// lvalueInfo walks an lvalue spine: root object, nontrivial (writes
	// through, not rebinds), and whether any selector on the spine is a
	// registered slab field (re-registration).
	lvalueInfo := func(e ast.Expr) (root types.Object, nontrivial, slab bool) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				nontrivial = true
				e = x.X
			case *ast.IndexExpr:
				nontrivial = true
				e = x.X
			case *ast.SelectorExpr:
				nontrivial = true
				if owner, field := fieldOf(pkg, x); field != nil {
					if peSlabFields[shortKey(fieldAccessKey(owner, field))] {
						slab = true
					}
				}
				e = x.X
			case *ast.Ident:
				root = pkg.Info.ObjectOf(x)
				return
			default:
				return
			}
		}
	}

	// Formal slots and named results: roots that outlive the call body.
	outlives := make(map[types.Object]bool)
	addFields := func(fl *ast.FieldList) []types.Object {
		var objs []types.Object
		if fl == nil {
			return nil
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					outlives[obj] = true
					objs = append(objs, obj)
				}
			}
		}
		return objs
	}
	addFields(fd.Recv)
	addFields(fd.Type.Params)
	namedResults := addFields(fd.Type.Results)
	nonLocal := func(obj types.Object) bool {
		if obj == nil {
			return false
		}
		return outlives[obj] || obj.Parent() == pkg.Pkg.Scope()
	}

	// Taint propagation to fixpoint: copies, container stores, ranges.
	for changed := true; changed; {
		changed = false
		taint := func(obj types.Object) {
			if obj != nil && !tainted[obj] {
				tainted[obj] = true
				changed = true
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range s.Lhs {
					if i >= len(s.Rhs) {
						break
					}
					if !taintedExpr(s.Rhs[i]) {
						continue
					}
					root, nontrivial, slab := lvalueInfo(lhs)
					if root == nil || slab {
						continue
					}
					if !nontrivial || !nonLocal(root) {
						// Rebinding taints the variable; a store into a
						// local container taints the container.
						taint(root)
					}
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					if i < len(s.Values) && taintedExpr(s.Values[i]) {
						taint(pkg.Info.Defs[name])
					}
				}
			case *ast.RangeStmt:
				if s.Value != nil && chainTainted(s.X) {
					if id, ok := ast.Unparen(s.Value).(*ast.Ident); ok && peRefLike(pkg.Info.TypeOf(id), nil) {
						taint(pkg.Info.ObjectOf(id))
					}
				}
			}
			return true
		})
	}

	// Escape detection.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ReturnStmt:
			if len(s.Results) == 0 {
				for _, obj := range namedResults {
					if tainted[obj] {
						mp.Reportf(pkg, s.Pos(),
							"named result %s carries pool/slab-backed memory out of the call; copy into a fresh allocation",
							obj.Name())
					}
				}
				return true
			}
			for _, r := range s.Results {
				if taintedExpr(r) {
					mp.Reportf(pkg, r.Pos(),
						"return value reaches pool/slab-backed memory; pooled buffers must not outlive the call — copy into a fresh allocation")
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				if i >= len(s.Rhs) || !taintedExpr(s.Rhs[i]) {
					continue
				}
				root, nontrivial, slab := lvalueInfo(lhs)
				if slab || root == nil || !nontrivial {
					continue
				}
				if nonLocal(root) {
					mp.Reportf(pkg, lhs.Pos(),
						"pool/slab-backed memory stored through %s, which outlives this call; copy first or store into a registered slab field (peSlabFields)",
						root.Name())
				}
			}
		case *ast.SendStmt:
			if taintedExpr(s.Value) {
				mp.Reportf(pkg, s.Value.Pos(),
					"pool/slab-backed memory sent on a channel; the receiver outlives this call — copy into a fresh allocation")
			}
		case *ast.GoStmt:
			for _, a := range s.Call.Args {
				if taintedExpr(a) {
					mp.Reportf(pkg, a.Pos(),
						"pool/slab-backed memory passed to a goroutine that may outlive this call; copy into a fresh allocation")
				}
			}
		}
		return true
	})
}
