package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The lockorder analyzer. ARCHITECTURE.md's locking discipline says
// the engine's locks nest in exactly one order — DB.wmu outermost,
// then the storage locks (Catalog.mu, Table.mu), then the evaluator
// cache's map lock and entry locks, and a shared grouping's
// aggregate-memo lock innermost. The
// analyzer assigns each documented lock a numeric tier, tracks the
// held set through every function body (branch bodies fork the state,
// defers of Unlock pin a lock to the function's end), and checks two
// rules at every acquisition: the new lock's tier must be strictly
// greater than every held tier (acquiring outward is an inversion),
// and no held class may be acquired again (self-deadlock). Calls are
// checked interprocedurally: every function gets a fixpoint summary
// of the lock classes it may acquire (directly or through callees),
// and calling a function whose summary reaches a tier at or below a
// held tier is flagged at the call site. Dynamic calls (interface
// methods, function values) have no summary and are not tracked —
// keep lock-holding regions free of them.

// lockClass is one documented lock tier. Classification is by
// (receiver type name, field name): the names are unique in this
// repository, and name-based matching lets the analysistest fixtures
// model the hierarchy without importing unexported engine types.
type lockClass struct {
	tier int
	name string
}

// lockClasses maps [type name, field name] to the documented tier.
// Lower tiers are outermost: wmu(10) > Catalog/Table mu(20) >
// cache mu(30) > entry mu(40) > Grouping mu(50).
var lockClasses = map[[2]string]lockClass{
	{"DB", "wmu"}:       {10, "DB.wmu"},
	{"Catalog", "mu"}:   {20, "storage.Catalog.mu"},
	{"Table", "mu"}:     {20, "storage.Table.mu"},
	{"evalCache", "mu"}: {30, "evalCache.mu"},
	{"incrEntry", "mu"}: {40, "incrEntry.mu"},
	{"Grouping", "mu"}:  {50, "exec.Grouping.mu"},
}

// LockOrder checks every lock acquisition against the documented
// partial order, including locks acquired by callees.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "enforce the documented lock order: wmu > table.mu > cache.mu > entry.mu > Grouping.mu",
	Run:  runLockOrder,
}

// lockSummaries is the whole-program map from function object to the
// set of lock classes the function may acquire, transitively.
type lockSummaries struct {
	acquires map[*types.Func]map[lockClass]bool
	decls    map[*types.Func]*ast.FuncDecl
	infos    map[*types.Func]*types.Info
}

func runLockOrder(pass *Pass) {
	sums := pass.Prog.Shared("lockorder.summaries", func() any {
		return buildLockSummaries(pass.Prog)
	}).(*lockSummaries)

	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &lockWalker{pass: pass, info: pass.Pkg.Info, sums: sums}
			w.walkBody(fd.Body)
			// Function literals run in an unknown lock context; check
			// their bodies independently with nothing held. A literal
			// nested in a literal is queued again by its parent's walk.
			for len(w.lits) > 0 {
				lit := w.lits[0]
				w.lits = w.lits[1:]
				w.held = map[lockClass]token.Pos{}
				w.walkStmts(lit.Body.List)
			}
		}
	}
}

// buildLockSummaries computes the may-acquire fixpoint over every
// function in the program.
func buildLockSummaries(prog *Program) *lockSummaries {
	s := &lockSummaries{
		acquires: map[*types.Func]map[lockClass]bool{},
		decls:    map[*types.Func]*ast.FuncDecl{},
		infos:    map[*types.Func]*types.Info{},
	}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				s.decls[obj] = fd
				s.infos[obj] = pkg.Info
				direct := map[lockClass]bool{}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if class, op, ok := lockOp(pkg.Info, call); ok && op == opLock {
							direct[class] = true
						}
					}
					return true
				})
				s.acquires[obj] = direct
			}
		}
	}
	// Fixpoint: propagate callee acquisitions to callers until stable.
	for changed := true; changed; {
		changed = false
		for obj, fd := range s.decls {
			info := s.infos[obj]
			acq := s.acquires[obj]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := staticCallee(info, call)
				if callee == nil {
					return true
				}
				for class := range s.acquires[callee] {
					if !acq[class] {
						acq[class] = true
						changed = true
					}
				}
				return true
			})
		}
	}
	return s
}

// staticCallee resolves a call expression to a statically known
// function or method object, or nil (builtins, function values,
// interface methods, type conversions).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// lockOpKind distinguishes acquisitions from releases.
type lockOpKind int

const (
	opLock lockOpKind = iota
	opUnlock
)

// lockOp reports whether call is Lock/RLock/TryLock (or the Unlock
// forms) on one of the documented lock fields, and which class.
func lockOp(info *types.Info, call *ast.CallExpr) (lockClass, lockOpKind, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, 0, false
	}
	var op lockOpKind
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		op = opLock
	case "Unlock", "RUnlock":
		op = opUnlock
	default:
		return lockClass{}, 0, false
	}
	field, ok := unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, 0, false
	}
	tv, ok := info.Types[field.X]
	if !ok {
		return lockClass{}, 0, false
	}
	t := tv.Type
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return lockClass{}, 0, false
	}
	class, ok := lockClasses[[2]string{named.Obj().Name(), field.Sel.Name}]
	if !ok {
		return lockClass{}, 0, false
	}
	return class, op, true
}

// lockWalker tracks the held lock set through one function body.
// Statements in a block update the state in order; branch bodies (if,
// for, switch cases, select comms) run on a copy, so an early-exit
// unlock inside a branch neither leaks out of it nor erases the
// fallthrough path's state. That makes the analysis an
// under-approximation on exotic flow, and exact on the engine's
// straight-line lock/defer-unlock idioms.
type lockWalker struct {
	pass *Pass
	info *types.Info
	sums *lockSummaries
	held map[lockClass]token.Pos
	lits []*ast.FuncLit
}

func (w *lockWalker) walkBody(body *ast.BlockStmt) {
	w.held = map[lockClass]token.Pos{}
	w.walkStmts(body.List)
}

func (w *lockWalker) walkStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		w.walkStmt(s)
	}
}

// fork runs the walk on a copy of the held set and discards the
// branch's effects.
func (w *lockWalker) fork(run func()) {
	saved := w.held
	forked := make(map[lockClass]token.Pos, len(saved))
	for k, v := range saved {
		forked[k] = v
	}
	w.held = forked
	run()
	w.held = saved
}

func (w *lockWalker) walkStmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.walkStmts(st.List)
	case *ast.ExprStmt:
		w.walkExpr(st.X)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			w.walkExpr(e)
		}
		for _, e := range st.Lhs {
			w.walkExpr(e)
		}
	case *ast.IfStmt:
		w.walkStmt(st.Init)
		w.walkExpr(st.Cond)
		w.fork(func() { w.walkStmts(st.Body.List) })
		if st.Else != nil {
			w.fork(func() { w.walkStmt(st.Else) })
		}
	case *ast.ForStmt:
		w.walkStmt(st.Init)
		if st.Cond != nil {
			w.walkExpr(st.Cond)
		}
		w.fork(func() {
			w.walkStmts(st.Body.List)
			w.walkStmt(st.Post)
		})
	case *ast.RangeStmt:
		w.walkExpr(st.X)
		w.fork(func() { w.walkStmts(st.Body.List) })
	case *ast.SwitchStmt:
		w.walkStmt(st.Init)
		if st.Tag != nil {
			w.walkExpr(st.Tag)
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			w.fork(func() {
				for _, e := range cc.List {
					w.walkExpr(e)
				}
				w.walkStmts(cc.Body)
			})
		}
	case *ast.TypeSwitchStmt:
		w.walkStmt(st.Init)
		w.walkStmt(st.Assign)
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			w.fork(func() { w.walkStmts(cc.Body) })
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			w.fork(func() {
				w.walkStmt(cc.Comm)
				w.walkStmts(cc.Body)
			})
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			w.walkExpr(e)
		}
	case *ast.DeferStmt:
		w.walkDefer(st.Call)
	case *ast.GoStmt:
		// The goroutine runs concurrently; its body is checked
		// independently (queued if it is a literal), and its
		// acquisitions are not part of this goroutine's held set.
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			w.lits = append(w.lits, lit)
		}
		for _, arg := range st.Call.Args {
			w.walkExpr(arg)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.walkExpr(e)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		w.walkStmt(st.Stmt)
	case *ast.IncDecStmt:
		w.walkExpr(st.X)
	case *ast.SendStmt:
		w.walkExpr(st.Chan)
		w.walkExpr(st.Value)
	}
}

// walkDefer handles `defer x.Unlock()` (the lock stays held to the
// function's end — no state change, which models exactly that) and
// checks any other deferred call like a normal call site.
func (w *lockWalker) walkDefer(call *ast.CallExpr) {
	if _, op, ok := lockOp(w.info, call); ok && op == opUnlock {
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.lits = append(w.lits, lit)
		return
	}
	w.checkCall(call)
}

// walkExpr scans an expression in source order for lock operations
// and call sites, skipping function literals (queued for independent
// analysis).
func (w *lockWalker) walkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			w.lits = append(w.lits, lit)
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if class, op, ok := lockOp(w.info, call); ok {
			switch op {
			case opLock:
				w.checkAcquire(class, call.Pos())
				w.held[class] = call.Pos()
			case opUnlock:
				delete(w.held, class)
			}
			return false
		}
		w.checkCall(call)
		return true
	})
}

// checkAcquire flags acquiring class while a same-or-inner tier is
// held.
func (w *lockWalker) checkAcquire(class lockClass, pos token.Pos) {
	for held := range w.held {
		switch {
		case held == class:
			w.pass.Reportf(pos, "%s acquired while already held (self-deadlock)", class.name)
		case held.tier == class.tier:
			w.pass.Reportf(pos, "%s acquired while holding same-tier %s; same-tier locks must not nest", class.name, held.name)
		case held.tier > class.tier:
			w.pass.Reportf(pos, "lock order inversion: acquiring %s (tier %d) while holding %s (tier %d); documented order is wmu > table.mu > cache.mu > entry.mu > Grouping.mu",
				class.name, class.tier, held.name, held.tier)
		}
	}
}

// checkCall flags calling a function whose may-acquire summary
// reaches a tier at or below a held tier.
func (w *lockWalker) checkCall(call *ast.CallExpr) {
	if len(w.held) == 0 {
		return
	}
	callee := staticCallee(w.info, call)
	if callee == nil {
		return
	}
	for class := range w.sums.acquires[callee] {
		for held := range w.held {
			if held.tier >= class.tier {
				w.pass.Reportf(call.Pos(), "call to %s may acquire %s (tier %d) while holding %s (tier %d)",
					callee.Name(), class.name, class.tier, held.name, held.tier)
			}
		}
	}
}
