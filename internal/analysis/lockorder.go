package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockOrder upgrades the field-level guardedby check to a package-wide
// lock-acquisition-order analysis. It walks every function in source order
// tracking the set of locks held (Lock/RLock acquire, Unlock/RUnlock
// release; a deferred unlock holds to the end of the function), propagates
// acquisitions and blocking behavior through same-package calls to a
// fixpoint, and reports:
//
//   - lock-order cycles: whenever lock B is acquired (directly or through a
//     callee) while A is held, the edge A→B enters a global order graph;
//     any edge participating in a cycle — including the self-edge of
//     re-acquiring a held sync.Mutex — is a potential deadlock under
//     concurrent cells;
//   - blocking while holding a lock: a channel operation, a select without
//     default, a Wait/Park/Sleep-style call, or a call to a same-package
//     function that may block, executed with a lock held, parks the
//     goroutine while every other would-be holder wedges behind it — the
//     exact shape that must not reach the kernel's event callbacks.
//
// Locks are identified by their declaring object (a struct field or a
// variable), so two instances of the same field are one lock class — the
// standard lock-ordering abstraction. A Lock call through an interface
// value (sync.Locker) is an unknown lock: it still arms the blocking check
// but contributes no order edges. Control flow is approximated by source
// order (branches are walked as straight line) and function literals are
// analyzed as their own empty-held scopes; both approximations are
// conservative for the shapes this repo allows.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "report lock-acquisition-order cycles (potential deadlock) and code that " +
		"blocks or parks while holding a lock",
	Run: runLockOrder,
}

// lockSummary is what a function does to locks, transitively.
type lockSummary struct {
	acquires map[types.Object]bool
	blocks   bool
	blockOp  string // description of the first blocking shape found
	calls    []*types.Func
}

// lockEdge is one A-held-while-acquiring-B observation.
type lockEdge struct {
	from, to types.Object
	pos      token.Pos
	via      string // "" for a direct acquisition, else the callee's name
}

func runLockOrder(pass *Pass) error {
	info := pass.TypesInfo

	// Map function objects to their declarations.
	declOf := make(map[*types.Func]*ast.FuncDecl)
	var order []*types.Func
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj, ok := info.Defs[fn.Name].(*types.Func); ok {
				declOf[obj] = fn
				order = append(order, obj)
			}
		}
	}

	// Per-function summaries, then transitive closure over same-package
	// calls.
	summaries := make(map[*types.Func]*lockSummary, len(order))
	for _, obj := range order {
		summaries[obj] = summarize(pass, declOf[obj].Body)
	}
	for changed := true; changed; {
		changed = false
		for _, obj := range order {
			s := summaries[obj]
			for _, callee := range s.calls {
				cs := summaries[callee]
				if cs == nil {
					continue
				}
				for m := range cs.acquires {
					if !s.acquires[m] {
						s.acquires[m] = true
						changed = true
					}
				}
				if cs.blocks && !s.blocks {
					s.blocks = true
					s.blockOp = fmt.Sprintf("call to %s, which %s", callee.Name(), cs.blockOp)
					changed = true
				}
			}
		}
	}

	// Walk every function with held-set tracking, collecting order edges
	// and reporting blocking-while-held on the way.
	var edges []lockEdge
	for _, obj := range order {
		w := &lockWalker{pass: pass, summaries: summaries}
		w.walk(declOf[obj].Body, nil)
		edges = append(edges, w.edges...)
	}

	reportCycles(pass, edges)
	return nil
}

// summarize records a function body's direct lock acquisitions, blocking
// shapes, and same-package static callees (including inside function
// literals: if the body can run it, the summary owns it).
func summarize(pass *Pass, body *ast.BlockStmt) *lockSummary {
	info := pass.TypesInfo
	s := &lockSummary{acquires: make(map[types.Object]bool)}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if op := blockingOp(info, n); op != "" && !s.blocks {
			s.blocks = true
			s.blockOp = op
		}
		if sel, ok := n.(*ast.SelectStmt); ok {
			selectClauseBodies(sel, visit)
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if kind, obj, ok := lockCall(info, call); ok {
			if kind == lockAcquire && obj != nil {
				s.acquires[obj] = true
			}
			return true
		}
		if fn := calleeFunc(info, call.Fun); fn != nil && fn.Pkg() == pass.Pkg {
			s.calls = append(s.calls, fn)
		}
		return true
	}
	ast.Inspect(body, visit)
	return s
}

// selectClauseBodies visits the statements of each comm clause body of a
// select, skipping the comm operations themselves: whether a select blocks
// is judged at the select (a default case makes it non-blocking), never by
// the channel operations naming its cases.
func selectClauseBodies(sel *ast.SelectStmt, visit func(ast.Node) bool) {
	for _, clause := range sel.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		for _, st := range cc.Body {
			ast.Inspect(st, visit)
		}
	}
}

type lockOpKind int

const (
	lockAcquire lockOpKind = iota
	lockRelease
)

// lockCall classifies a call as a lock acquire/release and resolves the
// lock's identity: the declaring object of the receiver field or variable,
// or nil for a lock reached through an interface value (unknown identity).
func lockCall(info *types.Info, call *ast.CallExpr) (lockOpKind, types.Object, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0, nil, false
	}
	var kind lockOpKind
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = lockAcquire
	case "Unlock", "RUnlock":
		kind = lockRelease
	default:
		return 0, nil, false
	}
	fn := calleeFunc(info, call.Fun)
	if fn == nil {
		return 0, nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return 0, nil, false // a package-level function that happens to be named Lock
	}
	if tv, ok := info.Types[sel.X]; ok && types.IsInterface(tv.Type) {
		return kind, nil, true // unknown lock behind an interface
	}
	switch recv := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		return kind, info.Uses[recv], true
	case *ast.SelectorExpr:
		if s, ok := info.Selections[recv]; ok && s.Kind() == types.FieldVal {
			return kind, s.Obj(), true
		}
		return kind, info.Uses[recv.Sel], true
	}
	return kind, nil, true
}

// blockingOp describes the blocking shape at n, or "" if n does not block.
// Lock acquisitions are excluded — waiting for a lock is the order graph's
// domain, not the park check's.
func blockingOp(info *types.Info, n ast.Node) string {
	switch n := n.(type) {
	case *ast.SendStmt:
		return "sends on a channel"
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return "receives from a channel"
		}
	case *ast.RangeStmt:
		if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return "ranges over a channel"
			}
		}
	case *ast.SelectStmt:
		for _, clause := range n.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				return "" // has a default: non-blocking
			}
		}
		return "waits in a select"
	case *ast.CallExpr:
		fn := calleeFunc(info, n.Fun)
		if fn == nil {
			return ""
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return ""
		}
		switch fn.Name() {
		case "Wait":
			return "calls " + fn.Name() + ", which parks"
		case "Park", "Sleep", "SleepI":
			return "calls " + fn.Name() + ", which parks the process"
		case "Do":
			if named, ok := derefNamed(sig.Recv().Type()); ok &&
				named.Obj().Name() == "Once" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" {
				return "calls Once.Do, which can wait on an in-flight run"
			}
		}
	}
	return ""
}

func derefNamed(t types.Type) (*types.Named, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return named, ok
}

// lockWalker tracks the held set through one function body in source order.
type lockWalker struct {
	pass      *Pass
	summaries map[*types.Func]*lockSummary
	held      []types.Object // acquisition order; nil entries are unknown locks
	edges     []lockEdge
	funcLits  []*ast.FuncLit
}

func lockName(obj types.Object) string {
	if obj == nil {
		return "<interface lock>"
	}
	return obj.Name()
}

func (w *lockWalker) walk(body ast.Node, held []types.Object) {
	w.held = held
	ast.Inspect(body, func(n ast.Node) bool { return w.visit(n) })
	// Function literals run in their own activation (often a different
	// goroutine or a later callback): analyze each with an empty held set.
	for len(w.funcLits) > 0 {
		lit := w.funcLits[0]
		w.funcLits = w.funcLits[1:]
		w.held = nil
		ast.Inspect(lit.Body, func(n ast.Node) bool { return w.visit(n) })
	}
}

func (w *lockWalker) visit(n ast.Node) bool {
	info := w.pass.TypesInfo
	switch n := n.(type) {
	case *ast.FuncLit:
		w.funcLits = append(w.funcLits, n)
		return false
	case *ast.DeferStmt:
		// A deferred unlock means the lock is held to the end of the
		// function; deferred work in general runs outside this walk's
		// source order. Skip the subtree: releases are ignored (held
		// persists, conservative) and deferred lock-taking is out of scope.
		return false
	}

	if op := blockingOp(info, n); op != "" && len(w.held) > 0 {
		w.pass.Reportf(n.Pos(), "%s while holding lock %s; a parked holder wedges every other shard waiting on it",
			op, lockName(w.held[len(w.held)-1]))
	}

	if sel, ok := n.(*ast.SelectStmt); ok {
		selectClauseBodies(sel, func(m ast.Node) bool { return w.visit(m) })
		return false
	}

	call, ok := n.(*ast.CallExpr)
	if !ok {
		return true
	}
	if kind, obj, ok := lockCall(info, call); ok {
		if kind == lockAcquire {
			w.acquire(obj, call.Pos(), "")
		} else {
			w.release(obj)
		}
		return true
	}
	if fn := calleeFunc(info, call.Fun); fn != nil && fn.Pkg() == w.pass.Pkg {
		if s := w.summaries[fn]; s != nil && len(w.held) > 0 {
			if s.blocks {
				w.pass.Reportf(call.Pos(), "calls %s, which %s, while holding lock %s",
					fn.Name(), s.blockOp, lockName(w.held[len(w.held)-1]))
			}
			for m := range s.acquires {
				w.acquireViaCallee(m, call.Pos(), fn.Name())
			}
		}
	}
	return true
}

// acquire records taking a lock directly: self-deadlock if already held,
// order edges from everything currently held, then push.
func (w *lockWalker) acquire(obj types.Object, pos token.Pos, via string) {
	if obj != nil {
		for _, h := range w.held {
			if h == obj {
				w.pass.Reportf(pos, "lock %s acquired while already held: guaranteed self-deadlock", lockName(obj))
				return
			}
		}
		for _, h := range w.held {
			if h != nil {
				w.edges = append(w.edges, lockEdge{from: h, to: obj, pos: pos, via: via})
			}
		}
	}
	w.held = append(w.held, obj)
}

// acquireViaCallee records edges for locks a callee takes while we hold
// ours; the callee releases them itself, so nothing is pushed.
func (w *lockWalker) acquireViaCallee(obj types.Object, pos token.Pos, callee string) {
	if obj == nil {
		return
	}
	for _, h := range w.held {
		if h == obj {
			w.pass.Reportf(pos, "calls %s, which re-acquires lock %s already held: guaranteed self-deadlock", callee, lockName(obj))
			return
		}
	}
	for _, h := range w.held {
		if h != nil {
			w.edges = append(w.edges, lockEdge{from: h, to: obj, pos: pos, via: callee})
		}
	}
}

// release pops the most recent matching acquisition.
func (w *lockWalker) release(obj types.Object) {
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i] == obj {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return
		}
	}
}

// reportCycles finds strongly connected components in the lock-order graph
// and reports every edge inside one (or any self-edge) as a potential
// deadlock, at the position the edge was observed.
func reportCycles(pass *Pass, edges []lockEdge) {
	if len(edges) == 0 {
		return
	}
	adj := make(map[types.Object]map[types.Object]bool)
	for _, e := range edges {
		m := adj[e.from]
		if m == nil {
			m = make(map[types.Object]bool)
			adj[e.from] = m
		}
		m[e.to] = true
	}
	scc := stronglyConnected(adj)

	sort.Slice(edges, func(i, j int) bool { return edges[i].pos < edges[j].pos })
	seen := make(map[[2]types.Object]bool)
	for _, e := range edges {
		cyclic := e.from == e.to || (scc[e.from] != 0 && scc[e.from] == scc[e.to])
		if !cyclic || seen[[2]types.Object{e.from, e.to}] {
			continue
		}
		seen[[2]types.Object{e.from, e.to}] = true
		detail := ""
		if e.via != "" {
			detail = fmt.Sprintf(" (through call to %s)", e.via)
		}
		pass.Reportf(e.pos,
			"acquiring lock %s while holding %s%s creates a lock-order cycle: potential deadlock; acquire locks in one global order",
			lockName(e.to), lockName(e.from), detail)
	}
}

// stronglyConnected assigns a component id to every node in a component of
// size > 1 (nodes in singleton components get 0), via Tarjan's algorithm
// made deterministic by sorting roots on position.
func stronglyConnected(adj map[types.Object]map[types.Object]bool) map[types.Object]int {
	nodes := make([]types.Object, 0, len(adj))
	nodeSet := make(map[types.Object]bool)
	add := func(o types.Object) {
		if !nodeSet[o] {
			nodeSet[o] = true
			nodes = append(nodes, o)
		}
	}
	for from, tos := range adj {
		add(from)
		for to := range tos {
			add(to)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Pos() < nodes[j].Pos() })

	index := make(map[types.Object]int)
	low := make(map[types.Object]int)
	onStack := make(map[types.Object]bool)
	comp := make(map[types.Object]int)
	var stack []types.Object
	next, compID := 1, 0

	var strongconnect func(v types.Object)
	strongconnect = func(v types.Object) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true

		succs := make([]types.Object, 0, len(adj[v]))
		for s := range adj[v] {
			succs = append(succs, s)
		}
		sort.Slice(succs, func(i, j int) bool { return succs[i].Pos() < succs[j].Pos() })
		for _, s := range succs {
			if index[s] == 0 {
				strongconnect(s)
				if low[s] < low[v] {
					low[v] = low[s]
				}
			} else if onStack[s] && index[s] < low[v] {
				low[v] = index[s]
			}
		}

		if low[v] == index[v] {
			var members []types.Object
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				members = append(members, m)
				if m == v {
					break
				}
			}
			if len(members) > 1 {
				compID++
				for _, m := range members {
					comp[m] = compID
				}
			}
		}
	}
	for _, v := range nodes {
		if index[v] == 0 {
			strongconnect(v)
		}
	}
	return comp
}
